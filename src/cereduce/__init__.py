"""Exact model reduction for discrete-time quantum conditional evolutions.

Given a quantum instrument and a set of observables of interest, the
package computes an exactly equivalent conditional model of smaller
dimension: it finds the operator subspace reached by the dual dynamics,
block-diagonalizes the *-algebra that subspace generates, straight from
the subspace's basis and without closing products in operator space, and
projects the model through the CPTP factorization of the conditional
expectation.
"""

from .algebra import (
    CEFactorization,
    DegenerateAlgebraError,
    WedderburnDecomposition,
    algebra_closure,
    commutant,
    conditional_expectation,
    wedderburn,
)
from .model import (
    ConditionalEvolution,
    Instrument,
    OutputMap,
    validate_ce,
)
from .observability import (
    LinearReducedModel,
    check_invariance,
    linear_reduce,
    nonobservable_complement,
)
from .operators import (
    DEFAULT_TOL,
    OperatorSubspace,
    Superoperator,
    closure,
    hermitian_closure,
    map_coordinates,
    unvec,
)
from .reduction import (
    AssumptionReport,
    EquivalenceReport,
    ReducedCE,
    check_assumptions,
    equivalence_check,
    random_density,
    reduce_ce,
)
from .trajectories import (
    StateEscapedError,
    TrajectoryRecord,
    enumerate_distribution,
    sample_trajectory,
    total_variation,
)
from .zoo import (
    haar_unitary,
    ising_chain,
    measured_quantum_walk,
    walk_is_generic,
    walk_markov_oracle,
)

__version__ = "0.1.0"
