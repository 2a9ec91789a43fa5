"""Observable subspace of a conditional evolution and its linear reduction.

The orthocomplement of the non-observable subspace is the smallest
operator subspace that contains every observable of interest and is
invariant under the dual of every instrument map.  It is computed by a
worklist closure: each new basis direction is pushed through every dual
map exactly once, and an image is kept when its Gram-Schmidt residual
exceeds the tolerance times the largest operator norm seen so far.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ConditionalEvolution
from .operators import (
    DEFAULT_TOL,
    OperatorSubspace,
    Superoperator,
    closure,
    hs_inner,
)

__all__ = [
    "nonobservable_complement",
    "invariant_closure",
    "check_invariance",
    "LinearReducedModel",
    "linear_reduce",
]


def invariant_closure(
    generators: list[np.ndarray],
    maps: list[Superoperator],
    tol: float = DEFAULT_TOL,
) -> OperatorSubspace:
    """Smallest subspace containing ``generators`` and invariant under ``maps``.

    The :func:`~cereduce.operators.closure` of the generators where each
    new basis element is expanded into its images under every map; the
    span is invariant once every element has been expanded.
    """
    return closure(generators, lambda basis, i: [S(basis[i]) for S in maps], tol)


def nonobservable_complement(
    ce: ConditionalEvolution, tol: float = DEFAULT_TOL
) -> OperatorSubspace:
    """Span of the observables and all their dual-map orbits.

    The dual maps preserve Hermiticity, so with Hermitian observables the
    computed basis consists of Hermitian operators.
    """
    duals = [ce.instrument.maps[k].adjoint() for k in ce.outcomes]
    return invariant_closure(list(ce.output.observables), duals, tol)


def check_invariance(
    subspace: OperatorSubspace,
    S: Superoperator,
    dual: bool = False,
) -> float:
    """Max residual of (I - Pi) applied to the (dual) map of each basis element."""
    op = S.adjoint() if dual else S
    res = 0.0
    for B in subspace.basis:
        res = max(res, subspace.residual(op(B)))
    return res


@dataclass(frozen=True)
class LinearReducedModel:
    """Minimal linear (not necessarily CPTP) realization on coordinates.

    ``encode`` takes HS coordinates in the subspace basis, ``decode``
    synthesizes the operator back; together they factor the orthogonal
    projector onto the subspace.
    """

    subspace: OperatorSubspace
    outcomes: tuple[str, ...]
    A: dict[str, np.ndarray]
    C: np.ndarray

    @property
    def q(self) -> int:
        return self.subspace.dim

    def encode(self, X: np.ndarray) -> np.ndarray:
        return self.subspace.coords(X)

    def decode(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros((self.subspace.ambient_dim,) * 2, dtype=complex)
        for c, B in zip(x, self.subspace.basis):
            out += c * B
        return out

    def propagate(self, rho0: np.ndarray, seq) -> np.ndarray:
        """Output vector after driving the reduced model along ``seq``."""
        x = self.encode(rho0)
        for k in seq:
            x = self.A[str(k)] @ x
        return self.C @ x


def linear_reduce(
    ce: ConditionalEvolution, subspace: OperatorSubspace
) -> LinearReducedModel:
    """Compress every instrument map and the output map onto the subspace.

    Exact output reproduction for all outcome words requires the subspace
    to contain the full dual-map orbit of the observables; the caller is
    responsible for passing such a subspace (typically the result of
    :func:`nonobservable_complement`).
    """
    if subspace.dim == 0:
        raise ValueError("cannot reduce onto a zero-dimensional subspace")
    basis = subspace.basis
    q = subspace.dim
    A = {}
    for k in ce.outcomes:
        M = ce.instrument.maps[k]
        images = [M(B) for B in basis]
        A[k] = np.array([[hs_inner(Bi, img) for img in images] for Bi in basis])
    C = np.array([[np.trace(O @ B) for B in basis] for O in ce.output.observables])
    return LinearReducedModel(subspace=subspace, outcomes=ce.outcomes, A=A, C=C)
