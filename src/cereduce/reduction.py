"""End-to-end reduction of a conditional evolution and equivalence checks.

The pipeline projects the model onto the smallest *-algebra containing
the dual orbit of the observables, through the CPTP factorization of the
conditional expectation.  That algebra is decomposed into blocks straight
from the orbit's basis; it is never closed under products in operator
space.  The reduced model is again a valid conditional evolution (CP
maps, dual normalization) on a smaller space and reproduces every
conditioned output and every outcome-word probability exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import BlockAlgebra, CEFactorization, algebra_closure, conditional_expectation
from .model import ConditionalEvolution, Instrument, OutputMap
from .observability import check_invariance, linear_reduce, nonobservable_complement
from .operators import DEFAULT_TOL, OperatorSubspace, Superoperator, map_coordinates

__all__ = [
    "ReducedCE",
    "AssumptionReport",
    "EquivalenceReport",
    "reduce_ce",
    "check_assumptions",
    "equivalence_check",
    "random_density",
]


def random_density(n: int, rng) -> np.ndarray:
    """Full-rank generic density operator, normalized G G^dag."""
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = G @ G.conj().T
    return rho / np.trace(rho).real


@dataclass(frozen=True)
class ReducedCE:
    """Reduced conditional evolution plus the reduction map that feeds it."""

    model: ConditionalEvolution
    reduction_map: Superoperator            # Phi = R
    factorization: CEFactorization
    nperp: OperatorSubspace
    output_algebra: BlockAlgebra
    original_dim: int
    tol: float
    seed: int
    # per reduced map, by outcome: its Kraus count and the margin of its
    # rank cut, see CEFactorization.reduce_map
    rank_cuts: dict[str, tuple[int, float]] = field(default_factory=dict)

    @property
    def reduced_dim(self) -> int:
        return self.factorization.reduced_dim

    @property
    def blocks(self) -> tuple[tuple[int, int], ...]:
        return self.factorization.decomposition.blocks

    def provenance(self) -> dict:
        return {
            "original_operator_dim": self.original_dim**2,
            "reduced_operator_dim": self.reduced_dim,
            "nperp_dim": self.nperp.dim,
            "algebra_dim": self.output_algebra.dim,
            "blocks": [list(b) for b in self.blocks],
            "tol": self.tol,
            "seed": self.seed,
            "structure_bound": self.factorization.decomposition.structure_bound,
            "rank_cuts": {
                name: {"kraus_ops": count, "dropped_over_kept": margin}
                for name, (count, margin) in self.rank_cuts.items()
            },
        }


def _reduced_output_map(ce: ConditionalEvolution, fact: CEFactorization) -> OutputMap:
    # C_reduced(X) = C(J(X)); observable rows pull back through J^dag, whose block k
    # is Tr_F(U_k^dag O U_k) / d_F, read off one conjugation by U
    dec = fact.decomposition
    roffs = dec.reduced_offsets()
    obs = []
    for O in ce.output.observables:
        pulled = np.zeros((dec.reduced_total_dim,) * 2, dtype=complex)
        for k, XS in enumerate(dec.block_parts(dec.U.conj().T @ O @ dec.U)):
            pulled[roffs[k]:roffs[k + 1], roffs[k]:roffs[k + 1]] = XS
        obs.append(pulled)
    return OutputMap(names=ce.output.names, observables=tuple(obs))


def reduce_ce(
    ce: ConditionalEvolution,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
) -> ReducedCE:
    """Project a conditional evolution onto its output algebra.

    Computes the observable subspace and decomposes the *-algebra it
    generates once, from the subspace's basis as generators (see
    :func:`~cereduce.algebra.algebra_closure`); the algebra is never closed in
    operator space, and is held as its decomposition, with no basis (see
    :class:`~cereduce.algebra.BlockAlgebra`).  Then builds the CPTP
    factorization of the conditional expectation and conjugates every
    instrument map: reduced M_k = R o M_k o J, with a Kraus list at its Choi
    rank (see :meth:`~cereduce.algebra.CEFactorization.reduce_map`), and
    reduced output = C o J.  On a split model M_k is evolution o effect_k, the map
    the observable subspace is closed under.
    """
    nperp = nonobservable_complement(ce, tol)
    alg = algebra_closure(nperp, tol, seed)
    if not all(alg.acted_on):
        raise ValueError("the observables generate a non-unital algebra")
    fact = conditional_expectation(alg.decomposition)

    reduced = {k: fact.reduce_map(ce.instrument.maps[k], tol) for k in ce.outcomes}
    maps = {k: S for k, (S, _) in reduced.items()}
    model = ConditionalEvolution(instrument=Instrument(outcomes=ce.outcomes, maps=maps),
                                 output=_reduced_output_map(ce, fact))
    return ReducedCE(
        model=model,
        reduction_map=fact.R,
        factorization=fact,
        nperp=nperp,
        output_algebra=alg,
        original_dim=ce.dim,
        tol=tol,
        seed=seed,
        rank_cuts={k: (len(S.kraus), margin) for k, (S, margin) in reduced.items()},
    )


@dataclass(frozen=True)
class AssumptionCheck:
    holds: bool
    residual: float


@dataclass(frozen=True)
class AssumptionReport:
    """Which of the four separability conditions hold, with residuals.

    a1: the evolution map is a linear combination of the instrument maps
        (coefficients in ``lambdas``);
    a2: the non-observable subspace is invariant under the evolution, i.e. nperp under its dual;
    a3: the output algebra is invariant under every measurement effect;
    a4: the output algebra is invariant under the dual of the evolution.

    The residual of a2-a4 is the leak of
    :func:`~cereduce.observability.check_invariance`, the largest over all
    unit elements of the subspace, so it does not depend on the subspace's
    basis; a3 and a4 read it in the algebra's block coordinates
    (:meth:`~cereduce.algebra.BlockAlgebra.leak`).
    """

    a1: AssumptionCheck
    a2: AssumptionCheck
    a3: AssumptionCheck
    a4: AssumptionCheck
    lambdas: dict[str, complex]


def check_assumptions(
    ce: ConditionalEvolution,
    nperp: OperatorSubspace,
    alg: BlockAlgebra,
    tol: float = DEFAULT_TOL,
) -> AssumptionReport:
    """Evaluate the separability assumptions on a split-form model, with its reduction's
    ``nperp`` and ``output_algebra``.  The reduction never reads them: when one holds, the
    evolution and each effect may be reduced on their own through
    :meth:`~cereduce.algebra.CEFactorization.reduce_map`."""
    if not ce.has_split:
        raise ValueError("assumption checks require the split (evolution, effects) form")
    x = map_coordinates([ce.instrument.maps[k] for k in ce.outcomes] + [ce.evolution])
    M, target = x[:-1].T, x[-1]
    lam, _, _, _ = np.linalg.lstsq(M, target, rcond=None)
    a1_res = float(np.linalg.norm(M @ lam - target))
    scale = max(float(np.linalg.norm(target)), 1.0)

    # A2: E maps the complement of nperp into itself iff E^dag maps nperp into nperp
    a2_res = check_invariance(nperp, ce.evolution, dual=True)
    a3_res = alg.leak(*(ce.effects[k] for k in ce.outcomes))
    a4_res = alg.leak(ce.evolution, dual=True)

    a1 = AssumptionCheck(holds=a1_res <= tol * scale, residual=a1_res)
    return AssumptionReport(
        a1=a1,
        a2=AssumptionCheck(holds=a2_res <= tol * 10, residual=a2_res),
        a3=AssumptionCheck(holds=a3_res <= tol * 10, residual=a3_res),
        a4=AssumptionCheck(holds=a4_res <= tol * 10, residual=a4_res),
        lambdas={k: complex(l) for k, l in zip(ce.outcomes, lam)},
    )


@dataclass(frozen=True)
class EquivalenceReport:
    """What :func:`equivalence_check` read.  ``max_dev`` is the largest root deviation, over
    the probability and every output, and bounds the deviation of each at every state before
    any step; ``max_prob_dev`` is the probability's.  ``step_defect`` is the largest relative
    defect of M_k^dag o R^dag = R^dag o M'_k^dag on the reduced realization's span, over the
    outcomes, read on ``n_sequences`` (basis element, outcome) pairs."""

    max_dev: float
    max_prob_dev: float
    step_defect: float
    passed: bool
    n_sequences: int
    # the largest residual the reduced realization's closure dropped, NaN when it met a NaN
    realization_dropped: float


def equivalence_check(
    full: ConditionalEvolution,
    reduced: ReducedCE,
    max_len: int | None = None,
    n_states: int = 25,
    tol: float = 1e-8,
    seed: int = 0,
) -> EquivalenceReport:
    """Certify that the reduced model gives the full model's outputs and probabilities
    after every word, at every state.

    ``reduced`` needs only ``.model`` and ``.reduction_map``: a
    :class:`ReducedCE`, or a namespace holding a loaded model and its R.
    ``max_len``, ``n_states`` and ``seed`` are accepted and not read, for
    callers written for the sampled check that passed them, such as
    ``bench/harness.py``: the certificate draws no state and examines no word.

    Started at R(rho), the reduced model reads the output O' after the word
    (w_1, ..., w_t) as tr(R^dag M'_{w_1}^dag ... M'_{w_t}^dag (O') rho), the
    full model O as tr(M_{w_1}^dag ... M_{w_t}^dag (O) rho), and likewise the
    probability with the identity.  Let V' be the span of the reduced
    model's minimal linear realization
    (:func:`~cereduce.observability.linear_reduce`): it holds 1'
    and every O' and is invariant under every M'_k^dag.  The two agree at
    every word and every state if R^dag(1') = 1, R^dag(O'_j) = O_j, and
    M_k^dag o R^dag = R^dag o M'_k^dag on V' for every outcome k, paired by
    label: by induction on the word.  The check reads both on
    P = R^dag(B') for V''s basis B', in one call of R^dag.  ``max_dev`` is
    the largest Hilbert-Schmidt norm of R^dag(X') - X over X = 1 and each
    observable, at least its operator norm, so it bounds the deviation at
    every state before any step; ``max_prob_dev`` is the identity's.
    ``step_defect`` is the largest over k of ||M_k^dag(P) - R^dag(M'_k^dag(B'))||_F
    relative to the larger side, from one
    :meth:`~cereduce.model.ConditionalEvolution.dual_images` call of each
    model.  Every norm is Frobenius, so a NaN stays NaN and fails.
    ``passed`` requires ``max_dev`` and ``realization_dropped`` to be at
    most ``tol`` and ``step_defect`` at most ``STEP_DEFECT_CUT``.
    """
    red = reduced.model
    lm = linear_reduce(red)
    B = lm.subspace.basis
    pull = reduced.reduction_map.adjoint()
    # R^dag of the basis, then of the identity and of each observable, in one call
    pulled = pull(np.concatenate([B, np.eye(red.dim)[None], red.output.observables]))
    P = pulled[:lm.q]
    targets = np.concatenate([np.eye(full.dim)[None], full.output.observables])
    root = np.linalg.norm(pulled[lm.q:] - targets, axis=(1, 2))
    images = dict(zip(red.outcomes, red.dual_images()(B)))
    step = [_relative_defect(Y, pull(images[k])) for k, Y in zip(full.outcomes, full.dual_images()(P))]
    # np.max, unlike max, keeps a NaN
    max_dev, step_defect = float(np.max(root)), float(np.max(step))
    dropped = lm.subspace.dropped
    return EquivalenceReport(
        max_dev=max_dev,
        max_prob_dev=float(root[0]),
        step_defect=step_defect,
        passed=bool(max_dev <= tol and dropped <= tol and step_defect <= STEP_DEFECT_CUT),
        n_sequences=lm.q * len(full.outcomes),
        realization_dropped=dropped,
    )


def _relative_defect(A: np.ndarray, B: np.ndarray) -> float:
    """||A - B||_F over the larger of ||A||_F and ||B||_F, NaN when either holds a NaN."""
    scale = np.maximum(np.linalg.norm(A), np.linalg.norm(B))
    diff = np.linalg.norm(A - B)
    return float(diff / scale if scale else diff)


# The cut on equivalence_check's step defect, a relative rounding floor and no tolerance: the
# exact zoo pairs at delta = 0.3, Ising N = 4..9 at p = 0 and 0.5, reach at most 3.2e-13 (at
# N = 9, p = 0.5) and walks n = 3..10 at most 3.4e-16, so the cut is 31 times above them; one
# reduced Kraus operator times 1 +- 1e-9 at p = 0 reaches 1.35e-10, 13 times above it.
# observability.REALIZATION_TOL would leave a margin of 3 at N = 9.
STEP_DEFECT_CUT = 1e-11
