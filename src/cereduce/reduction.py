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

from dataclasses import dataclass, field, replace

import numpy as np

from .algebra import BlockAlgebra, CEFactorization, algebra_closure, conditional_expectation
from .model import ConditionalEvolution, Instrument, OutputMap
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
    _gram_schmidt,
    hermitian_closure,
    map_coordinates,
)

__all__ = [
    "ReducedCE",
    "AssumptionReport",
    "SeparableReduction",
    "EquivalenceReport",
    "reduce_ce",
    "check_assumptions",
    "reduce_separably",
    "equivalence_check",
    "random_density",
]


WORD_CAP = 10**6  # bound on the nodes of enumerate_distribution's outcome tree


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
    # per reduced map, by outcome (or "evolution" and "effect <k>" after
    # reduce_separably): its Kraus count and the margin of its rank cut,
    # see CEFactorization.reduce_map
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

    maps, cuts = _reduce_maps(fact, ((k, ce.instrument.maps[k]) for k in ce.outcomes), tol)
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
        rank_cuts=cuts,
    )


def _reduce_maps(fact: CEFactorization, maps, tol: float):
    """R o S o J of each map of the (name, S) pairs, and each one's (Kraus count, margin) of the rank cut."""
    reduced = {name: fact.reduce_map(S, tol) for name, S in maps}
    return ({name: S for name, (S, _) in reduced.items()},
            {name: (len(S.kraus), margin) for name, (S, margin) in reduced.items()})


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

    @property
    def any_holds(self) -> bool:
        return self.a1.holds or self.a2.holds or self.a3.holds or self.a4.holds


def check_assumptions(
    ce: ConditionalEvolution,
    nperp: OperatorSubspace,
    alg: BlockAlgebra,
    tol: float = DEFAULT_TOL,
) -> AssumptionReport:
    """Evaluate the separability assumptions on a split-form model."""
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
class SeparableReduction:
    """Separately reduced evolution and effects, plus their recomposition."""

    evolution: Superoperator                # R o E o J
    effects: dict[str, Superoperator]       # R o K_k o J
    recomposed: ReducedCE
    assumptions: AssumptionReport


def reduce_separably(
    ce: ConditionalEvolution,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
) -> SeparableReduction:
    """Reduce the evolution map and the measurement effects individually.

    Valid only when at least one of the separability assumptions holds;
    refuses (with the report attached to the exception) otherwise.
    """
    joint = reduce_ce(ce, tol, seed)
    report = check_assumptions(ce, joint.nperp, joint.output_algebra, tol)
    if not report.any_holds:
        exc = ValueError("no separability assumption holds; cannot reduce separably")
        exc.report = report
        raise exc
    named = {"evolution": ce.evolution, **{f"effect {k}": ce.effects[k] for k in ce.outcomes}}
    split, cuts = _reduce_maps(joint.factorization, named.items(), tol)
    ev = split["evolution"]
    eff = {k: split[f"effect {k}"] for k in ce.outcomes}
    model = ConditionalEvolution(output=joint.model.output, evolution=ev, effects=eff)
    return SeparableReduction(
        evolution=ev,
        effects=eff,
        recomposed=replace(joint, model=model, rank_cuts=cuts),
        assumptions=report,
    )


@dataclass(frozen=True)
class EquivalenceReport:
    """What :func:`equivalence_check` read: ``n_sequences`` (state, examined column) pairs,
    words up to ``longest_word`` letters; ``worst_case`` is the (state, word) of the first
    pair, states first, at ``max_dev``.  ``dev_bound`` bounds the deviation of every word
    the check covers, examined or not."""

    max_dev: float
    max_prob_dev: float
    passed: bool
    worst_case: tuple[int, tuple[str, ...]]
    n_sequences: int
    # the largest residual the closures and the word basis dropped, NaN when one met a NaN
    realization_dropped: float = 0.0
    longest_word: int = 0
    dev_bound: float = 0.0


def equivalence_check(
    full: ConditionalEvolution,
    reduced: ReducedCE,
    max_len: int | None = None,
    n_states: int = 25,
    tol: float = 1e-8,
    seed: int = 0,
) -> EquivalenceReport:
    """Compare the unnormalized outputs and probabilities of the full and reduced models.

    ``reduced`` needs only ``.model`` and ``.reduction_map``: a
    :class:`ReducedCE`, or a namespace holding a loaded model and its R.

    Each model is read through its minimal linear realization, built once
    and kept on the model, as :func:`~cereduce.trajectories.enumerate_distribution`
    reads it: the :func:`~cereduce.operators.hermitian_closure` B of
    [1, O_1, ..., O_m] under the duals, at the relative ``REALIZATION_TOL``,
    and the maps A_k of :func:`~cereduce.observability.linear_reduce` on it.
    From coordinates x = <B_i, X>, the readout [tr X, tr O_1 X, ...] after
    the word (w_1, ..., w_t) is V_w^T x, V_w^T = [tr B; C] A_{w_t} ... A_{w_1}.
    On the direct sum of the two realizations, the models' maps paired by
    label, each (word, output) pair is one column of V_w, and
    :func:`_word_basis` examines a set of columns whose span holds every
    word's up to ``max_len`` letters, or of any length with ``None``
    (Tzeng, SIAM J. Comput. 21, 1992).  The states are drawn by
    :func:`random_density` from one generator seeded with ``seed``, and
    enter as coordinates, the reduced model's those of R(rho_s).  Each
    examined column is read against each state, each model's readout
    apart, so that two equal models differ by exact zeros.  ``max_dev`` is
    the largest deviation, the probability's included, and
    ``max_prob_dev`` the largest of the probability's; NaN ranks above
    every number.

    A word that is not examined deviates by a combination of the examined
    deviations, which can be far above them, so the verdict reads a bound
    that covers every word.  Each word's column lies in the span of the
    basis's orthonormal rows Q, so its deviation at state s is at most its
    norm times ||Q delta_s||, delta_s = (x_s, -x'_s) (:func:`_column_bound`
    bounds the norms).  ``dev_bound`` is the largest such product, and
    ``passed`` requires ``max_dev``, ``dev_bound`` and
    ``realization_dropped`` to be at most ``tol``.
    """
    realizations = [_realization(ce) for ce in (full, reduced.model)]
    rng = np.random.default_rng(seed)
    states = np.empty((n_states, full.dim, full.dim), dtype=complex)
    for s in range(n_states):
        states[s] = random_density(full.dim, rng)
    # the coordinates <B_i, rho_s>, one column per state
    x, x_red = (lm.subspace.stacked().conj() @ rhos.reshape(len(rhos), -1).T
                for lm, rhos in zip(realizations, (states, reduced.reduction_map(states))))
    cols, labels, Q, basis_dropped = _word_basis(realizations, full.outcomes, max_len)
    # (n_states, columns): states first
    dev = np.abs(cols[:len(x)].T @ x - cols[len(x):].T @ x_red).T
    # a column c = Q^T a, |a| = |c|, deviates by c^T delta = a^T Q delta
    reach = np.linalg.norm(Q @ np.vstack([x, -x_red]), axis=0)
    dev_bound = float(np.max(reach)) * _column_bound((full, reduced.model), max_len)
    max_dev = float(np.max(dev))
    max_prob_dev = float(np.max(dev[:, [output == 0 for _, output in labels]]))
    # np.argmax takes the first maximum, and the first NaN above every number
    si, col = divmod(int(np.argmax(dev)), len(labels))
    dropped = float(np.max([lm.subspace.dropped for lm in realizations] + [basis_dropped]))
    return EquivalenceReport(
        max_dev=max_dev,
        max_prob_dev=max_prob_dev,
        passed=bool(max_dev <= tol and dev_bound <= tol and dropped <= tol),
        worst_case=(si, labels[col][0]),
        n_sequences=dev.size,
        realization_dropped=dropped,
        longest_word=len(labels[-1][0]),
        dev_bound=dev_bound,
    )


# The relative tolerance of the realizations' closures and of the word basis: far above the
# rounding of a dual apply (the closures of Ising N=4..9 and of walks n=3..10 drop residuals
# of at most 1e-14) and far below any deviation a check is asked to see.
REALIZATION_TOL = 1e-12


def _realization(ce: ConditionalEvolution) -> LinearReducedModel:
    """:func:`~cereduce.observability.linear_reduce` of ``ce`` on the smallest dual-invariant
    span of 1 and its observables: built once per model and kept on the model, as its readout
    is."""
    lm = ce.__dict__.get("_realization")
    if lm is None:
        generators = [np.eye(ce.dim, dtype=complex), *ce.output.observables]
        span = hermitian_closure(generators, ce.dual_images(), REALIZATION_TOL)
        lm = linear_reduce(ce, span)
        object.__setattr__(ce, "_realization", lm)
    return lm


def _column_bound(models, max_len) -> float:
    """A bound on the norm of every (word, output) column on the direct sum of the models'
    realizations, for words up to ``max_len`` letters, or of any length with ``None``.

    In an orthonormal basis the column of O pulled back along w is
    M_w^dag(O) and has its Hilbert-Schmidt norm, at most sqrt(n) times its
    operator norm.  For CP maps ||M_w^dag(O)|| <= ||M_w^dag(1)|| ||O||
    (Russo-Dye), and ||M_w^dag(1)|| <= g^t, g = ||sum_k M_k^dag(1)||: 1
    for a normalized instrument, below 1 for a leaking one.  A model whose
    g exceeds 1 by more than the rounding ``REALIZATION_TOL`` can grow
    without bound: with ``None`` its bound is infinite.  The identity's
    norm, 1, stands for the probability.
    """
    # np.max, unlike max, keeps a NaN
    growth = np.max([1.0] + [_op_norm(ce.instrument.povm().sum(axis=0).reshape(ce.dim, ce.dim))
                             for ce in models])
    norm2 = sum(ce.dim * np.max([1.0] + [_op_norm(O) for O in ce.output.observables]) ** 2
                for ce in models)
    if max_len is None:
        max_len = 0 if growth <= 1 + REALIZATION_TOL else np.inf
    return float(np.sqrt(norm2) * growth**max_len)


def _op_norm(M: np.ndarray) -> float:
    """A bound on the largest singular value of ``M``: the root of its largest column and row
    sums of |M_ij| (Schur), equal to it for the identity and for Pauli strings."""
    A = np.abs(M)
    return float(np.sqrt(A.sum(axis=0).max() * A.sum(axis=1).max()))


def _word_basis(realizations, outcomes, max_len):
    """The columns (d, K) examined on the direct sum of the two realizations, their
    (word, output) labels, the orthonormal rows Q (dim, d) that span them, and the largest
    residual the basis dropped.

    Level 0 is the root's columns [tr B_i, C[:, i]], output 0 the
    probability.  Each level goes through one
    :func:`~cereduce.operators._gram_schmidt` step at ``REALIZATION_TOL``,
    and a kept column w has the children A_k^T w of the words (k,) + w.
    The levels stop after words of ``max_len`` letters, or, with ``None``,
    at the first that keeps nothing: the at most d kept columns then span
    every word's columns.  Either way Q spans, up to the dropped residuals,
    the column of every word the levels reach.
    """
    level = np.vstack([np.column_stack([np.trace(lm.subspace.basis, axis1=1, axis2=2), lm.C.T])
                       for lm in realizations])
    d, m1 = level.shape
    # each outcome's A_k^T block-diagonal, stacked by outcome in the full model's order
    lm, lm_red = realizations
    stacked_T = np.zeros((len(outcomes), d, d), dtype=complex)
    for a, k in enumerate(outcomes):
        stacked_T[a, :lm.q, :lm.q], stacked_T[a, lm.q:, lm.q:] = lm.A[k].T, lm_red.A[k].T
    stacked_T = stacked_T.reshape(-1, d)
    labels = [((), j) for j in range(m1)]
    levels, examined = [level], list(labels)
    Q, dim, scale, dropped = np.empty((0, d), dtype=complex), 0, 0.0, 0.0
    while True:
        Q, dim, scale, kept, lost = _gram_schmidt(Q, dim, level.T.copy(), scale, REALIZATION_TOL)
        dropped = np.maximum(dropped, lost)
        # the level just added holds the words of len(levels) - 1 letters
        if not kept or (max_len is not None and len(levels) > max_len):
            break
        # the child (k,) + w of the j-th kept column w at column a * len(kept) + j, a the rank of k
        level = (stacked_T @ level[:, kept]).reshape(len(outcomes), d, -1).transpose(1, 0, 2).reshape(d, -1)
        labels = [((k,) + labels[j][0], labels[j][1]) for k in outcomes for j in kept]
        levels.append(level)
        examined += labels
    return np.hstack(levels), examined, Q[:dim], float(dropped)
