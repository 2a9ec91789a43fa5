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
from .operators import DEFAULT_TOL, OperatorSubspace, Superoperator, hermitian_closure, map_coordinates

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


WORD_CAP = 10**6  # bound on enumerate_distribution's words and equivalence_check's nodes


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
    max_dev: float
    max_prob_dev: float
    passed: bool
    worst_case: tuple[int, tuple[str, ...]]
    n_sequences: int
    # the larger ``dropped`` of the two realizations' closures, NaN when one met a NaN
    realization_dropped: float = 0.0


def equivalence_check(
    full: ConditionalEvolution,
    reduced: ReducedCE,
    max_len: int = 4,
    n_states: int = 25,
    tol: float = 1e-8,
    seed: int = 0,
) -> EquivalenceReport:
    """Compare conditioned outputs of the full and reduced models.

    ``reduced`` needs only ``.model`` and ``.reduction_map``: a
    :class:`ReducedCE`, or a namespace holding a loaded model and its R.

    Covers every outcome word up to ``max_len`` for a batch of random
    initial densities rho_s, reduced model started from R(rho_s), and
    records the worst output and probability deviations over all pairs of
    state and word (root included).  The worst case is the first pair,
    states first and words in depth-first order, whose deviation lies
    within a relative ``WORST_CASE_RTOL`` of the maximum, except that such
    a tie moves it off the empty word.  A NaN deviation ranks above every
    number, so it is reported and fails the check.

    The words are walked on each model's minimal linear realization, never
    on its operators.  It is built once per model and kept on the model, and
    :func:`~cereduce.trajectories.enumerate_distribution` reads the same
    one.  Its space is the :func:`~cereduce.operators.hermitian_closure` of
    [1, O_1, ..., O_m] under
    :meth:`~cereduce.model.ConditionalEvolution.dual_images`, in the model's
    own outcome order, at the relative tolerance ``REALIZATION_TOL``.  Its
    maps A_k, which act on the coordinates <B_i, X> in its basis, are those
    of :func:`~cereduce.observability.linear_reduce` on that span.  On a
    split model the closure and ``linear_reduce`` each share one evolution
    conjugation among the outcomes.  The readout
    [tr X, tr O_1 X, ..., tr O_m X] at word w = (w_1, ..., w_t) from
    coordinates x is V_w^T x, with the d x (m + 1) block
    V_w^T = [tr B; C] A_{w_t} ... A_{w_1}.  The states are drawn by
    :func:`random_density` in turn from one generator seeded with ``seed``,
    and enter once, as coordinates x_s, the reduced model's those of
    R(rho_s).  The walk runs on the direct sum of the two realizations,
    pairing the two models' maps A_k by label in the full model's outcome
    order, so one block holds both models' V_w.  A word grows at the front,
    V_{(k,)+w} = A_k^T V_w: the r children of a word are one product of the
    stacked A_k^T with V_w, and their readouts one product per model of
    V_w^T with the stacked A_k x, so a leaf forms no block.  Each frame of
    the depth-first walk takes the levels below its word breadth-first, as
    long as the deepest of them holds at most ``FRAME_WORDS`` words: with 3
    outcomes to length 4 the root's frame walks the whole tree, and with 10
    outcomes it walks lengths 1 and 2, and each word of length 2 has a frame
    for lengths 3 and 4.  With r outcomes the tree has
    sum_{t <= max_len} r^t nodes; above ``WORD_CAP`` nodes
    ValueError is raised before any closure or state.

    ``passed`` requires both deviations, and ``realization_dropped``, the
    largest residual either closure dropped (NaN if one met a NaN), to be
    at most ``tol``.
    """
    n_out = len(full.outcomes)
    # the nodes down to depth t, while they fit in the cap
    nodes, width = 0, 1
    for t in range(max_len + 1):
        nodes += width
        if nodes > WORD_CAP:
            more = "" if t == max_len else "more than "
            raise ValueError(f"the walk to length {max_len} over {n_out} outcomes has {more}{nodes} "
                             f"nodes, above WORD_CAP = {WORD_CAP}; length {t - 1} is the largest that fits")
        width *= n_out
    realizations = [_realization(ce) for ce in (full, reduced.model)]
    rng = np.random.default_rng(seed)
    states = np.empty((n_states, full.dim, full.dim), dtype=complex)
    for s in range(n_states):
        states[s] = random_density(full.dim, rng)
    # the coordinates <B_i, rho_s>, one column per state
    coords = [lm.subspace.stacked().conj() @ rhos.reshape(len(rhos), -1).T
              for lm, rhos in zip(realizations, (states, reduced.reduction_map(states)))]
    dev, prob_dev = _walk(realizations, coords, full.outcomes, max_len, nodes)
    max_dev, max_prob_dev = float(np.max(dev)), float(np.max(prob_dev))
    dropped = float(np.max([lm.subspace.dropped for lm in realizations]))
    return EquivalenceReport(
        max_dev=max_dev,
        max_prob_dev=max_prob_dev,
        passed=bool(max_dev <= tol and max_prob_dev <= tol and dropped <= tol),
        worst_case=_worst_case(dev, full.outcomes, max_len),
        n_sequences=dev.size,
        realization_dropped=dropped,
    )


# The relative tolerance of the realizations' closures: far above the rounding of a
# dual apply (the closures of Ising N=4..9 and of walks n=3..10 drop residuals of at
# most 1e-14) and far below any deviation a check is asked to see.
REALIZATION_TOL = 1e-12
# deviations within this relative distance of the largest one tie for the worst case
WORST_CASE_RTOL = 1e-12
# the most words at the deepest of the levels that a frame of the walk takes breadth-first
FRAME_WORDS = 256


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


def _subtree_sizes(r, max_len):
    """subtree[t] nodes hang below a word of length t, itself included, in a tree of r outcomes."""
    subtree = [1] * (max_len + 1)
    for t in range(max_len - 1, -1, -1):
        subtree[t] = 1 + r * subtree[t + 1]
    return subtree


def _walk(realizations, coords, outcomes, max_len, n_nodes):
    """The output and probability deviations, each (n_states, n_nodes), of the ``n_nodes`` words
    up to ``max_len`` for every state at once; see :func:`equivalence_check`."""
    r = len(outcomes)
    n_states = coords[0].shape[1]
    subtree = _subtree_sizes(r, max_len)
    # the direct sum: the root's blocks [tr B_i, C[:, i]] stacked, each outcome's A_k^T
    # block-diagonal and stacked by outcome in the full model's order, and the
    # coordinates A_k x of every child's state, stacked the same way
    root = np.vstack([np.column_stack([np.trace(lm.subspace.basis, axis1=1, axis2=2), lm.C.T])
                      for lm in realizations])
    q, d, m1 = realizations[0].q, len(root), root.shape[1]
    stacked_T = np.zeros((r, d, d), dtype=complex)
    children_x = np.empty((d, r, n_states), dtype=complex)
    for a, k in enumerate(outcomes):
        for rows, lm, x in zip((slice(0, q), slice(q, d)), realizations, coords):
            stacked_T[a, rows, rows] = lm.A[k].T
            children_x[rows, a] = lm.A[k] @ x
    stacked_T = stacked_T.reshape(r * d, d)
    children_x = children_x.reshape(d, r * n_states)
    dev = np.empty((n_nodes, n_states))
    prob_dev = np.empty((n_nodes, n_states))

    def record(nodes, B, X):
        """Deviations at the nodes (W, R): each of the W words of the blocks B, (d, W m1),
        read against each of the R groups of state coordinates in X, (d, R n_states)."""
        # each model's readouts apart, so that two equal models differ by exact zeros
        diff = (B[:q].T @ X[:q] - B[q:].T @ X[q:]).reshape(*nodes.shape[:1], m1, -1, n_states)
        dev[nodes.ravel()] = np.max(np.abs(diff[:, 1:]), axis=1).reshape(-1, n_states)
        prob_dev[nodes.ravel()] = np.abs(diff[:, 0].real).reshape(-1, n_states)

    record(np.zeros((1, 1), dtype=int), root, np.vstack(coords))
    # The depth-first position of a word w, the order of the worst-case rule, is
    # len(w) + g(w) with g(w) = sum_t rank(w_t) subtree[t].  A word grows at the front,
    # which moves each letter one level down, and subtree[t + 1] = (subtree[t] - 1) / r,
    # so g follows from g and c(w) = sum_t rank(w_t) alone: the child (k,) + w sits at
    # len(w) + 1 + (g - c) / r + rank(k) subtree[1].
    #
    # Each pending word, with its length, g, c and block, is walked breadth-first down
    # ``levels`` levels: each level's children are one product of stacked_T with the
    # blocks of the level above, and their readouts one product per model with
    # children_x.  The words at the last of these levels are pushed in turn.
    levels = 1
    while levels < max_len and r ** (levels + 1) <= FRAME_WORDS:
        levels += 1
    steps = subtree[1] * np.arange(r)
    pending = [(0, np.zeros(1, dtype=int), np.zeros(1, dtype=int), root)] if max_len else []
    while pending:
        t, g, c, B = pending.pop()
        for t in range(t + 1, min(t + levels, max_len) + 1):
            # g and c of the children (w, a), for each word w of B and outcome rank a
            g = ((g - c) // r)[:, None] + steps
            c = c[:, None] + np.arange(r)
            record(t + g, B, children_x)
            g, c = g.ravel(), c.ravel()
            if t == max_len:
                break
            # the children's blocks, word after word as (w, a) runs
            B = (stacked_T @ B).reshape(r, d, -1, m1).transpose(1, 2, 0, 3).reshape(d, -1)
        else:
            pending.extend((t, g[j:j + 1], c[j:j + 1], B[:, j * m1:(j + 1) * m1]) for j in range(len(g)))

    # states first, then words depth-first
    return dev.T, prob_dev.T


def _worst_case(dev, outcomes, max_len):
    """The worst (state, word) of the deviations ``dev``, (n_states, n_nodes) with the words
    depth-first; see :func:`equivalence_check`."""
    subtree = _subtree_sizes(len(outcomes), max_len)
    n_nodes, dev = dev.shape[1], dev.ravel()
    max_dev = np.max(dev)
    # a NaN deviation ranks above every number, and ties only with another NaN
    tied = np.flatnonzero(np.isnan(dev) if np.isnan(max_dev) else dev >= max_dev * (1 - WORST_CASE_RTOL))
    # a tie moves the worst case off an empty word
    nonempty = tied[tied % n_nodes != 0]
    si, node = divmod(int(nonempty[0] if len(nonempty) else tied[0]), n_nodes)
    # the worst word, letter by letter from its position
    word = []
    while node:
        a, node = divmod(node - 1, subtree[len(word) + 1])
        word.append(outcomes[a])
    return si, tuple(word)
