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

from .algebra import CEFactorization, _decompose, _read_off, conditional_expectation
from .model import ConditionalEvolution, Instrument, OutputMap
from .observability import check_invariance, nonobservable_complement
from .operators import DEFAULT_TOL, OperatorSubspace, Superoperator, map_coordinates
from .trajectories import WORD_CAP

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
    output_algebra: OperatorSubspace
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
    :func:`~cereduce.algebra.wedderburn`); the algebra is never closed in
    operator space, its basis is read off the blocks.  Then builds the CPTP
    factorization of the conditional expectation and conjugates every
    instrument map: reduced M_k = R o M_k o J, with a Kraus list at its Choi
    rank (see :meth:`~cereduce.algebra.CEFactorization.reduce_map`), and
    reduced output = C o J.
    """
    nperp = nonobservable_complement(ce, tol)
    G, dec, acted_on = _decompose(nperp, tol, seed)
    if not all(acted_on):
        raise ValueError("the observables generate a non-unital algebra")
    alg = _read_off(G, dec, acted_on)
    fact = conditional_expectation(dec)

    maps, cuts = _reduce_maps(fact, {k: ce.instrument.maps[k] for k in ce.outcomes}, tol)
    inst = Instrument(outcomes=ce.outcomes, maps=maps)
    model = ConditionalEvolution(instrument=inst, output=_reduced_output_map(ce, fact))
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


def _reduce_maps(fact: CEFactorization, maps: dict[str, Superoperator], tol: float):
    """R o S o J of each named map, and each one's (Kraus count, margin) of the rank cut."""
    reduced = {name: fact.reduce_map(S, tol) for name, S in maps.items()}
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
    alg: OperatorSubspace,
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
    a3_res = max(
        check_invariance(alg, ce.effects[k], dual=False)
        for k in ce.outcomes
    )
    a4_res = check_invariance(alg, ce.evolution, dual=True)

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
    split, cuts = _reduce_maps(joint.factorization, named, tol)
    ev = split["evolution"]
    eff = {k: split[f"effect {k}"] for k in ce.outcomes}
    maps = {k: ev @ eff[k] for k in ce.outcomes}
    inst = Instrument(outcomes=ce.outcomes, maps=maps)
    model = ConditionalEvolution(
        instrument=inst,
        output=joint.model.output,
        evolution=ev,
        effects=eff,
    )
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


def equivalence_check(
    full: ConditionalEvolution,
    reduced: ReducedCE,
    max_len: int = 4,
    n_states: int = 25,
    tol: float = 1e-8,
    seed: int = 0,
) -> EquivalenceReport:
    """Compare conditioned outputs of the full and reduced models.

    Covers every outcome word up to ``max_len`` for a batch of random
    initial densities rho_s, reduced model started from R(rho_s), and
    records the worst output and probability deviations over all pairs of
    state and word (root included).  The worst case is the first at the
    maximum, states first and words in depth-first order, except that a
    tie moves it off the empty word.  A NaN deviation ranks above every
    number, so it is reported and fails the check.

    The words are walked once for all states, in the Heisenberg picture:
    each model carries the dual stack [1, O_1, ..., O_m] pulled back along
    the word, M_w^dag = M_{w_1}^dag o ... o M_{w_t}^dag, so a word grows at
    the front, (k,) + w from w by one stacked call of M_k^dag.  One product
    of that stack with the stacked states gives every state's trace and
    outputs at the word, tr[M_w^dag(O_j) rho_s] = tr[O_j M_w(rho_s)].  The
    children of a word come from
    :meth:`~cereduce.model.ConditionalEvolution.dual_images`, in the full
    model's outcome order for both models: on a split model the word's
    stack is conjugated by the evolution once, when its frame is pushed,
    and each child is one effect's dual of that, so a split model whose
    residual exceeds 10 ``tol`` raises ValueError.  The walk is
    depth-first and holds (max_len + 1) stacks of m + 1 operators per
    model.  With r outcomes the tree has sum_{t <= max_len} r^t nodes;
    above ``WORD_CAP`` nodes ValueError is raised before any state is drawn.
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
    rng = np.random.default_rng(seed)
    states = np.array([random_density(full.dim, rng) for _ in range(n_states)])
    taus = reduced.reduction_map(states)
    max_dev, max_prob_dev, worst, count = _dual_walk(full, reduced.model, states, taus, max_len, nodes, tol)
    return EquivalenceReport(
        max_dev=max_dev,
        max_prob_dev=max_prob_dev,
        passed=bool(max_dev <= tol and max_prob_dev <= tol),
        worst_case=worst,
        n_sequences=count,
    )


def _dual_walk(full, red, states, taus, max_len, n_nodes, tol):
    """The ``n_nodes`` words up to ``max_len`` for every state at once; see :func:`equivalence_check`."""
    outcomes = full.outcomes
    r = len(outcomes)
    # subtree[t] nodes hang below a word of length t, itself included
    subtree = [1] * (max_len + 1)
    for t in range(max_len - 1, -1, -1):
        subtree[t] = 1 + r * subtree[t + 1]
    rank = {k: a for a, k in enumerate(outcomes)}
    # both models' children follow the full model's outcome order
    images = [ce.dual_images(tol, outcomes) for ce in (full, red)]
    # tr[X rho] is the row-major flattening of X against that of rho^T
    cols = [rhos.transpose(0, 2, 1).reshape(len(rhos), -1).T for rhos in (states, taus)]
    dev = np.empty((n_nodes, len(states)))
    prob_dev = np.empty((n_nodes, len(states)))

    def record(node, stacks):
        y_full, y_red = (D.reshape(len(D), -1) @ c for D, c in zip(stacks, cols))
        dev[node] = np.max(np.abs(y_full[1:] - y_red[1:]), axis=0)
        prob_dev[node] = np.abs(y_full[0].real - y_red[0].real)

    # The depth-first position of a word w, the order of the worst-case rule, is
    # len(w) + g(w) with g(w) = sum_t rank(w_t) subtree[t].  A word grows at the front,
    # which moves each letter one level down, and subtree[t + 1] = (subtree[t] - 1) / r,
    # so g follows from g and c(w) = sum_t rank(w_t) alone.  Each frame of the path holds
    # a word's g, c, the outcomes still to prepend and, per model, the iterator of its
    # children's stacks, which holds the word's one shared stack (E^dag(D) on a split
    # model).  A word's own stacks live only while it is visited.
    path = []

    def visit(node, g, c, stacks):
        record(node, stacks)
        if len(path) < max_len:
            path.append((g, c, iter(outcomes), [f(D) for f, D in zip(images, stacks)]))

    visit(0, 0, 0, [np.concatenate([np.eye(ce.dim, dtype=complex)[None], ce.output.observables])
                    for ce in (full, red)])
    while path:
        g, c, rest, children = path[-1]
        k = next(rest, None)
        if k is None:
            path.pop()
            continue
        g, c = rank[k] * subtree[1] + (g - c) // r, c + rank[k]
        visit(len(path) + g, g, c, [next(it) for it in children])

    dev = dev.T.ravel()  # states first, then words depth-first
    max_dev = float(np.max(dev))
    # a NaN deviation ranks above every number
    tied = np.flatnonzero((dev == max_dev) | np.isnan(dev))
    # a tie moves the worst case off an empty word, and a non-empty one keeps it
    nonempty = tied[tied % n_nodes != 0]
    si, node = divmod(int(nonempty[0] if len(nonempty) else tied[-1]), n_nodes)
    # the worst word, letter by letter from its position
    word = []
    while node:
        a, node = divmod(node - 1, subtree[len(word) + 1])
        word.append(outcomes[a])
    return max_dev, float(np.max(prob_dev)), (si, tuple(word)), dev.size
