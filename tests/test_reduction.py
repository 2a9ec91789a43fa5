import dataclasses
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from cereduce import observability, operators
from cereduce.model import ConditionalEvolution, Instrument, OutputMap, validate_ce
from cereduce.observability import check_invariance, linear_reduce, nonobservable_complement
from cereduce.operators import DEFAULT_TOL, Superoperator
from cereduce.reduction import (
    STEP_DEFECT_CUT,
    EquivalenceReport,
    check_assumptions,
    equivalence_check,
    random_density,
    reduce_ce,
)
from cereduce.trajectories import enumerate_distribution
from cereduce.zoo import haar_unitary, ising_chain, measured_quantum_walk, walk_markov_oracle
from conftest import (
    SPLIT_MODELS,
    blockdiag_projector,
    channel_checks,
    enumerate_oracle,
    outputs,
    projector_matrix,
    random_ce,
    read_off,
    separately_reduced,
    vec,
    with_output,
)


def primal_deviations(full, reduced, max_len=4, n_states=25, seed=0):
    """The Schroedinger-picture oracle: each state pushed down the outcome tree in operator
    space, one level at a time, the ``n_states`` states drawn by ``random_density`` from one
    generator seeded with ``seed``.

    Returns, for each length t <= max_len, the deviations (n_states, r^t, m + 1) of the
    probability and the m outputs at each word of length t, the words in the order of
    ``itertools.product(full.outcomes, repeat=t)``."""
    rng = np.random.default_rng(seed)
    states = [random_density(full.dim, rng) for _ in range(n_states)]

    def readout(ce, X):
        return np.concatenate([np.trace(X, axis1=-2, axis2=-1)[..., None], outputs(ce, X)], axis=-1)

    levels = [[] for _ in range(max_len + 1)]
    for rho0 in states:
        rho, tau = rho0[None], reduced.reduction_map(rho0)[None]
        for t in range(max_len + 1):
            if t:
                # word w + (k,) sits at row len(outcomes) * w + k
                rho, tau = (np.stack([ce.instrument.maps[k](X) for k in full.outcomes], axis=1)
                            .reshape(-1, ce.dim, ce.dim) for ce, X in ((full, rho), (reduced.model, tau)))
            levels[t].append(np.abs(readout(full, rho) - readout(reduced.model, tau)))
    return [np.array(level) for level in levels]


def oracle_at(levels, outcomes, state, word):
    """The oracle's deviations (m + 1,) at one state and word."""
    rank = {k: a for a, k in enumerate(outcomes)}
    return levels[len(word)][state, sum(rank[k] * len(outcomes) ** i for i, k in enumerate(word[::-1]))]


def primal_equivalence_check(full, reduced, max_len=4, n_states=25, tol=1e-8, seed=0):
    """The verdict and the largest deviations of the oracle over every word up to ``max_len``;
    a NaN deviation ranks above every number."""
    levels = primal_deviations(full, reduced, max_len, n_states, seed)
    max_dev = max((float(np.max(level)) for level in levels), key=lambda x: (math.isnan(x), x))
    max_prob_dev = max((float(np.max(level[..., 0])) for level in levels), key=lambda x: (math.isnan(x), x))
    return EquivalenceReport(
        max_dev=max_dev,
        max_prob_dev=max_prob_dev,
        step_defect=math.nan,
        passed=bool(max_dev <= tol),
        n_sequences=sum(level.shape[0] * level.shape[1] for level in levels),
        realization_dropped=math.nan,
    )


def corrupted(ce, red, fill=0.0):
    """The reduced model of ``red`` with the map of its second outcome set to zero, or to NaN."""
    broken_maps = dict(red.model.instrument.maps)
    k_bad = ce.outcomes[1]
    D = red.model.dim
    broken_maps[k_bad] = Superoperator(kraus=[np.full((D, D), fill, dtype=complex)])
    broken = ConditionalEvolution(
        instrument=Instrument(outcomes=ce.outcomes, maps=broken_maps),
        output=red.model.output,
    )
    return SimpleNamespace(model=broken, reduction_map=red.reduction_map)


def scaled(red, factor):
    """The reduction ``red`` with the first Kraus operator of its second outcome's map times ``factor``."""
    maps = dict(red.model.instrument.maps)
    k = red.model.outcomes[1]
    maps[k] = Superoperator(kraus=[factor * maps[k].kraus[0], *maps[k].kraus[1:]])
    model = dataclasses.replace(red.model, instrument=Instrument(red.model.outcomes, maps))
    return SimpleNamespace(model=model, reduction_map=red.reduction_map)


def with_observables(ce, change):
    """``ce`` with the output map change(names, observables)."""
    names, obs = change(ce.output.names, ce.output.observables)
    return with_output(ce, OutputMap(tuple(names), tuple(obs)))


# observable sets that a model and its exact reduction both take, by the kind of pair
OBSERVABLES = {
    # Ising's first observable is the identity
    "noidentity": lambda names, obs: (names[1:], obs[1:]),
    # sigma_+ of the first site, (sigma_x + i sigma_y) / 2
    "nonhermitian": lambda names, obs: ((*names, "sigma_+^(1)"), (*obs, (obs[1] + 1j * obs[2]) / 2)),
}


def itself(ce):
    """``ce`` as its own reduction, through the identity map."""
    return SimpleNamespace(model=ce, reduction_map=Superoperator(kraus=[np.eye(ce.dim)]))


@pytest.fixture(scope="module")
def walk4():
    return measured_quantum_walk(4, seed=7)


@pytest.fixture(scope="module")
def walk4_red(walk4):
    return reduce_ce(walk4, seed=0)


class TestReduceCE:
    def test_walk_reduces_to_classical_chain(self, walk4, walk4_red):
        red = walk4_red
        assert red.reduced_dim == 4
        assert red.blocks == ((1, 1),) * 4
        # summed reduced instrument is the classical transition matrix
        P = walk_markov_oracle(walk4.evolution.kraus[0])
        D = red.factorization.reduced_hilbert_dim
        perm = []
        for b in range(D):
            e = np.zeros((D, D), dtype=complex)
            e[b, b] = 1.0
            perm.append(int(np.argmax(np.abs(np.diag(red.factorization.J(e))))))
        Q = np.zeros((D, D))
        Ssum = Superoperator(sum(red.model.instrument.maps[k].matrix for k in walk4.outcomes))
        for j in range(D):
            e = np.zeros((D, D), dtype=complex)
            e[j, j] = 1.0
            Q[:, j] = np.diag(Ssum(e)).real
        assert np.max(np.abs(Q - P[np.ix_(perm, perm)])) < 1e-9
        assert np.allclose(np.ones(D) @ Q, np.ones(D), atol=1e-9)

    def test_identity_ce_reduces_to_scalar(self):
        ce = ConditionalEvolution(
            instrument=Instrument(outcomes=("0",), maps={"0": Superoperator(kraus=[np.eye(3)])}),
            output=OutputMap(names=("identity",), observables=(np.eye(3, dtype=complex),)),
        )
        red = reduce_ce(ce)
        assert red.reduced_dim == 1
        assert np.allclose(red.model.instrument.maps["0"].matrix, [[1.0]])

    def test_reduced_model_is_valid_ce(self, walk4_red):
        assert validate_ce(walk4_red.model).ok

    def test_reduced_maps_cp(self, walk4_red):
        for k in walk4_red.model.outcomes:
            rep = channel_checks(walk4_red.model.instrument.maps[k])
            assert rep.min_choi_eig >= -1e-9

    def test_ising_dims(self):
        red0 = reduce_ce(ising_chain(4, 0.0, 0.3))
        assert (red0.nperp.dim, red0.reduced_dim) == (12, 16)
        assert sorted(red0.blocks) == [(2, 2)] * 4

    def test_ising_n7_memory(self):
        # one stack per span: the nperp basis is kept once, not also as a stacked copy
        ce = ising_chain(7, 0.5, 0.3)
        tracemalloc.start()
        try:
            nperp = nonobservable_complement(ce)
            kept, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            reduce_ce(ce)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        one_basis = nperp.dim * ce.dim**2 * 16
        assert nperp.dim == 18 and kept <= 1.1 * one_basis
        assert peak - base <= 32 * 2**20

    def test_ising_n7_certificate_builds_no_full_realization(self):
        # the certificate closes only the reduced model's realization; its peak is R^dag's
        # dense form, built from R's Kraus list, not a stack of full-size operators per word
        ce = ising_chain(7, 0.5, 0.3)
        red = reduce_ce(ce)
        tracemalloc.start()
        try:
            assert equivalence_check(ce, red).passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "_realization" not in ce.__dict__ and "_realization" in red.model.__dict__
        assert peak <= 3 * (ce.dim * red.model.dim) ** 2 * 16

    def test_dimension_ordering(self, walk4_red):
        red = walk4_red
        n2 = red.original_dim**2
        assert red.nperp.dim <= red.output_algebra.dim <= n2
        assert red.reduced_dim <= n2


class TestEquivalence:
    def test_walk_pass(self, walk4, walk4_red):
        rep = equivalence_check(walk4, walk4_red, max_len=4, n_states=10, tol=1e-8, seed=1)
        assert rep.passed and rep.max_dev <= 1e-8

    def test_random_ces(self, rng):
        for i in range(5):
            ce = random_ce(3, 2, 2, rng)
            red = reduce_ce(ce, seed=i)
            rep = equivalence_check(ce, red, max_len=3, n_states=5, tol=1e-8, seed=i)
            assert rep.passed

    def test_corrupted_model_fails(self, walk4, walk4_red):
        rep = equivalence_check(walk4, corrupted(walk4, walk4_red), max_len=2, n_states=3,
                                tol=1e-8, seed=0)
        # the root is R's and the observables', which the corrupted map does not touch
        assert not rep.passed and rep.max_dev <= 1e-12 and rep.step_defect > 1e-3

    def test_trivial_identity_reduction(self):
        ce = ConditionalEvolution(
            instrument=Instrument(outcomes=("0",), maps={"0": Superoperator(kraus=[np.eye(2)])}),
            output=OutputMap(names=("identity",), observables=(np.eye(2, dtype=complex),)),
        )
        rep = equivalence_check(ce, reduce_ce(ce), max_len=3, n_states=5, tol=1e-8)
        assert rep.max_dev <= 1e-14

    def test_one_outcome_walk_past_the_recursion_limit(self):
        # one outcome makes a chain of words, all read through the one-element span of 1'
        ce = ConditionalEvolution(
            instrument=Instrument(outcomes=("0",), maps={"0": Superoperator(kraus=[np.eye(2)])}),
            output=OutputMap(names=("identity",), observables=(np.eye(2, dtype=complex),)),
        )
        red = reduce_ce(ce)
        rep = equivalence_check(ce, red, tol=1e-8)
        assert rep.passed and rep.n_sequences == 1 and rep.step_defect == 0.0
        # a reduced map that leaks 1e-3 or 3e-9 a step: exact at the root, and within tol for
        # the first words, but far down the chain the deviation nears 1
        for leak in (1e-3, 3e-9):
            model = ConditionalEvolution(
                instrument=Instrument(outcomes=("0",), maps={"0": Superoperator(kraus=[np.sqrt([[1 - leak]])])}),
                output=red.model.output,
            )
            rep = equivalence_check(ce, SimpleNamespace(model=model, reduction_map=red.reduction_map))
            assert rep.max_dev <= 1e-15 and not rep.passed
            assert rep.step_defect == pytest.approx(leak, rel=1e-6)

    def test_walk10_every_node_at_the_defaults(self):
        # every word of every length, through the 10 basis elements of the reduced
        # realization, each pulled back once and compared under each of the 10 outcomes
        ce = measured_quantum_walk(10)
        rep = equivalence_check(ce, reduce_ce(ce))
        assert rep.n_sequences == 10 * 10
        assert rep.passed and rep.step_defect <= STEP_DEFECT_CUT / 10

    def test_loaded_kraus_model_never_builds_dense_maps(self):
        from cereduce.model import validate_ce
        from cereduce.observability import linear_reduce
        from cereduce.serialize import ce_from_json, ce_to_json
        from cereduce.trajectories import sample_trajectory

        ce = ising_chain(4, 0.5, 0.3)
        red = reduce_ce(ce)
        full = ce_from_json(ce_to_json(ce))
        maps = [*full.instrument.maps.values(), full.evolution, *full.effects.values()]
        rep = equivalence_check(full, red, max_len=3, n_states=3, seed=2)
        assert rep.passed
        rec = sample_trajectory(full, np.eye(16) / 16, 10, 5)
        assert len(rec.outcomes) == 10
        assert validate_ce(full).ok
        assert check_assumptions(full, red.nperp, red.output_algebra).a1.holds
        assert linear_reduce(full).q == red.nperp.dim
        # white box: the dense form is cached on first read of .matrix
        assert all(S._matrix is None for S in maps)

    @pytest.mark.parametrize("make", [lambda: measured_quantum_walk(4, seed=1),
                                      lambda: ising_chain(4, 0.5, 0.3)], ids=["walk4", "ising4"])
    def test_reduced_outcomes_in_another_order(self, make):
        # the reduced model's children follow the full model's outcome order, not their own
        ce = make()
        red = reduce_ce(ce)
        order = ce.outcomes[::-1]
        model = dataclasses.replace(red.model, instrument=Instrument(order, red.model.instrument.maps))
        assert model.outcomes != ce.outcomes
        rep = equivalence_check(ce, SimpleNamespace(model=model, reduction_map=red.reduction_map),
                                max_len=3, n_states=3)
        assert rep.passed and rep.max_dev <= 1e-8


class TestDualWalkMatchesPrimal:
    """The intertwining certificate against the per-state oracle, which reads every word up to a
    length on random states."""

    FULL = {
        "ising4_p0": lambda: ising_chain(4, 0.0, 0.3),
        "ising4_p05": lambda: ising_chain(4, 0.5, 0.3),
        "walk4": lambda: measured_quantum_walk(4, seed=7),
        "walk5": lambda: measured_quantum_walk(5, seed=7),
    }
    # a neighbouring model of the same reduced size: deviations far above rounding at every node
    NEIGHBOUR = {
        "ising4_p0": lambda: ising_chain(4, 0.0, 0.31),
        "ising4_p05": lambda: ising_chain(4, 0.5, 0.31),
        "walk4": lambda: measured_quantum_walk(4, seed=8),
        "walk5": lambda: measured_quantum_walk(5, seed=8),
    }

    @pytest.fixture(params=[f"{m}-{kind}" for m in sorted(FULL) for kind in ("reduced", "neighbour")]
                    + ["walk4-corrupted", "walk4-nan", "ising4_p05-itself", "ising4_p05-nan",
                       "ising4_p05-scaled6", "ising4_p05-scaled9", "ising4_p05-nonhermitian",
                       "ising4_p05-noidentity"])
    def pair(self, request):
        """(full model, reduction, kind of pair)."""
        model, kind = request.param.split("-")
        full = self.FULL[model]()
        if kind == "itself":
            return full, itself(full), kind
        red = reduce_ce(self.NEIGHBOUR[model]() if kind == "neighbour" else full)
        if kind in ("corrupted", "nan"):
            red = corrupted(full, red, np.nan if kind == "nan" else 0.0)
        elif kind.startswith("scaled"):
            # one reduced Kraus operator times 1 + 1e-6, or 1 + 1e-9
            red = scaled(red, 1 + 10.0 ** -int(kind[len("scaled"):]))
        elif kind in OBSERVABLES:
            full = with_observables(full, OBSERVABLES[kind])
            red = SimpleNamespace(model=with_observables(red.model, OBSERVABLES[kind]),
                                  reduction_map=red.reduction_map)
        return full, red, kind

    # the keywords are accepted and not read: each run reads the oracle on its states
    @pytest.mark.parametrize("kwargs", [
        {},
        {"max_len": 2, "n_states": 3, "seed": 4},
        {"max_len": 4, "n_states": 3, "seed": 1},
        {"max_len": 6, "n_states": 3, "seed": 2},
    ], ids=["defaults", "short", "len4", "len6"])
    def test_same_report(self, pair, kwargs):
        self.assert_same_report(*pair, kwargs)

    @staticmethod
    def assert_same_report(full, red, kind, kwargs):
        dual = equivalence_check(full, red, **kwargs)
        n_states, seed = kwargs.get("n_states", 25), kwargs.get("seed", 0)
        # the certificate covers every length; the oracle reads up to length 6
        max_len = kwargs.get("max_len") or 6
        levels = primal_deviations(full, red, max_len, n_states, seed)
        primal = primal_equivalence_check(full, red, max_len, n_states, seed=seed)
        # a pass is the oracle's; it may fail a pair the oracle passes (scaled9, below)
        assert dual.passed <= primal.passed
        assert dual.passed == primal.passed or kind == "scaled9"
        # the root bound holds at every state, so at the oracle's before any step
        assert np.max(levels[0]) <= dual.max_dev + 1e-13
        assert np.max(levels[0][..., 0]) <= dual.max_prob_dev + 1e-13
        assert type(dual.passed) is bool
        assert all(type(x) is float for x in (dual.max_dev, dual.max_prob_dev, dual.step_defect))
        assert dual.n_sequences == linear_reduce(red.model).q * len(full.outcomes)
        if kind == "nan":
            # a NaN image stops the reduced model's closure, and its defect stays NaN
            assert math.isnan(dual.step_defect) and math.isnan(dual.realization_dropped)
        else:
            assert dual.realization_dropped <= 1e-12
        if kind in ("reduced", "itself", "nonhermitian", "noidentity"):
            assert dual.passed and dual.max_dev <= 1e-12 and dual.step_defect <= STEP_DEFECT_CUT / 10
        elif kind == "scaled9":
            # every deviation the oracle reads is within tol, but the maps part by more than
            # rounding, along a direction in which longer words can grow the deviation
            assert primal.passed and dual.max_dev <= 1e-12 < STEP_DEFECT_CUT < dual.step_defect
            assert not dual.passed
        else:
            assert not dual.passed

    @pytest.mark.parametrize("make", [
        *[lambda N=N: ising_chain(N, 0.5, 0.3) for N in range(4, 8)],
        lambda: ising_chain(4, 0.0, 0.3),
        *[lambda n=n: measured_quantum_walk(n, seed=n) for n in range(3, 9)],
    ], ids=[*(f"ising{N}" for N in range(4, 8)), "ising4_p0", *(f"walk{n}" for n in range(3, 9))])
    def test_realizations_drop_only_rounding(self, make):
        ce = make()
        rep = equivalence_check(ce, reduce_ce(ce), max_len=2, n_states=2)
        assert rep.passed and rep.realization_dropped <= 1e-12

    def test_realization_dropped_above_tol_fails(self, monkeypatch):
        # closures this coarse drop whole directions of the observable space, which the
        # deviations of an exact reduction do not show
        ce = ising_chain(4, 0.5, 0.3)
        monkeypatch.setattr(observability, "REALIZATION_TOL", 0.5)
        rep = equivalence_check(ce, reduce_ce(ce), max_len=2, n_states=2)
        assert rep.max_dev <= 1e-8 and rep.max_prob_dev <= 1e-8
        assert rep.realization_dropped > 1e-8 and not rep.passed

    def test_verdicts(self):
        walk = self.FULL["walk4"]()
        assert not equivalence_check(walk, corrupted(walk, reduce_ce(walk))).passed
        # a NaN map fails, with no exception: its defect is NaN
        rep = equivalence_check(walk, corrupted(walk, reduce_ce(walk), np.nan))
        assert not rep.passed and math.isnan(rep.step_defect)
        ising = self.FULL["ising4_p05"]()
        rep = equivalence_check(ising, itself(ising))
        # through the identity map every difference is exactly zero
        assert rep.max_dev == rep.max_prob_dev == rep.step_defect == 0.0 and rep.passed


class TestNearExceptionalPairs:
    """Ising couplings close to the exceptional pi/4 and pi/2, where the reduced dims change."""

    @pytest.mark.parametrize("N", [5, 6])
    @pytest.mark.parametrize("offset", [1e-6, -1e-6, 1e-9], ids=["plus1e-6", "minus1e-6", "plus1e-9"])
    def test_near_pi_over_4_at_p_half_passes(self, N, offset):
        ce = ising_chain(N, 0.5, np.pi / 4 + offset)
        rep = equivalence_check(ce, reduce_ce(ce))
        assert rep.passed and rep.step_defect <= STEP_DEFECT_CUT / 10

    @pytest.mark.parametrize("N", [5, 6])
    def test_near_pi_over_2_at_p0_fails(self, N):
        ce = ising_chain(N, 0.0, np.pi / 2 - 1e-6)
        red = reduce_ce(ce)
        rep = equivalence_check(ce, red)
        assert not rep.passed and rep.step_defect > STEP_DEFECT_CUT
        # a pure state on which sigma_z^(1) deviates most before any step: the top
        # eigenvector of R^dag(sigma_z') - sigma_z, read through R(rho) as the models read it
        j = ce.output.names.index("sigma_z^(1)")
        O, O_red = ce.output.observables[j], red.model.output.observables[j]
        w, V = np.linalg.eigh(red.reduction_map.adjoint()(O_red) - O)
        psi = V[:, np.argmax(np.abs(w))]
        rho = np.outer(psi, psi.conj())
        dev = abs(np.trace(O_red @ red.reduction_map(rho)) - np.trace(O @ rho))
        assert 1e-8 < dev <= rep.max_dev + 1e-13


@pytest.mark.parametrize("N", range(4, 9))
@pytest.mark.parametrize("p", [0.0, 0.5], ids=["p0", "p_half"])
def test_exact_zoo_pairs_sit_far_below_the_cut(N, p):
    ce = ising_chain(N, p, 0.3)
    rep = equivalence_check(ce, reduce_ce(ce))
    assert rep.passed and rep.step_defect <= STEP_DEFECT_CUT / 10


# the split models on which A3 and A4 are checked against the basis path
LEAK_ORACLE_MODELS = {
    **SPLIT_MODELS,
    **{f"ising{N}_p{p}": (lambda N=N, p=p: ising_chain(N, p, 0.3)) for N in (6, 7) for p in (0.0, 0.5)},
    **{f"walk{n}": (lambda n=n: measured_quantum_walk(n, seed=n)) for n in (7, 8)},
}


class TestAssumptions:
    def test_ising_p_half(self):
        ce = ising_chain(4, 0.5, 0.3)
        red = reduce_ce(ce)
        rep = check_assumptions(ce, red.nperp, red.output_algebra)
        assert rep.a1.holds and rep.a3.holds
        assert rep.lambdas["-1"].real == pytest.approx(2.0, abs=1e-9)
        assert abs(rep.lambdas["0"]) < 1e-9 and abs(rep.lambdas["1"]) < 1e-9

    def test_a1_implies_a2(self):
        ce = ising_chain(4, 0.5, 0.3)
        red = reduce_ce(ce)
        rep = check_assumptions(ce, red.nperp, red.output_algebra)
        assert not rep.a1.holds or rep.a2.holds

    def test_ising_p0_pinned(self):
        ce = ising_chain(4, 0.0, 0.3)
        red = reduce_ce(ce)
        rep = check_assumptions(ce, red.nperp, red.output_algebra)
        assert not rep.a1.holds
        # A2 is the dual invariance of nperp: max ||(1 - P) E^dag(B)|| over its unit elements B,
        # the spectral norm of the residuals of its basis
        images = ce.evolution.matrix.conj().T @ np.array([vec(B) for B in red.nperp.basis]).T
        off = images - projector_matrix(red.nperp) @ images
        assert rep.a2.residual == pytest.approx(np.linalg.norm(off, 2), abs=1e-12)
        assert not rep.a2.holds and rep.a2.residual == pytest.approx(0.5646424733950358, abs=1e-9)
        assert rep.a3.holds and rep.a3.residual <= 1e-12
        assert not rep.a4.holds and rep.a4.residual == pytest.approx(0.5646424733950358, abs=1e-9)

    @pytest.mark.parametrize("name", sorted(LEAK_ORACLE_MODELS))
    def test_block_leaks_match_basis_path(self, name):
        # A3 and A4 on the basis path: check_invariance on the algebra's matrix units,
        # pushed through each map and projected back
        ce = LEAK_ORACLE_MODELS[name]()
        red = reduce_ce(ce)
        rep = check_assumptions(ce, red.nperp, red.output_algebra)
        sub = read_off(red.output_algebra)
        a3 = max(check_invariance(sub, ce.effects[k]) for k in ce.outcomes)
        a4 = check_invariance(sub, ce.evolution, dual=True)
        for got, want in ((rep.a3, a3), (rep.a4, a4)):
            assert abs(got.residual - want) <= 1e-12
            assert got.holds == (want <= 10 * DEFAULT_TOL)

    def test_walk_a3(self, walk4, walk4_red):
        rep = check_assumptions(walk4, walk4_red.nperp, walk4_red.output_algebra)
        assert rep.a3.holds

    def test_requires_split(self, rng):
        ce = random_ce(2, 2, 1, rng)
        red = reduce_ce(ce)
        with pytest.raises(ValueError):
            check_assumptions(ce, red.nperp, red.output_algebra)

    @pytest.mark.parametrize("name", sorted(SPLIT_MODELS))
    def test_elementwise_effects_keep_flags(self, name, monkeypatch):
        # the zoo's effects apply elementwise; the same model with every map in its
        # Kraus or dense form gives the same flags, and residuals within rounding
        make = SPLIT_MODELS[name]
        ce = make()
        assert all(ce.effects[k]._weights is not None for k in ce.outcomes)
        red = reduce_ce(ce)
        rep = check_assumptions(ce, red.nperp, red.output_algebra)
        monkeypatch.setattr(operators, "_is_diagonal", lambda K: False)
        ref_ce = make()
        assert all(ref_ce.effects[k]._weights is None for k in ref_ce.outcomes)
        ref = check_assumptions(ref_ce, red.nperp, red.output_algebra)
        for name in ("a1", "a2", "a3", "a4"):
            got, want = getattr(rep, name), getattr(ref, name)
            assert got.holds == want.holds
            assert abs(got.residual - want.residual) <= 1e-12 * max(want.residual, 1.0)


class TestMismatchedSplit:
    """Effects under other labels make another model, whose instrument is composed from that
    split: the paths that read the split's shared conjugation and those that read the
    instrument see the same model."""

    @pytest.fixture()
    def swapped(self):
        ce = ising_chain(4, 0.5, 0.3)
        effects = {"-1": ce.effects["-1"], "0": ce.effects["1"], "1": ce.effects["0"]}
        return ce, ConditionalEvolution(output=ce.output, evolution=ce.evolution, effects=effects)

    def test_reduce_ce(self, swapped):
        # the reduced maps conjugate the swapped instrument: outcome "0" of the reduction is
        # outcome "1" of the original's
        ce, other = swapped
        red, ref = reduce_ce(other), reduce_ce(ce)
        assert red.blocks == ref.blocks
        rho = random_density(ce.dim, np.random.default_rng(5))
        for k, j in (("-1", "-1"), ("0", "1"), ("1", "0")):
            got = red.model.instrument.maps[k](red.reduction_map(rho))
            want = red.reduction_map(ce.instrument.maps[j](rho))
            assert np.max(np.abs(got - want)) <= 1e-12

    def test_equivalence_check(self, swapped):
        ce, other = swapped
        assert equivalence_check(other, reduce_ce(other), max_len=3, n_states=3).passed
        assert not equivalence_check(ce, reduce_ce(other), max_len=2, n_states=3).passed

    def test_enumerate_distribution(self, swapped):
        # the realization, closed under the split's duals, against the composed instrument
        _, other = swapped
        rho0 = random_density(16, np.random.default_rng(6))
        table, oracle = enumerate_distribution(other, rho0, 3), enumerate_oracle(other, rho0, 3)
        assert list(table) == list(oracle)
        for seq, (p, y) in table.items():
            assert abs(p - oracle[seq][0]) <= 1e-12
            assert np.max(np.abs(y - oracle[seq][1])) <= 1e-12


class TestSeparable:
    def test_walk_effects_are_one_hot(self, walk4, walk4_red):
        sep = separately_reduced(walk4, walk4_red)
        Pbd = blockdiag_projector(walk4_red.factorization)
        for k in walk4.outcomes:
            K = sep.effects[k].matrix @ Pbd
            # each reduced effect keeps exactly one diagonal entry
            assert np.linalg.matrix_rank(K, tol=1e-9) == 1
        Esum = sum(sep.effects[k].matrix for k in walk4.outcomes) @ Pbd
        assert np.allclose(Esum, Pbd, atol=1e-9)

    def test_recomposition_matches_joint(self):
        ce = ising_chain(4, 0.5, 0.3)
        joint = reduce_ce(ce, seed=0)
        sep = separately_reduced(ce, joint)
        for k in ce.outcomes:
            dev = np.linalg.norm(sep.instrument.maps[k].matrix - joint.model.instrument.maps[k].matrix)
            assert dev <= 1e-8


def composed(fact, S):
    """Dense matrix of R o S o J from the composed Kraus products, (sum d_F)^2 per Kraus operator of S."""
    return (fact.R @ S @ fact.J).matrix


def commutant_twisted(ce, seed):
    """``ce`` with each Kraus list {K} replaced by {K, V K} / sqrt(2).

    V is a random unitary U ((+) 1_S otimes W_k) U^dag of the commutant of
    the output algebra, so every M_k^dag agrees with the original on the
    algebra: the observable subspace, the algebra and the blocks stay those
    of ``ce``, while every map carries two Kraus operators.
    """
    dec = reduce_ce(ce).factorization.decomposition
    V = np.zeros((ce.dim, ce.dim), dtype=complex)
    offs = dec.hilbert_offsets()
    for k, (dS, dF) in enumerate(dec.blocks):
        V[offs[k]:offs[k + 1], offs[k]:offs[k + 1]] = np.kron(np.eye(dS), haar_unitary(dF, seed + k))
    V = dec.U @ V @ dec.U.conj().T
    maps = {k: Superoperator(kraus=[K / np.sqrt(2) for K0 in S.kraus for K in (K0, V @ K0)])
            for k, S in ce.instrument.maps.items()}
    return ConditionalEvolution(instrument=Instrument(outcomes=ce.outcomes, maps=maps), output=ce.output)


MAP_MODELS = {
    "ising4-p0": lambda: ising_chain(4, 0.0, 0.3),
    "ising4-p0.5": lambda: ising_chain(4, 0.5, 0.3),
    "ising5-p0": lambda: ising_chain(5, 0.0, 0.3),
    "ising5-p0.5": lambda: ising_chain(5, 0.5, 0.3),
    "walk4": lambda: measured_quantum_walk(4, seed=7),
    "ising4-p0.5-two-kraus": lambda: commutant_twisted(ising_chain(4, 0.5, 0.3), seed=3),
}


class TestReducedMaps:
    """Reduced maps at their Choi rank, exact against the composed R o M_k o J."""

    @pytest.mark.parametrize("name", sorted(MAP_MODELS))
    def test_equal_to_composition(self, name):
        ce = MAP_MODELS[name]()
        red = reduce_ce(ce)
        for k in ce.outcomes:
            ref = composed(red.factorization, ce.instrument.maps[k])
            got = red.model.instrument.maps[k].matrix
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("name", ["ising4-p0", "ising4-p0.5", "ising5-p0", "ising5-p0.5", "walk4"])
    def test_observables_equal_to_adjoint_injection(self, name):
        ce = MAP_MODELS[name]()
        red = reduce_ce(ce)
        Jd = red.factorization.J.adjoint()
        for O, got in zip(ce.output.observables, red.model.output.observables):
            assert np.max(np.abs(got - Jd(O))) <= 1e-12

    def test_two_kraus_model_keeps_the_blocks(self):
        ce = ising_chain(4, 0.5, 0.3)
        twisted = MAP_MODELS["ising4-p0.5-two-kraus"]()
        assert all(len(S.kraus) == 2 for S in twisted.instrument.maps.values())
        assert validate_ce(twisted).ok
        assert reduce_ce(twisted).blocks == reduce_ce(ce).blocks

    @pytest.mark.parametrize("name", ["ising4-p0", "ising4-p0.5", "walk4"])
    def test_separable_maps_equal_to_composition(self, name):
        ce = MAP_MODELS[name]()
        red = reduce_ce(ce)
        model = separately_reduced(ce, red)
        pairs = [(model.evolution, ce.evolution)] + [(model.effects[k], ce.effects[k]) for k in ce.outcomes]
        for got, S in pairs:
            ref = composed(red.factorization, S)
            assert np.linalg.norm(got.matrix - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("N", [4, 5, 6, 7])
    @pytest.mark.parametrize("p", [0.0, 0.5])
    def test_kraus_count_is_choi_rank(self, N, p):
        # the rank cut is relative to tol: a cut near machine epsilon kept
        # 1e-14 singular values on some seeds, giving 4 to 6 operators
        ce = ising_chain(N, p, 0.3)
        want = 4 if p == 0 else 2
        for seed in range(5):
            red = reduce_ce(ce, seed=seed)
            assert [len(red.model.instrument.maps[k].kraus) for k in ce.outcomes] == [want] * len(ce.outcomes)
            cuts = red.provenance()["rank_cuts"]
            assert list(cuts) == list(ce.outcomes)
            for k in ce.outcomes:
                assert cuts[k]["kraus_ops"] == want
                assert cuts[k]["dropped_over_kept"] < 1e-10

    @pytest.mark.parametrize("N", [4, 5])
    @pytest.mark.parametrize("p", [0.0, 0.5])
    def test_apply_forms(self, N, p):
        # white box: the full maps apply through their Kraus operators and the
        # 8x8 reduced maps through their matrix, the faster form at each size
        ce = ising_chain(N, p, 0.3)
        red = reduce_ce(ce)
        assert red.model.dim == 8
        for k in ce.outcomes:
            assert ce.instrument.maps[k].form == "products"
            assert red.model.instrument.maps[k].form == "matrix"


def test_random_density_properties(rng):
    rho = random_density(4, rng)
    assert np.trace(rho) == pytest.approx(1.0)
    assert np.linalg.eigvalsh(rho)[0] > 0
