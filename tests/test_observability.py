import itertools
import math
import tracemalloc

import numpy as np
import pytest

from cereduce import algebra, observability, operators
from cereduce.model import ConditionalEvolution, Instrument, OutputMap
from cereduce.observability import (
    REALIZATION_TOL,
    check_invariance,
    linear_reduce,
    nonobservable_complement,
)
from cereduce.operators import OperatorSubspace, Superoperator, closure, hermitian_closure
from cereduce.reduction import random_density, reduce_ce
from cereduce.zoo import ising_chain, measured_quantum_walk
from conftest import (
    REALIZATION_MODELS,
    SPLIT_MODELS,
    contains,
    hs_inner,
    linear_reduce_oracle,
    outputs,
    proj,
    propagate,
    random_ce,
    random_complex,
    residual,
    vec,
)


@pytest.fixture(scope="module")
def walk4():
    return measured_quantum_walk(4, seed=7)


@pytest.fixture(scope="module")
def ising0():
    return ising_chain(4, 0.0, 0.3)


class TestNonobservableComplement:
    def test_walk_spans_site_projectors(self, walk4):
        sub = nonobservable_complement(walk4)
        assert sub.dim == 4
        for j in range(4):
            assert residual(sub, proj(4, j)) < 1e-9

    def test_identity_instrument_dim1(self):
        ce = ConditionalEvolution(
            instrument=Instrument(outcomes=("0",), maps={"0": Superoperator(kraus=[np.eye(3)])}),
            output=OutputMap(names=("identity",), observables=(np.eye(3, dtype=complex),)),
        )
        assert nonobservable_complement(ce).dim == 1

    def test_ising_p0_dim12(self, ising0):
        assert nonobservable_complement(ising0).dim == 12

    def test_contains_identity(self, walk4):
        sub = nonobservable_complement(walk4)
        assert contains(sub, np.eye(4, dtype=complex))

    def test_tolerance_stability(self, walk4):
        assert (
            nonobservable_complement(walk4, 1e-9).dim
            == nonobservable_complement(walk4, 1e-10).dim
        )


def word_rank(ce, tol=1e-9):
    """Rank of the vec'd dual images of the observables under every word up to length n^2."""
    duals = [ce.instrument.maps[k].adjoint().matrix for k in ce.outcomes]
    level = np.array([vec(O) for O in ce.output.observables])
    rows = [level]
    for _ in range(ce.dim**2):
        level = np.concatenate([level @ D.T for D in duals])
        rows.append(level)
    s = np.linalg.svd(np.concatenate(rows), compute_uv=False)
    return int(np.sum(s > tol * s[0]))


class TestClosureMargins:
    """Both sides of every closure's rank decision: the smallest kept and largest dropped residual."""

    @pytest.mark.parametrize("name", sorted(SPLIT_MODELS))
    def test_kept_above_dropped_on_every_closure(self, name, monkeypatch):
        # nperp, the orbits of the block search, and both realizations verify builds
        subs = []

        def recording(*args, **kwargs):
            subs.append(closure(*args, **kwargs))
            return subs[-1]

        monkeypatch.setattr(operators, "closure", recording)
        monkeypatch.setattr(algebra, "closure", recording)
        ce = SPLIT_MODELS[name]()
        red = reduce_ce(ce)
        linear_reduce(ce), linear_reduce(red.model)
        assert len(subs) >= 4
        assert all(sub.dropped < sub.kept < math.inf for sub in subs)

    @pytest.mark.parametrize("p", [0.0, 0.5])
    def test_wide_margin_at_the_default_coupling(self, p):
        sub = nonobservable_complement(ising_chain(5, p, 0.3))
        assert sub.kept > 1e10 * sub.dropped

    def test_narrow_margin_near_the_exceptional_coupling(self):
        # at delta = pi/2 - 1e-6 a direction of size 2e-6 is kept over a dropped one near 1e-9
        sub = nonobservable_complement(ising_chain(5, 0.0, math.pi / 2 - 1e-6))
        assert sub.dropped > 0 and sub.kept / sub.dropped < 1e5


class TestWordRankOracle:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_ce(self, seed):
        rng = np.random.default_rng(seed)
        ce = random_ce(int(rng.integers(2, 4)), 2, int(rng.integers(1, 4)), rng)
        assert word_rank(ce) == nonobservable_complement(ce).dim

    def test_random_ce_with_multiplicity(self):
        # K (x) 1_2 and O (x) 1_2 keep the orbit inside B(C^2) (x) 1_2
        small = random_ce(2, 2, 2, np.random.default_rng(7))
        one = np.eye(2)
        ce = ConditionalEvolution(
            instrument=Instrument(
                outcomes=small.outcomes,
                maps={
                    k: Superoperator(kraus=[np.kron(K, one) for K in small.instrument.maps[k].kraus])
                    for k in small.outcomes
                },
            ),
            output=OutputMap(
                names=small.output.names,
                observables=tuple(np.kron(O, one) for O in small.output.observables),
            ),
        )
        assert word_rank(ce) == nonobservable_complement(ce).dim == 4


class TestCheckInvariance:
    def test_closure_is_invariant_by_construction(self, walk4):
        sub = nonobservable_complement(walk4)
        for k in walk4.outcomes:
            assert check_invariance(sub, walk4.instrument.maps[k], dual=True) < 1e-9

    def test_walk_effects_leave_diagonal_invariant(self, walk4):
        sub = closure([proj(4, j) for j in range(4)])
        for k in walk4.outcomes:
            assert check_invariance(sub, walk4.effects[k]) < 1e-12

    def test_hadamard_moves_sigma_x(self, paulis):
        H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        sub = closure([paulis["x"]])
        S = Superoperator(kraus=[H])
        # H sigma_x H = sigma_z, orthogonal to the (normalized) basis
        assert check_invariance(sub, S) == pytest.approx(1.0)

    @pytest.mark.parametrize("dual", [False, True])
    @pytest.mark.parametrize("dim", [1, 4, 8])  # 1, n^2 / 2 and n^2 - 1 for n = 3
    def test_matches_per_element_oracle(self, rng, dual, dim):
        n = 3
        S = Superoperator(kraus=[random_complex(rng, (n, n)) for _ in range(2)])
        sub = closure([random_complex(rng, (n, n)) for _ in range(dim)])
        assert sub.dim == dim
        op = S.adjoint() if dual else S
        # the largest leak of a unit element: the spectral norm of the per-element residuals
        offs = []
        for B in sub.basis:
            Y = op(B)
            offs.append((Y - sum(hs_inner(C, Y) * C for C in sub.basis)).reshape(-1))
        expected = np.linalg.norm(np.array(offs).T, 2)
        assert expected > 1e-3
        assert check_invariance(sub, S, dual=dual) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("dual", [False, True])
    @pytest.mark.parametrize("dim", [4, 8])
    def test_independent_of_the_basis(self, rng, dual, dim):
        # a random unitary mixing of an orthonormal basis spans the same subspace
        n = 3
        S = Superoperator(kraus=[random_complex(rng, (n, n)) for _ in range(2)])
        sub = closure([random_complex(rng, (n, n)) for _ in range(dim)])
        V = np.linalg.qr(random_complex(rng, (dim, dim)))[0]
        mixed = OperatorSubspace(n, np.tensordot(V, sub.basis, 1))
        assert check_invariance(mixed, S, dual=dual) == pytest.approx(
            check_invariance(sub, S, dual=dual), abs=1e-12)

    @pytest.mark.parametrize("dual", [False, True])
    def test_empty_subspace(self, rng, dual):
        S = Superoperator(kraus=[random_complex(rng, (3, 3))])
        assert check_invariance(OperatorSubspace(3, ()), S, dual=dual) == 0.0


class TestLinearReduce:
    def test_matrices_match_explicit_inner_products(self, rng):
        ce = random_ce(3, 2, 2, rng)
        # a non-Hermitian observable separates tr(O B) from <O, B>
        obs = (*ce.output.observables, random_complex(rng, (3, 3)))
        ce = ConditionalEvolution(
            instrument=ce.instrument,
            output=OutputMap(names=(*ce.output.names, "nonherm"), observables=obs),
        )
        lm = linear_reduce(ce)
        basis = lm.subspace.basis
        for k in ce.outcomes:
            M = ce.instrument.maps[k]
            A = [[hs_inner(Bi, M(Bj)) for Bj in basis] for Bi in basis]
            assert np.allclose(lm.A[k], A, atol=1e-12)
        C = [[np.trace(O @ B) for B in basis] for O in obs]
        assert np.allclose(lm.C, C, atol=1e-12)

    def test_walk_transition_matrix(self, walk4):
        from cereduce.zoo import walk_markov_oracle

        lm = linear_reduce(walk4)
        assert lm.q == 4
        P = walk_markov_oracle(walk4.evolution.kraus[0])
        Asum = sum(lm.A.values())
        # one-step transition agrees with the Markov oracle up to basis choice
        ev_a = np.linalg.eigvals(Asum)
        ev_p = list(np.linalg.eigvals(P))
        for lam in ev_a:
            j = int(np.argmin(np.abs(np.array(ev_p) - lam)))
            assert abs(ev_p.pop(j) - lam) < 1e-9
        assert np.allclose(np.ones(4) @ P, np.ones(4))

    def test_identity_ce(self):
        ce = ConditionalEvolution(
            instrument=Instrument(outcomes=("0",), maps={"0": Superoperator(kraus=[np.eye(2)])}),
            output=OutputMap(names=("identity",), observables=(np.eye(2, dtype=complex),)),
        )
        lm = linear_reduce(ce)
        assert lm.q == 1
        assert np.allclose(lm.A["0"], [[1.0]])
        assert np.allclose(np.abs(lm.C), [[np.sqrt(2)]])  # identity against 1/sqrt(2) basis

    def test_ising_p0_equivalence(self, ising0, rng):
        lm = linear_reduce(ising0)
        assert lm.q == 12
        for _ in range(10):
            rho0 = random_density(16, rng)
            for seq in itertools.product(ising0.outcomes, repeat=3):
                rho = rho0
                for k in seq:
                    rho = ising0.instrument.maps[k](rho)
                assert np.max(np.abs(outputs(ising0, rho) - propagate(lm, rho0, seq))) < 1e-8

    def test_minimality_observable_pair(self):
        # stacked observability matrix over words up to length q-1 has rank q
        ce = measured_quantum_walk(3, seed=1)
        lm = linear_reduce(ce)
        rows = [lm.C]
        frontier = [np.eye(lm.q, dtype=complex)]
        for _ in range(lm.q - 1):
            nxt = []
            for W in frontier:
                for k in ce.outcomes:
                    prod = lm.A[k] @ W
                    rows.append(lm.C @ prod)
                    nxt.append(prod)
            frontier = nxt
        O = np.vstack(rows)
        assert np.linalg.matrix_rank(O, tol=1e-9) == lm.q

    @pytest.mark.parametrize("name", ["ising4_p0.5", "walk4", "random"])
    def test_built_once_and_kept_on_the_model(self, name, monkeypatch):
        ce = REALIZATION_MODELS[name]()
        lm = linear_reduce(ce)
        monkeypatch.setattr(observability, "hermitian_closure", None)
        assert linear_reduce(ce) is lm


class TestLinearReduceMatchesSchroedinger:
    """A_k read off the real coordinates of the closure's dual images, against M_k applied to
    the realization's basis; C against tr(O B) summed entrywise."""

    @staticmethod
    def assert_matches(ce):
        lm = linear_reduce(ce)
        A, C = linear_reduce_oracle(ce, lm.subspace)
        assert list(lm.A) == list(A) == list(ce.outcomes)
        for k in ce.outcomes:
            assert lm.A[k].dtype == np.float64
            assert np.max(np.abs(lm.A[k] - A[k])) <= 1e-13 * np.max(np.abs(A[k]))
        assert np.max(np.abs(lm.C - C)) <= 1e-13 * np.max(np.abs(C))

    @pytest.mark.parametrize("name", sorted(REALIZATION_MODELS))
    def test_zoo(self, name):
        self.assert_matches(REALIZATION_MODELS[name]())

    @pytest.mark.parametrize("name", sorted(SPLIT_MODELS))
    def test_zoo_without_split(self, name):
        ce = SPLIT_MODELS[name]()
        self.assert_matches(ConditionalEvolution(instrument=ce.instrument, output=ce.output))

    def test_split_reduced_model(self):
        from cereduce.reduction import reduce_separably

        red = reduce_separably(measured_quantum_walk(4, seed=7)).recomposed
        assert red.model.has_split
        self.assert_matches(red.model)

    def test_random_ce(self, rng):
        for _ in range(3):
            self.assert_matches(random_ce(3, 3, 2, rng))

    def test_split_model_conjugates_once_per_generation(self, monkeypatch):
        # white box: each generation is one apply of the evolution's dual to its whole stack,
        # then one elementwise apply of each effect's dual to that stack
        ce = ising_chain(4, 0.5, 0.3)
        calls = []
        apply = Superoperator.__call__
        monkeypatch.setattr(Superoperator, "__call__",
                            lambda S, X: (calls.append((S, np.shape(X))), apply(S, X))[1])
        lm = linear_reduce(ce)
        m = len(ce.outcomes)
        generations = [calls[i:i + m + 1] for i in range(0, len(calls), m + 1)]
        assert [S._weights is None for S, _ in calls] == ([True] + [False] * m) * len(generations)
        assert all(len({shape for _, shape in g}) == 1 for g in generations)
        assert sum(g[0][1][0] for g in generations) == lm.q

    @pytest.mark.parametrize("name", ["ising5_p0.5", "walk4", "random"])
    def test_each_element_goes_through_the_duals_once(self, name, monkeypatch):
        ce = REALIZATION_MODELS[name]()
        stacked = []
        dual_images = ConditionalEvolution.dual_images

        def counted(model):
            images = dual_images(model)
            return lambda X: (stacked.append(len(X)), images(X))[1]

        monkeypatch.setattr(ConditionalEvolution, "dual_images", counted)
        lm = linear_reduce(ce)
        assert sum(stacked) == lm.q

    def test_ising_n7_keeps_at_most_the_images(self):
        # beyond its closure's own peak, the realization holds the closure's images, q m n^2
        # floats, and reads A and C off them with no second pass through the duals
        ce = ising_chain(7, 0.5, 0.3)
        generators = [np.eye(ce.dim, dtype=complex), *ce.output.observables]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            hermitian_closure(generators, ce.dual_images(), REALIZATION_TOL)
            closure_peak = tracemalloc.get_traced_memory()[1] - base
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            lm = linear_reduce(ce)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert lm.q == 18
        assert peak - closure_peak <= lm.q * len(ce.outcomes) * ce.dim**2 * 8
