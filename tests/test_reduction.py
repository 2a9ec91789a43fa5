import numpy as np
import pytest

from cereduce.model import ConditionalEvolution, Instrument, OutputMap, validate_ce
from cereduce.operators import Superoperator, channel_checks, superop_from_kraus
from cereduce.reduction import (
    check_assumptions,
    equivalence_check,
    random_ce,
    random_density,
    reduce_ce,
    reduce_separably,
)
from cereduce.zoo import ising_chain, measured_quantum_walk, walk_markov_oracle


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
            instrument=Instrument(outcomes=("0",), maps={"0": superop_from_kraus([np.eye(3)])}),
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
        broken_maps = dict(walk4_red.model.instrument.maps)
        k_bad = walk4.outcomes[1]
        broken_maps[k_bad] = Superoperator(np.zeros_like(broken_maps[k_bad].matrix))
        broken = ConditionalEvolution(
            instrument=Instrument(outcomes=walk4.outcomes, maps=broken_maps),
            output=walk4_red.model.output,
        )

        class Fake:
            model = broken
            reduction_map = walk4_red.reduction_map

        rep = equivalence_check(walk4, Fake(), max_len=2, n_states=3, tol=1e-8, seed=0)
        assert not rep.passed
        assert k_bad in rep.worst_case[1]

    def test_trivial_identity_reduction(self):
        ce = ConditionalEvolution(
            instrument=Instrument(outcomes=("0",), maps={"0": superop_from_kraus([np.eye(2)])}),
            output=OutputMap(names=("identity",), observables=(np.eye(2, dtype=complex),)),
        )
        rep = equivalence_check(ce, reduce_ce(ce), max_len=3, n_states=5, tol=1e-8)
        assert rep.max_dev <= 1e-14

    def test_sampled_mode(self, walk4, walk4_red):
        rep = equivalence_check(
            walk4, walk4_red, max_len=4, n_states=2, tol=1e-8, seed=3, sample_cap=50
        )
        assert rep.sampled and rep.passed

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
        assert linear_reduce(full, red.nperp).q == red.nperp.dim
        # white box: the dense form is cached on first read of .matrix
        assert all(S._matrix is None for S in maps)

    def test_sampled_words_are_plain_str(self):
        ce = measured_quantum_walk(3, seed=1)
        rep = equivalence_check(ce, reduce_ce(ce), max_len=4, n_states=2, sample_cap=20)
        assert rep.sampled and rep.worst_case[1]
        assert all(type(k) is str for k in rep.worst_case[1])


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
        # A2 is the dual invariance of nperp: max_i ||(1 - P) E^dag(B_i)|| over its basis
        images = ce.evolution.matrix.conj().T @ red.nperp.stacked().T
        off = images - red.nperp.projector_matrix() @ images
        assert rep.a2.residual == pytest.approx(np.max(np.linalg.norm(off, axis=0)), abs=1e-12)
        assert not rep.a2.holds and rep.a2.residual == pytest.approx(0.5646424733950358, abs=1e-9)
        assert rep.a3.holds and rep.a3.residual <= 1e-12
        assert not rep.a4.holds and rep.a4.residual == pytest.approx(0.5646424733950358, abs=1e-9)

    def test_walk_a3(self, walk4, walk4_red):
        rep = check_assumptions(walk4, walk4_red.nperp, walk4_red.output_algebra)
        assert rep.a3.holds

    def test_requires_split(self, rng):
        ce = random_ce(2, 2, 1, rng)
        red = reduce_ce(ce)
        with pytest.raises(ValueError):
            check_assumptions(ce, red.nperp, red.output_algebra)


class TestSeparable:
    def test_walk_effects_are_one_hot(self, walk4):
        sep = reduce_separably(walk4, seed=0)
        fact = sep.recomposed.factorization
        Pbd = fact.blockdiag_projector()
        for k in walk4.outcomes:
            K = sep.effects[k].matrix @ Pbd
            # each reduced effect keeps exactly one diagonal entry
            assert np.linalg.matrix_rank(K, tol=1e-9) == 1
        Esum = sum(sep.effects[k].matrix for k in walk4.outcomes) @ Pbd
        assert np.allclose(Esum, Pbd, atol=1e-9)

    def test_recomposition_matches_joint(self):
        ce = ising_chain(4, 0.5, 0.3)
        joint = reduce_ce(ce, seed=0)
        sep = reduce_separably(ce, seed=0)
        for k in ce.outcomes:
            dev = np.linalg.norm(
                sep.recomposed.model.instrument.maps[k].matrix
                - joint.model.instrument.maps[k].matrix
            )
            assert dev <= 1e-8

    def test_refusal_when_no_assumption_holds(self, walk4, monkeypatch):
        import cereduce.reduction as reduction_mod

        class AllFalse:
            any_holds = False

        monkeypatch.setattr(
            reduction_mod, "check_assumptions", lambda *a, **k: AllFalse()
        )
        with pytest.raises(ValueError) as exc_info:
            reduce_separably(walk4, seed=0)
        assert exc_info.value.report is not None


def test_random_density_properties(rng):
    rho = random_density(4, rng)
    assert np.trace(rho) == pytest.approx(1.0)
    assert np.linalg.eigvalsh(rho)[0] > 0
