import dataclasses

import numpy as np
import pytest

from cereduce.model import (
    ConditionalEvolution,
    Instrument,
    OutputMap,
    validate_ce,
)
from cereduce.operators import Superoperator, unvec
from cereduce.reduction import random_density, reduce_ce
from cereduce.trajectories import sample_trajectory
from cereduce.zoo import ising_chain, measured_quantum_walk
from conftest import (
    SPLIT_MODELS,
    outputs,
    proj,
    random_ce,
    random_complex,
    separately_reduced,
    vec,
    with_output,
)
from test_trajectories import trajectory_probability


def projective_z_qubit(scale=1.0):
    maps = {
        "0": Superoperator(kraus=[np.sqrt(scale) * proj(2, 0)]),
        "1": Superoperator(kraus=[np.sqrt(scale) * proj(2, 1)]),
    }
    return ConditionalEvolution(
        instrument=Instrument(outcomes=("0", "1"), maps=maps),
        output=OutputMap(names=("identity",), observables=(np.eye(2, dtype=complex),)),
    )


def identity_ce(n=2):
    return ConditionalEvolution(
        instrument=Instrument(outcomes=("0",), maps={"0": Superoperator(kraus=[np.eye(n)])}),
        output=OutputMap(names=("identity",), observables=(np.eye(n, dtype=complex),)),
    )


PLUS = np.full((2, 2), 0.5, dtype=complex)


class TestValidate:
    def test_projective_measurement_passes(self):
        assert validate_ce(projective_z_qubit()).ok

    def test_scaled_instrument_fails_normalization(self):
        rep = validate_ce(projective_z_qubit(scale=0.5))
        assert not rep.ok
        assert rep.normalization_residual == pytest.approx(0.5 * np.sqrt(2))

    def test_ising_model_passes(self):
        assert validate_ce(ising_chain(4, 0.5, 0.3)).ok

    def test_missing_identity_flagged(self, paulis):
        ce = ConditionalEvolution(
            instrument=projective_z_qubit().instrument,
            output=OutputMap(names=("z",), observables=(paulis["z"],)),
        )
        rep = validate_ce(ce)
        assert not rep.identity_present and not rep.ok

    def test_matrix_only_non_cp_map_rejected(self):
        # the transpose is trace preserving and unital but not CP; its Choi
        # matrix is the swap, with eigenvalue -1, so it cannot enter a model
        swap = np.array([vec(M.T) for M in np.eye(4).reshape(4, 2, 2, order="F")]).T
        X = np.array([[1, 2j], [3, 4]])
        assert np.allclose(unvec(swap @ vec(X)), X.T)
        with pytest.raises(ValueError, match=r"smallest Choi eigenvalue -1\.000e\+00"):
            Superoperator(swap)

    def test_split_mismatch_rejected(self):
        # an instrument beside a split, whether the two match or not, is refused when built,
        # so no residual between them is left for validate_ce to report
        ce = ising_chain(4, 0.5, 0.3)
        swapped = {"-1": ce.effects["-1"], "0": ce.effects["1"], "1": ce.effects["0"]}
        for effects in (ce.effects, swapped):
            with pytest.raises(ValueError, match="either an instrument or a split .* not both"):
                ConditionalEvolution(instrument=ce.instrument, output=ce.output,
                                     evolution=ce.evolution, effects=effects)
        assert not hasattr(validate_ce(ce), "split_residual")


class TestMalformedLists:
    @pytest.mark.parametrize(
        "outcomes, match",
        [(("0", "0", "1"), "duplicate outcome labels"), ((), "at least one outcome")],
        ids=["duplicate", "empty"],
    )
    def test_instrument_rejects(self, outcomes, match):
        maps = {k: Superoperator(kraus=[proj(2, 0)]) for k in outcomes}
        with pytest.raises(ValueError, match=match):
            Instrument(outcomes=outcomes, maps=maps)

    def test_output_map_rejects_no_observables(self):
        with pytest.raises(ValueError, match="at least one observable"):
            OutputMap(names=(), observables=())


class TestStepUnnormalized:
    """One instrument step on an unnormalized state, M_k(rho)."""

    def test_identity_instrument(self, rng):
        ce = identity_ce()
        rho = random_density(2, rng)
        assert np.allclose(ce.instrument.maps["0"](rho), rho)

    def test_hadamard_walk_first_step(self):
        H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        with pytest.warns(UserWarning, match="non-generic"):
            ce = measured_quantum_walk(2, U=H)
        out = ce.instrument.maps["0"](proj(2, 0))
        assert np.allclose(out, PLUS)
        assert np.trace(out) == pytest.approx(1.0)

    def test_trace_summation_oracle(self, rng):
        ce = random_ce(3, 3, 2, rng)
        for _ in range(5):
            rho = random_density(3, rng)
            total = sum(np.trace(ce.instrument.maps[k](rho)).real for k in ce.outcomes)
            assert total == pytest.approx(np.trace(rho).real, abs=1e-12)


class TestCondition:
    """The filter step of sample_trajectory: the drawn outcome's probability and post-state."""

    def test_projective_certain_outcome(self):
        rec = sample_trajectory(projective_z_qubit(), proj(2, 0), 1, rng_seed=0)
        assert rec.outcomes == ("0",)
        assert rec.probabilities[0] == pytest.approx(1.0)
        assert np.allclose(rec.states[0], proj(2, 0))

    def test_born_rule_half(self):
        seen = set()
        for seed in range(16):
            rec = sample_trajectory(projective_z_qubit(), PLUS, 1, rng_seed=seed)
            assert rec.probabilities[0] == pytest.approx(0.5)
            assert np.allclose(rec.states[0], proj(2, int(rec.outcomes[0])))
            seen.add(rec.outcomes[0])
        assert seen == {"0", "1"}

    def test_impossible_outcome(self):
        for seed in range(200):
            rec = sample_trajectory(projective_z_qubit(), proj(2, 0), 3, rng_seed=seed)
            assert rec.outcomes == ("0",) * 3


POVM_MODELS = {
    "projective": projective_z_qubit,
    "projective-scaled": lambda: projective_z_qubit(scale=0.5),
    "identity": identity_ce,
    "random": lambda: random_ce(3, 3, 2, np.random.default_rng(0)),
    "walk4": lambda: measured_quantum_walk(4, seed=7),
    "ising4-p0.5": lambda: ising_chain(4, 0.5, 0.3),
    "ising4-p0.5-reduced": lambda: reduce_ce(ising_chain(4, 0.5, 0.3)).model,
}


class TestPOVM:
    @pytest.mark.parametrize("name", sorted(POVM_MODELS))
    def test_rows_give_outcome_probabilities(self, name):
        ce = POVM_MODELS[name]()
        rho = random_density(ce.dim, np.random.default_rng(1))
        want = np.array([np.trace(ce.instrument.maps[k](rho)).real for k in ce.outcomes])
        got = ce.instrument.povm() @ rho.reshape(-1)
        assert np.max(np.abs(got - want)) <= 1e-13
        assert not ce.instrument.povm().flags.writeable
        assert ce.instrument.povm() is ce.instrument.povm()

    @pytest.mark.parametrize("name", sorted(POVM_MODELS))
    def test_readout_gives_probabilities_then_outputs(self, name):
        ce = POVM_MODELS[name]()
        rho = random_density(ce.dim, np.random.default_rng(2))
        want = [np.trace(ce.instrument.maps[k](rho)) for k in ce.outcomes]
        want = np.concatenate([want, outputs(ce, rho)])
        assert np.max(np.abs(ce.readout() @ rho.reshape(-1) - want)) <= 1e-13
        assert not ce.readout().flags.writeable
        assert ce.readout() is ce.readout()

    @pytest.mark.parametrize("name", sorted(POVM_MODELS))
    def test_step_matrices_give_the_image_then_its_readout(self, name):
        ce = POVM_MODELS[name]()
        rho = random_density(ce.dim, np.random.default_rng(3))
        held = ce.step_matrices()
        assert held is ce.step_matrices() and len(held.steps) == len(ce.outcomes)
        size = len(held.support)
        assert (held.gather is None) == (size == ce.dim ** 2)
        x = rho.take(held.support)
        assert np.max(np.abs(held.readout @ x - ce.readout() @ rho.reshape(-1))) <= 1e-13
        for k, F in zip(ce.outcomes, held.steps):
            S = ce.instrument.maps[k]
            assert (F is None) == (S.form != "matrix")
            if F is None:
                continue
            image = S(rho)
            want = np.concatenate([image.reshape(-1), ce.readout() @ image.reshape(-1)])
            got = F @ x
            if held.gather is not None:
                # the I-entries, one zero, then the readout
                assert got[size] == 0 and F.shape == (size + 1 + len(ce.readout()), size)
                got = got[held.gather]
            assert np.max(np.abs(got - want)) <= 1e-13
        for a in (held.support, held.readout, held.gather, *held.steps):
            assert a is None or not a.flags.writeable

    @pytest.mark.parametrize("name", sorted(POVM_MODELS))
    def test_normalization_residual_matches_adjoint_sum(self, name):
        # the reference: every map's adjoint applied to the identity
        inst = POVM_MODELS[name]().instrument
        eye = np.eye(inst.dim, dtype=complex)
        want = np.linalg.norm(sum(inst.maps[k].adjoint()(eye) for k in inst.outcomes) - eye)
        assert inst.normalization_residual() == pytest.approx(want, rel=1e-12, abs=1e-14)


class TestTrajectoryProbability:
    """The joint-probability oracle of the trajectory tests."""

    def test_empty_sequence(self, rng):
        ce = random_ce(2, 2, 1, rng)
        assert trajectory_probability(ce, random_density(2, rng), []) == pytest.approx(1.0)

    def test_hadamard_walk(self):
        H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        with pytest.warns(UserWarning, match="non-generic"):
            ce = measured_quantum_walk(2, U=H)
        assert trajectory_probability(ce, proj(2, 0), ["0", "0"]) == pytest.approx(0.5)

    def test_exhaustive_length2_sum(self, rng):
        import itertools

        ce = random_ce(4, 4, 1, rng)
        rho0 = random_density(4, rng)
        total = sum(
            trajectory_probability(ce, rho0, seq)
            for seq in itertools.product(ce.outcomes, repeat=2)
        )
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_chain_rule(self, rng):
        ce = random_ce(2, 2, 1, rng)
        rho0 = random_density(2, rng)
        s1, s2 = ["0", "1"], ["1", "0"]
        p1 = trajectory_probability(ce, rho0, s1)
        rho_mid = rho0
        for k in s1:
            rho_mid = ce.instrument.maps[k](rho_mid)
        rho_mid = rho_mid / np.trace(rho_mid)
        assert trajectory_probability(ce, rho0, s1 + s2) == pytest.approx(
            p1 * trajectory_probability(ce, rho_mid, s2), rel=1e-10
        )


class TestOutputEval:
    """The output vector tr[O_j X] of the conditional evolution's output map."""

    def test_identity_only(self, rng):
        ce = identity_ce()
        assert outputs(ce, random_density(2, rng)) == pytest.approx([1.0])

    def test_sigma_z(self, paulis):
        ce = ConditionalEvolution(
            instrument=identity_ce().instrument,
            output=OutputMap(names=("identity", "z"), observables=(np.eye(2, dtype=complex), paulis["z"])),
        )
        assert outputs(ce, proj(2, 0)) == pytest.approx([1.0, 1.0])

    def test_scaling_linearity(self, paulis):
        ce = ConditionalEvolution(
            instrument=identity_ce().instrument,
            output=OutputMap(names=("identity", "x"), observables=(np.eye(2, dtype=complex), paulis["x"])),
        )
        assert outputs(ce, 0.3 * PLUS) == pytest.approx([0.3, 0.3])

    def test_one_product_matches_traces(self, rng):
        # neither Hermitian nor symmetric, so a transposed or conjugated row shows
        obs = tuple(random_complex(rng, (4, 4)) for _ in range(3))
        ce = with_output(random_ce(4, 2, 1, rng), OutputMap(names=("a", "b", "c"), observables=obs))
        X = random_complex(rng, (4, 4))
        expected = np.array([np.trace(O @ X) for O in obs])
        out = ce.readout()[len(ce.outcomes):]
        assert np.allclose(out @ X.reshape(-1), expected, rtol=1e-12, atol=0)
        # row j is O_j^T flattened row-major, bit for bit
        assert np.array_equal(out, [O.T.reshape(-1) for O in obs])

    def test_linearity_random_combinations(self, rng):
        ce = random_ce(3, 2, 3, rng)
        X = random_density(3, rng)
        Y = random_density(3, rng)
        a, b = 0.7, -1.3
        assert outputs(ce, a * X + b * Y) == pytest.approx(
            a * outputs(ce, X) + b * outputs(ce, Y)
        )


def test_positivity_propagation(rng):
    ce = random_ce(3, 2, 1, rng)
    rho = random_density(3, rng)
    for k in ce.outcomes:
        out = ce.instrument.maps[k](rho)
        assert np.linalg.eigvalsh((out + out.conj().T) / 2)[0] >= -1e-10


class TestSplitForm:
    """A model is given as an instrument or as a split, and a split model composes its instrument."""

    def test_neither_form_refused(self):
        with pytest.raises(ValueError, match="not neither"):
            ConditionalEvolution(output=ising_chain(4, 0.0, 0.3).output)

    def test_half_a_split_refused(self):
        ce = ising_chain(4, 0.0, 0.3)
        with pytest.raises(ValueError, match="both an evolution map and effects"):
            ConditionalEvolution(instrument=ce.instrument, output=ce.output, evolution=ce.evolution)

    def test_fields_by_keyword_only(self):
        ce = identity_ce()
        with pytest.raises(TypeError):
            ConditionalEvolution(ce.instrument, ce.output)

    def test_instrument_composed_once(self, monkeypatch):
        calls = []
        compose = Superoperator.compose
        monkeypatch.setattr(Superoperator, "compose", lambda S, T: (calls.append(1), compose(S, T))[1])
        ce = ising_chain(4, 0.5, 0.3)
        # one composition per outcome, when the model is built, then none
        assert len(calls) == len(ce.outcomes)
        assert validate_ce(ce).ok
        list(ce.dual_images()(np.eye(16)))
        ce.readout()
        assert len(calls) == len(ce.outcomes)

    @pytest.mark.parametrize("p", [0.0, 0.5])
    def test_split_instrument_is_evolution_after_effects(self, p):
        ce = ising_chain(4, p, 0.3)
        assert ce.outcomes == tuple(ce.effects)
        U = ce.evolution.kraus[0]
        for k in ce.outcomes:
            (M,), (K,) = ce.instrument.maps[k].kraus, ce.effects[k].kraus
            # bit for bit the composition, and U K to rounding
            assert M.tobytes() == (ce.evolution @ ce.effects[k]).kraus[0].tobytes()
            assert np.max(np.abs(M - U @ K)) <= 1e-15


class TestSharedDualImages:
    """[M_k^dag(X)]_k from one evolution conjugation and the effects' duals, on split models."""

    @pytest.fixture(params=[*sorted(SPLIT_MODELS), "separable_recomposed"])
    def split_ce(self, request):
        if request.param == "separable_recomposed":
            ce = ising_chain(4, 0.5, 0.3)
            return separately_reduced(ce, reduce_ce(ce))
        return SPLIT_MODELS[request.param]()

    @staticmethod
    def adjoint_images(ce, X):
        return [ce.instrument.maps[k].adjoint()(X) for k in ce.outcomes]

    @pytest.mark.parametrize("lead", [(), (3,)], ids=str)
    def test_equal_to_instrument_adjoints(self, split_ce, lead, rng):
        assert split_ce.has_split
        X = random_complex(rng, (*lead, split_ce.dim, split_ce.dim))
        got = list(split_ce.dual_images()(X))
        ref = self.adjoint_images(split_ce, X)
        assert len(got) == len(ref) == len(split_ce.outcomes)
        for Y, Yref in zip(got, ref):
            assert Y.shape == X.shape
            assert np.linalg.norm(Y - Yref) <= 1e-12 * max(np.linalg.norm(Yref), 1.0)

    def test_one_shared_conjugation(self, monkeypatch, rng):
        # white box: one apply of the evolution's dual, then one elementwise apply per outcome
        ce = ising_chain(4, 0.5, 0.3)
        images = ce.dual_images()
        calls = []
        apply = Superoperator.__call__
        monkeypatch.setattr(Superoperator, "__call__",
                            lambda S, X: (calls.append(S), apply(S, X))[1])
        X = random_complex(rng, (16, 16))
        it = images(X)
        assert len(calls) == 1 and calls[0]._weights is None
        list(it)
        assert len(calls) == 1 + len(ce.outcomes)
        assert all(S._weights is not None for S in calls[1:])

    def test_images_are_a_sequence_formed_when_read(self, monkeypatch, rng):
        # its length needs no apply, and each item read applies one effect's dual
        ce = ising_chain(4, 0.5, 0.3)
        images = ce.dual_images()
        calls = []
        apply = Superoperator.__call__
        monkeypatch.setattr(Superoperator, "__call__", lambda S, X: (calls.append(S), apply(S, X))[1])
        seq = images(random_complex(rng, (2, 16, 16)))
        assert len(seq) == len(ce.outcomes) and len(calls) == 1
        assert seq[1].shape == (2, 16, 16) and len(calls) == 2
        with pytest.raises(IndexError):
            seq[len(ce.outcomes)]

    def test_without_split_applies_instrument_adjoints(self, rng):
        ce = random_ce(3, 3, 2, rng)
        X = random_complex(rng, (2, 3, 3))
        for Y, Yref in zip(ce.dual_images()(X), self.adjoint_images(ce, X), strict=True):
            assert np.array_equal(Y, Yref)

    def test_mismatched_split_refused(self):
        # replace() hands the composed instrument back beside the new split, so a split
        # cannot be swapped under a model's instrument
        ce = ising_chain(4, 0.5, 0.3)
        swapped = {"-1": ce.effects["-1"], "0": ce.effects["1"], "1": ce.effects["0"]}
        with pytest.raises(ValueError, match="not both"):
            dataclasses.replace(ce, effects=swapped)
