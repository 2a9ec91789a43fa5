import itertools
from collections import Counter

import numpy as np
import pytest

from cereduce.model import ConditionalEvolution, Instrument, OutputMap
from cereduce.operators import Superoperator, superop_from_kraus
from cereduce.reduction import random_density, reduce_ce
from cereduce.trajectories import (
    StateEscapedError,
    _numpy_sum,
    enumerate_distribution,
    sample_trajectory,
    total_variation,
)
from cereduce.zoo import ising_chain, measured_quantum_walk
from conftest import proj, random_ce

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def projective_z_qubit():
    maps = {
        "0": superop_from_kraus([proj(2, 0)]),
        "1": superop_from_kraus([proj(2, 1)]),
    }
    return ConditionalEvolution(
        instrument=Instrument(outcomes=("0", "1"), maps=maps),
        output=OutputMap(names=("identity",), observables=(np.eye(2, dtype=complex),)),
    )


def non_hermitian_outputs_ce(rng):
    """random_ce on C^3 with two outcomes, its observables replaced by random non-Hermitian ones."""
    ce = random_ce(3, 2, 1, rng)
    obs = (np.eye(3, dtype=complex), *(rng.normal(size=(2, 3, 3)) + 1j * rng.normal(size=(2, 3, 3))))
    return ConditionalEvolution(ce.instrument, OutputMap(names=("identity", "a", "b"), observables=obs))


def trajectory_probability(ce, rho0, seq):
    """Joint probability of an outcome word: the trace of rho0 propagated along it."""
    rho = np.asarray(rho0, dtype=complex)
    for k in seq:
        rho = ce.instrument.map_for(k)(rho)
    return float(np.trace(rho).real)


class TestSampleTrajectory:
    def test_zeno_freeze(self):
        ce = projective_z_qubit()
        rec = sample_trajectory(ce, proj(2, 0), 6, rng_seed=0)
        assert rec.outcomes == ("0",) * 6
        assert rec.probabilities == (1.0,) * 6
        for rho in rec.states:
            assert np.allclose(rho, proj(2, 0))
        assert rec.joint_probability == pytest.approx(1.0)
        assert rec.clamped_steps == ()

    def test_seed_determinism(self, rng):
        ce = random_ce(3, 3, 2, rng)
        rho0 = random_density(3, rng)
        a = sample_trajectory(ce, rho0, 5, rng_seed=42)
        b = sample_trajectory(ce, rho0, 5, rng_seed=42)
        assert a.outcomes == b.outcomes
        assert a.probabilities == b.probabilities

    def test_joint_probability_matches_model(self, rng):
        ce = random_ce(3, 2, 1, rng)
        rho0 = random_density(3, rng)
        rec = sample_trajectory(ce, rho0, 4, rng_seed=11)
        assert rec.joint_probability == pytest.approx(
            trajectory_probability(ce, rho0, rec.outcomes), rel=1e-10
        )

    def test_hadamard_frequency(self):
        ce = measured_quantum_walk(2, U=HADAMARD, check_generic=False)
        rng = np.random.default_rng(2024)
        rho0 = np.eye(2, dtype=complex) / 2
        hits = sum(
            sample_trajectory(ce, rho0, 1, rng_seed=rng).outcomes[0] == "0"
            for _ in range(4000)
        )
        # true rate 0.5; 3 sigma over 4000 samples is 0.024
        assert abs(hits / 4000 - 0.5) < 0.025

    def test_requires_positive_length(self):
        with pytest.raises(ValueError):
            sample_trajectory(projective_z_qubit(), proj(2, 0), 0, rng_seed=0)

    def test_escaped_state(self):
        Z = np.zeros((2, 2), dtype=complex)
        ce = ConditionalEvolution(
            instrument=Instrument(outcomes=("0",), maps={"0": superop_from_kraus([Z])}),
            output=OutputMap(names=("identity",), observables=(np.eye(2, dtype=complex),)),
        )
        with pytest.raises(StateEscapedError):
            sample_trajectory(ce, proj(2, 0), 1, rng_seed=0)

    def test_non_finite_probabilities_refused(self):
        K = proj(2, 0)
        K[0, 0] = np.nan
        ce = ConditionalEvolution(
            instrument=Instrument(outcomes=("0", "1"), maps={
                "0": superop_from_kraus([K]), "1": superop_from_kraus([proj(2, 1)])}),
            output=OutputMap(names=("identity",), observables=(np.eye(2, dtype=complex),)),
        )
        with pytest.raises(ValueError, match="not finite at step 0"):
            sample_trajectory(ce, np.eye(2) / 2, 1, rng_seed=0)

    def test_negative_probability_clamped_and_recorded(self):
        # tr[E_1 rho0] = -0.2: outcome 1 gets probability 0, outcome 0 keeps its 1.2
        rho0 = np.diag([1.2, -0.2]).astype(complex)
        for seed in range(200):
            rec = sample_trajectory(projective_z_qubit(), rho0, 3, rng_seed=seed)
            assert rec.clamped_steps == (0,)
            assert rec.outcomes == ("0",) * 3
            assert rec.probabilities[0] == pytest.approx(1.2, rel=1e-15)
            assert np.allclose(rec.states[0], proj(2, 0))

    def test_roundoff_negative_probability_clipped_not_recorded(self):
        rho0 = np.diag([1 + 1e-12, -1e-12]).astype(complex)
        for seed in range(200):
            rec = sample_trajectory(projective_z_qubit(), rho0, 3, rng_seed=seed)
            assert rec.clamped_steps == ()
            assert rec.outcomes == ("0",) * 3


def oracle_trajectory(ce, rho0, T, seed):
    """Outcomes, probabilities and states drawn by applying every outcome's map.

    The probabilities are the primal traces tr[M_k(rho)] and the draw is
    ``rng.choice`` on them: the reference sample_trajectory must reproduce
    draw for draw.
    """
    rng = np.random.default_rng(seed)
    rho = np.asarray(rho0, dtype=complex)
    outcomes, probs, states = [], [], []
    for _ in range(T):
        branch = [ce.instrument.maps[k](rho) for k in ce.outcomes]
        p = np.clip([np.trace(b).real for b in branch], 0.0, None)
        idx = int(rng.choice(len(p), p=p / p.sum()))
        rho = branch[idx] / p[idx]
        outcomes.append(ce.outcomes[idx])
        probs.append(p[idx])
        states.append(rho)
    return tuple(outcomes), np.array(probs), states


def _ising4(reduced):
    ce = ising_chain(4, 0.5, 0.3)
    rho0 = np.eye(16, dtype=complex) / 16
    if not reduced:
        return ce, rho0
    red = reduce_ce(ce)
    return red.model, red.reduction_map(rho0)


DRAW_MODELS = {
    "random-3-3-2": lambda: (random_ce(3, 3, 2, np.random.default_rng(5)),
                             random_density(3, np.random.default_rng(6))),
    "ising4-full": lambda: _ising4(reduced=False),
    "ising4-reduced": lambda: _ising4(reduced=True),
    # ten outcomes: numpy sums the probabilities pairwise
    "walk10": lambda: (measured_quantum_walk(10, seed=0), np.eye(10, dtype=complex) / 10),
}


@pytest.mark.parametrize("name", sorted(DRAW_MODELS))
def test_draws_match_the_every_branch_oracle(name):
    ce, rho0 = DRAW_MODELS[name]()
    for seed in range(50):
        rec = sample_trajectory(ce, rho0, 8, rng_seed=seed)
        outcomes, probs, states = oracle_trajectory(ce, rho0, 8, seed)
        assert rec.outcomes == outcomes
        assert np.max(np.abs(np.array(rec.probabilities) - probs) / probs) <= 1e-12
        for got, want, y in zip(rec.states, states, rec.outputs):
            assert np.max(np.abs(got - want)) <= 1e-12
            assert abs(np.trace(got) - 1) <= 1e-12
            assert np.max(np.abs(y - ce.output(got))) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 15, 16, 17, 100, 128, 129, 300])
def test_mass_is_numpy_sum_bit_for_bit(n):
    # the draw divides by the mass as Generator.choice divides by p.sum()
    rng = np.random.default_rng(n)
    for _ in range(50):
        p = rng.random(n) * 10.0 ** rng.integers(-12, 3, n)
        assert _numpy_sum(p.tolist()) == p.sum()


class TestEnumerate:
    def test_probabilities_sum_to_one(self, rng):
        ce = random_ce(3, 3, 2, rng)
        rho0 = random_density(3, rng)
        for T in (1, 2, 3):
            table = enumerate_distribution(ce, rho0, T)
            assert len(table) == 3**T
            assert sum(p for p, _ in table.values()) == pytest.approx(1.0, abs=1e-10)

    def test_matches_trajectory_probability(self, rng):
        ce = random_ce(2, 2, 1, rng)
        rho0 = random_density(2, rng)
        table = enumerate_distribution(ce, rho0, 3)
        for seq in itertools.product(ce.outcomes, repeat=3):
            assert table[seq][0] == pytest.approx(
                trajectory_probability(ce, rho0, seq), abs=1e-12
            )

    @pytest.mark.parametrize("T", [1, 2, 3])
    def test_key_order_and_words_match_per_word_propagation(self, T):
        ce = measured_quantum_walk(3, seed=1)
        rho0 = random_density(3, np.random.default_rng(T))
        table = enumerate_distribution(ce, rho0, T)
        assert list(table) == list(itertools.product(ce.outcomes, repeat=T))
        for seq, (p, y) in table.items():
            rho = rho0
            for k in seq:
                rho = ce.instrument.maps[k](rho)
            assert p == pytest.approx(trajectory_probability(ce, rho0, seq), abs=1e-13)
            assert np.max(np.abs(y - ce.output(rho))) <= 1e-13

    @pytest.mark.parametrize("T", [1, 2, 3])
    @pytest.mark.parametrize("make", [
        pytest.param(lambda: ising_chain(4, 0.5, 0.3), id="ising4_split"),
        pytest.param(lambda: non_hermitian_outputs_ce(np.random.default_rng(5)), id="non_hermitian"),
    ])
    def test_read_off_matches_per_word_propagation(self, make, T):
        # a transposed or conjugated pull-back of a non-Hermitian observable shows in its output
        ce = make()
        rho0 = random_density(ce.dim, np.random.default_rng(T))
        table = enumerate_distribution(ce, rho0, T)
        assert list(table) == list(itertools.product(ce.outcomes, repeat=T))
        for seq, (p, y) in table.items():
            rho = rho0
            for k in seq:
                rho = ce.instrument.maps[k](rho)
            assert abs(p - np.trace(rho).real) <= 1e-13
            assert np.max(np.abs(y - ce.output(rho))) <= 1e-13

    @pytest.mark.parametrize("T", [1, 2, 3])
    def test_last_level_applies_no_map(self, T, monkeypatch):
        ce = measured_quantum_walk(3, seed=1)
        maps = set(map(id, ce.instrument.maps.values()))
        applied = []  # the number of operators of each call of an instrument map
        real = Superoperator.__call__

        def counting(self, X):
            if id(self) in maps:
                applied.append(1 if np.ndim(X) == 2 else len(X))
            return real(self, X)

        monkeypatch.setattr(Superoperator, "__call__", counting)
        enumerate_distribution(ce, random_density(3, np.random.default_rng(0)), T)
        # the states of depths 1..T-1 are applied to, the leaves at depth T are read off
        assert sum(applied) == sum(3**t for t in range(1, T))

    def test_empty_word(self):
        ce = measured_quantum_walk(3, seed=1)
        rho0 = 2 * random_density(3, np.random.default_rng(0))
        table = enumerate_distribution(ce, rho0, 0)
        assert list(table) == [()]
        p, y = table[()]
        assert p == pytest.approx(2.0, abs=1e-14)
        assert np.max(np.abs(y - ce.output(rho0))) <= 1e-14

    def test_cap_enforced(self, monkeypatch):
        ce = projective_z_qubit()

        def refuse(*args, **kwargs):
            raise AssertionError("a stack was allocated before the cap was checked")

        # 2^20 words exceed WORD_CAP = 10^6: refused before the first level is stacked
        monkeypatch.setattr(np, "empty", refuse)
        with pytest.raises(ValueError, match="WORD_CAP"):
            enumerate_distribution(ce, proj(2, 0), 20)

    def test_full_vs_reduced_distribution(self):
        ce = measured_quantum_walk(4, seed=7)
        red = reduce_ce(ce, seed=0)
        rho0 = np.eye(4, dtype=complex) / 4
        full_table = enumerate_distribution(ce, rho0, 3)
        red_table = enumerate_distribution(red.model, red.reduction_map(rho0), 3)
        assert total_variation(full_table, red_table) < 1e-10


class TestTotalVariation:
    def test_identical_tables(self, rng):
        ce = random_ce(2, 2, 1, rng)
        table = enumerate_distribution(ce, random_density(2, rng), 2)
        assert total_variation(table, table) == 0.0

    def test_mismatched_keys_rejected(self):
        with pytest.raises(ValueError):
            total_variation({("0",): (1.0, None)}, {("1",): (1.0, None)})

    def test_known_value(self):
        a = {("0",): (0.7, None), ("1",): (0.3, None)}
        b = {("0",): (0.5, None), ("1",): (0.5, None)}
        assert total_variation(a, b) == pytest.approx(0.2)


def test_sampler_consistent_with_enumeration():
    ce = measured_quantum_walk(3, seed=1)
    rho0 = np.eye(3, dtype=complex) / 3
    table = enumerate_distribution(ce, rho0, 2)
    rng = np.random.default_rng(7)
    counts = Counter(
        sample_trajectory(ce, rho0, 2, rng_seed=rng).outcomes for _ in range(3000)
    )
    empirical = {seq: (counts[seq] / 3000, None) for seq in table}
    assert total_variation(table, empirical) < 0.03
