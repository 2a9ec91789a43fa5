import dataclasses
import itertools
import re
from bisect import bisect_right
from collections import Counter

import numpy as np
import pytest

from cereduce import observability, trajectories
from cereduce.model import ConditionalEvolution, Instrument, OutputMap
from cereduce.operators import Superoperator, hermitian_closure
from cereduce.observability import REALIZATION_TOL
from cereduce.reduction import equivalence_check, random_density, reduce_ce
from cereduce.trajectories import (
    StateEscapedError,
    _numpy_sum,
    WORD_CAP,
    enumerate_distribution,
    sample_trajectory,
    table_nodes,
    total_variation,
)
from cereduce.zoo import ising_chain, measured_quantum_walk
from conftest import (
    REALIZATION_MODELS,
    SPLIT_MODELS,
    enumerate_oracle,
    outputs,
    proj,
    random_ce,
    random_complex,
    swap3_ce,
)

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def projective_z_qubit():
    maps = {
        "0": Superoperator(kraus=[proj(2, 0)]),
        "1": Superoperator(kraus=[proj(2, 1)]),
    }
    return ConditionalEvolution(
        instrument=Instrument(outcomes=("0", "1"), maps=maps),
        output=OutputMap(names=("identity",), observables=(np.eye(2, dtype=complex),)),
    )


def non_hermitian_outputs_ce(rng):
    """random_ce on C^3 with two outcomes, its observables replaced by random non-Hermitian ones."""
    ce = random_ce(3, 2, 1, rng)
    obs = (np.eye(3, dtype=complex), *(rng.normal(size=(2, 3, 3)) + 1j * rng.normal(size=(2, 3, 3))))
    return ConditionalEvolution(instrument=ce.instrument,
                                output=OutputMap(names=("identity", "a", "b"), observables=obs))


def trajectory_probability(ce, rho0, seq):
    """Joint probability of an outcome word: the trace of rho0 propagated along it."""
    rho = np.asarray(rho0, dtype=complex)
    for k in seq:
        rho = ce.instrument.maps[k](rho)
    return float(np.trace(rho).real)


class TestSampleTrajectory:
    def test_zeno_freeze(self):
        ce = projective_z_qubit()
        rec = sample_trajectory(ce, proj(2, 0), 6, rng_seed=0)
        assert rec.outcomes == ("0",) * 6
        assert rec.probabilities == (1.0,) * 6
        for rho in rec.states:
            assert np.allclose(rho, proj(2, 0))
        assert np.prod(rec.probabilities) == pytest.approx(1.0)
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
        assert np.prod(rec.probabilities) == pytest.approx(
            trajectory_probability(ce, rho0, rec.outcomes), rel=1e-10
        )

    def test_hadamard_frequency(self):
        with pytest.warns(UserWarning, match="non-generic"):
            ce = measured_quantum_walk(2, U=HADAMARD)
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
            instrument=Instrument(outcomes=("0",), maps={"0": Superoperator(kraus=[Z])}),
            output=OutputMap(names=("identity",), observables=(np.eye(2, dtype=complex),)),
        )
        with pytest.raises(StateEscapedError):
            sample_trajectory(ce, proj(2, 0), 1, rng_seed=0)

    def test_non_finite_probabilities_refused(self):
        K = proj(2, 0)
        K[0, 0] = np.nan
        ce = ConditionalEvolution(
            instrument=Instrument(outcomes=("0", "1"), maps={
                "0": Superoperator(kraus=[K]), "1": Superoperator(kraus=[proj(2, 1)])}),
            output=OutputMap(names=("identity",), observables=(np.eye(2, dtype=complex),)),
        )
        with pytest.raises(ValueError, match="not finite at step 0"):
            sample_trajectory(ce, np.eye(2) / 2, 1, rng_seed=0)

    @pytest.mark.parametrize("pos", [1, 2])
    def test_nan_after_the_first_outcome_refused(self, pos):
        # min skips a NaN that follows a finite value; the sum does not
        kraus = [proj(3, i) for i in range(3)]
        kraus[pos][pos, pos] = np.nan
        ce = ConditionalEvolution(
            instrument=Instrument(outcomes=("0", "1", "2"), maps={
                str(i): Superoperator(kraus=[K]) for i, K in enumerate(kraus)}),
            output=OutputMap(names=("identity",), observables=(np.eye(3, dtype=complex),)),
        )
        with pytest.raises(ValueError, match="not finite at step 0"):
            sample_trajectory(ce, np.eye(3) / 3, 1, rng_seed=0)

    def test_probabilities_whose_sum_overflows_refused(self):
        # tr[E_k rho0] = 1e308 * 1.5 for each outcome: finite, and their sum is not
        ce = ConditionalEvolution(
            instrument=Instrument(outcomes=("0", "1"), maps={
                str(i): Superoperator(kraus=[1e154 * proj(2, i)]) for i in range(2)}),
            output=OutputMap(names=("identity",), observables=(np.eye(2, dtype=complex),)),
        )
        with pytest.raises(ValueError, match="overflow in their sum at step 0"):
            sample_trajectory(ce, 1.5 * np.eye(2), 1, rng_seed=0)

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


def _mixed(ce, reduced=False):
    """The model and its maximally mixed state, or its reduced model and R of that state."""
    rho0 = np.eye(ce.dim, dtype=complex) / ce.dim
    if not reduced:
        return ce, rho0
    red = reduce_ce(ce)
    return red.model, red.reduction_map(rho0)


DRAW_MODELS = {
    "random-3-3-2": lambda: (random_ce(3, 3, 2, np.random.default_rng(5)),
                             random_density(3, np.random.default_rng(6))),
    "ising4-full": lambda: _mixed(ising_chain(4, 0.5, 0.3)),
    "ising4-reduced": lambda: _mixed(ising_chain(4, 0.5, 0.3), reduced=True),
    # 4 Kraus operators per reduced map
    "ising4-p0-reduced": lambda: _mixed(ising_chain(4, 0.0, 0.3), reduced=True),
    "ising5-reduced": lambda: _mixed(ising_chain(5, 0.5, 0.3), reduced=True),
    # ten outcomes: numpy sums the probabilities pairwise
    "walk10": lambda: _mixed(measured_quantum_walk(10, seed=0)),
    "walk5-reduced": lambda: _mixed(measured_quantum_walk(5, seed=0), reduced=True),
    # one elementwise outcome and one that steps through its matrix
    "swap3": lambda: _mixed(swap3_ce()),
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
            assert np.max(np.abs(y - outputs(ce, got))) <= 1e-12


def matmul_map(S, X):
    """S(X) with the products form's products through @, [K_1 ... K_r] @ stack_i(X K_i^dag)."""
    if S.form != "products":
        return S(X)
    r, n = len(S.kraus), S.in_dim
    Y = (X @ np.hstack([K.conj().T for K in S.kraus])).reshape(n, r, S.out_dim)
    return np.hstack(S.kraus) @ Y.swapaxes(0, 1).reshape(r * n, S.out_dim)


def dense_steps(ce):
    """Per outcome its whole step matrix [A_k; readout A_k] on all n^2 entries, with
    A_k = conj(M_k.matrix), or None for a map that does not apply through its matrix."""
    readout = ce.readout()
    steps = []
    for k in ce.outcomes:
        S = ce.instrument.maps[k]
        A = S.matrix.conj() if S.form == "matrix" else None
        steps.append(None if A is None else np.vstack([A, readout @ A]))
    return steps


def matmul_trajectory(ce, rho0, T, seed):
    """sample_trajectory's loop with every product through @ on a fresh ravel, each step
    matrix whole, and the draw through itertools.accumulate and bisect_right, as it read
    before the loop was trimmed."""
    rng = np.random.default_rng(seed)
    rho = np.asarray(rho0, dtype=complex)
    maps = [ce.instrument.maps[k] for k in ce.outcomes]
    readout, steps = ce.readout(), dense_steps(ce)
    m, n = len(maps), ce.dim
    q = readout @ rho.ravel()
    outcomes, probs, states, outputs = [], [], [], []
    for u in rng.random(T).tolist():
        p = [max(x, 0.0) for x in q[:m].real.tolist()]
        mass = _numpy_sum(p)
        cdf = list(itertools.accumulate(x / mass for x in p))
        last = cdf[-1]
        idx = bisect_right([c / last for c in cdf], u)
        pk = p[idx]
        F = steps[idx]
        if F is None:
            rho = matmul_map(maps[idx], rho)
            rho *= 1.0 / pk
            q = readout @ rho.ravel()
        else:
            q = F @ rho.ravel()
            q *= 1.0 / pk
            rho = q[:n * n].reshape(n, n)
            q = q[n * n:]
        outcomes.append(ce.outcomes[idx])
        probs.append(pk)
        states.append(rho)
        outputs.append(q[m:])
    return tuple(outcomes), tuple(probs), states, outputs


@pytest.mark.parametrize("layout", ["as-built", "C", "F"])
@pytest.mark.parametrize("name", sorted(DRAW_MODELS))
def test_records_are_bit_identical_to_the_matmul_loop(name, layout):
    ce, rho0 = DRAW_MODELS[name]()
    if layout == "C":
        rho0 = np.ascontiguousarray(rho0)
    elif layout == "F":
        rho0 = np.asfortranarray(rho0)
        assert rho0.flags.f_contiguous
    for seed in range(20):
        rec = sample_trajectory(ce, rho0, 12, rng_seed=seed)
        outcomes, probs, states, outputs = matmul_trajectory(ce, rho0, 12, seed)
        assert rec.outcomes == outcomes and rec.probabilities == probs
        assert [x.tobytes() for x in rec.states] == [x.tobytes() for x in states]
        assert [y.tobytes() for y in rec.outputs] == [y.tobytes() for y in outputs]


def block_positions(blocks):
    """The row-major entries of the diagonal d_S x d_S squares of a reduced model's blocks."""
    D = sum(dS for dS, _ in blocks)
    mask = np.zeros((D, D), dtype=bool)
    start = 0
    for dS, _ in blocks:
        mask[start:start + dS, start:start + dS] = True
        start += dS
    return np.flatnonzero(mask)


@pytest.mark.parametrize("make", [
    *(pytest.param(lambda N=N, p=p: ising_chain(N, p, 0.3), id=f"ising{N}-p{p}")
      for N in (4, 5, 6, 7) for p in (0.0, 0.5)),
    *(pytest.param(lambda n=n: measured_quantum_walk(n, seed=0), id=f"walk{n}") for n in range(3, 11)),
])
def test_reduced_steps_act_on_the_output_algebra(make):
    # the support is the block positions, dim A of the D^2 entries: 16 (p = 0) or 32
    # (p = 0.5) for Ising at any N, and the n diagonal entries for a walk
    red = reduce_ce(make())
    held = red.model.step_matrices()
    size, D, r = len(held.support), red.model.dim, len(red.model.readout())
    assert size == red.output_algebra.dim < D * D
    assert np.array_equal(held.support, block_positions(red.blocks))
    if all(dS == 1 for dS, _ in red.blocks):
        assert size == D
    assert held.readout.shape == (r, size)
    assert all(F.shape == (size + 1 + r, size) for F in held.steps)


# reduced models whose support is part of the D^2 entries
SUPPORT_MODELS = ["ising4-reduced", "ising4-p0-reduced", "ising5-reduced", "walk5-reduced"]


def outside_support(ce, rng):
    """A Hermitian operator with random entries outside the support of ce's steps, zero on it."""
    D = ce.dim
    X = random_complex(rng, (D, D))
    X = X + X.conj().T
    X.reshape(-1)[ce.step_matrices().support] = 0
    assert np.count_nonzero(X)
    return X


@pytest.mark.parametrize("name", SUPPORT_MODELS)
def test_entries_outside_the_support_are_never_read(name):
    # the whole step matrices' columns outside I are zero, so the dense oracle reads them
    # and still gives the bytes of a start state without them
    ce, rho0 = DRAW_MODELS[name]()
    noisy = rho0 + outside_support(ce, np.random.default_rng(7))
    for seed in range(20):
        rec = sample_trajectory(ce, noisy, 12, rng_seed=seed)
        clean = sample_trajectory(ce, rho0, 12, rng_seed=seed)
        outcomes, probs, states, outputs = matmul_trajectory(ce, noisy, 12, seed)
        for other in ((clean.outcomes, clean.probabilities, clean.states, clean.outputs),
                      (outcomes, probs, states, outputs)):
            assert rec.outcomes == other[0] and rec.probabilities == other[1]
            assert [x.tobytes() for x in rec.states] == [x.tobytes() for x in other[2]]
            assert [y.tobytes() for y in rec.outputs] == [y.tobytes() for y in other[3]]


@pytest.mark.parametrize("name", SUPPORT_MODELS)
def test_nan_outside_the_support_leaves_the_record_finite(name):
    # the whole step matrices would spread it: 0 * NaN is NaN
    ce, rho0 = DRAW_MODELS[name]()
    outside = outside_support(ce, np.random.default_rng(8)) != 0
    bad = np.where(outside, np.nan, rho0)
    for seed in range(10):
        rec = sample_trajectory(ce, bad, 12, rng_seed=seed)
        clean = sample_trajectory(ce, rho0, 12, rng_seed=seed)
        assert all(np.isfinite(x).all() for x in rec.states + rec.outputs)
        assert rec.outcomes == clean.outcomes and rec.probabilities == clean.probabilities
        assert [x.tobytes() for x in rec.states] == [x.tobytes() for x in clean.states]


@pytest.mark.parametrize("name", sorted(DRAW_MODELS))
def test_a_step_keeps_alive_only_its_own_state_and_readout(name):
    # a state and its outputs may share one buffer of n^2 + r entries, the step's, but no
    # array of a record holds more, so that a record holds no whole-record buffer
    ce, rho0 = DRAW_MODELS[name]()
    step_size = ce.dim ** 2 + len(ce.readout())
    rec = sample_trajectory(ce, rho0, 30, rng_seed=4)
    for a in rec.states + rec.outputs:
        assert a.base is None or a.base.size <= step_size


class FixedUniforms(np.random.Generator):
    """A Generator whose ``random(T)`` returns the first T of the given uniforms."""

    def __init__(self, uniforms):
        super().__init__(np.random.PCG64(0))
        self.uniforms = uniforms

    def random(self, size=None):
        return np.array(self.uniforms[:size])


@pytest.mark.parametrize("name", ["ising4-full", "walk10", "random-3-3-2"])
@pytest.mark.parametrize("scale", [1.0, 0.3, 7.0])
def test_draw_at_every_boundary_is_generator_choice(name, scale):
    # Generator.choice's own arithmetic: cumsum of p / p.sum(), divided by its last entry,
    # searched from the right; u on, just below and just above each boundary
    ce, rho0 = DRAW_MODELS[name]()
    rho0 = scale * rho0
    p = np.maximum((ce.readout() @ rho0.reshape(-1)).real[:len(ce.outcomes)], 0.0)
    cdf = np.cumsum(p / p.sum())
    cdf /= cdf[-1]
    for c in cdf[:-1]:
        for u in (np.nextafter(c, 0.0), c, np.nextafter(c, 1.0)):
            rec = sample_trajectory(ce, rho0, 1, FixedUniforms([float(u)]))
            assert rec.outcomes == (ce.outcomes[cdf.searchsorted(u, side="right")],)


def test_reduced_start_states_are_fortran_ordered():
    # R(1/n) applies through R's matrix, so the bit-identity above covers an F-ordered start
    for name in ("ising4-reduced", "ising5-reduced", "walk5-reduced"):
        _, rho0 = DRAW_MODELS[name]()
        assert rho0.flags.f_contiguous and not rho0.flags.c_contiguous


def divided_step_trajectory(ce, rho0, T, seed):
    """sample_trajectory stepping every outcome as maps[k](rho) / p_k, then one readout product."""
    rng = np.random.default_rng(seed)
    maps = [ce.instrument.maps[k] for k in ce.outcomes]
    readout, m = ce.readout(), len(ce.outcomes)
    rho = np.asarray(rho0, dtype=complex)
    q = readout @ rho.reshape(-1)
    outcomes, probs, states, outputs = [], [], [], []
    for _ in range(T):
        p = [max(x, 0.0) for x in q.real[:m].tolist()]
        mass = _numpy_sum(p)
        cdf = list(itertools.accumulate(x / mass for x in p))
        idx = bisect_right([c / cdf[-1] for c in cdf], rng.random())
        rho = maps[idx](rho) / p[idx]
        q = readout @ rho.reshape(-1)
        outcomes.append(ce.outcomes[idx])
        probs.append(p[idx])
        states.append(rho)
        outputs.append(q[m:])
    return tuple(outcomes), tuple(probs), states, outputs


@pytest.mark.parametrize("make", [
    pytest.param(lambda: ising_chain(4, 0.5, 0.3), id="ising4"),
    pytest.param(lambda: ising_chain(5, 0.5, 0.3), id="ising5"),
    pytest.param(lambda: measured_quantum_walk(10, seed=0), id="walk10"),
])
def test_products_form_records_are_bit_identical_to_the_divided_step(make):
    ce, rho0 = _mixed(make())
    assert {S.form for S in ce.instrument.maps.values()} == {"products"}
    held = ce.step_matrices()
    assert held.steps == (None,) * len(ce.outcomes) and held.gather is None
    for seed in range(20):
        rec = sample_trajectory(ce, rho0, 8, rng_seed=seed)
        outcomes, probs, states, outputs = divided_step_trajectory(ce, rho0, 8, seed)
        assert rec.outcomes == outcomes and rec.probabilities == probs
        assert [x.tobytes() for x in rec.states] == [x.tobytes() for x in states]
        assert [y.tobytes() for y in rec.outputs] == [y.tobytes() for y in outputs]


@pytest.mark.parametrize("p", [0.0, 0.5])
@pytest.mark.parametrize("N", [5, 6])
def test_full_and_reduced_records_agree_from_a_pure_state(N, p):
    # from 1/n every sigma output is at most 2.2e-15, so only a start state that polarizes
    # the first qubit lets the outputs, read on the full maps' supports, show a difference
    ce = ising_chain(N, p, 0.3)
    red = reduce_ce(ce)
    rho0 = np.zeros((ce.dim, ce.dim), dtype=complex)
    rho0[0, 0] = 1.0
    tau0 = red.reduction_map(rho0)
    largest = 0.0
    for seed in range(50):
        full = sample_trajectory(ce, rho0, 20, rng_seed=seed)
        reduced = sample_trajectory(red.model, tau0, 20, rng_seed=seed)
        assert full.outcomes == reduced.outcomes
        assert np.max(np.abs(np.subtract(full.probabilities, reduced.probabilities))) <= 1e-12
        assert np.max(np.abs(np.subtract(full.outputs, reduced.outputs))) <= 1e-12
        # column 0 is the identity's output, 1 at every step
        largest = max(largest, float(np.max(np.abs(np.array(full.outputs)[:, 1:]))))
    assert largest > 1e-2


def test_step_matrices_are_built_once(monkeypatch):
    ce, rho0 = DRAW_MODELS["swap3"]()
    first = sample_trajectory(ce, rho0, 6, rng_seed=1)
    steps = ce.step_matrices()
    assert steps.steps[0] is None and steps.steps[1].shape == (9 + 2 + 2, 9)

    def refuse(*args, **kwargs):
        raise AssertionError("a second call built a step matrix")

    monkeypatch.setattr(np, "vstack", refuse)
    monkeypatch.setattr(Superoperator, "matrix", property(refuse))
    again = sample_trajectory(ce, rho0, 6, rng_seed=1)
    assert again.outcomes == first.outcomes and again.probabilities == first.probabilities
    assert ce.step_matrices() is steps


@pytest.mark.parametrize("name", ["ising4-full", "ising4-reduced", "swap3", "random-3-3-2"])
def test_rho0_untouched_and_states_do_not_share_memory(name):
    ce, rho0 = DRAW_MODELS[name]()
    rho0 = rho0.copy()
    kept = rho0.copy()
    rho0.flags.writeable = False
    rec = sample_trajectory(ce, rho0, 8, rng_seed=3)
    assert np.array_equal(rho0, kept)
    for a, b in itertools.combinations([rho0, *rec.states], 2):
        assert not np.shares_memory(a, b)
    for state, y in zip(rec.states, rec.outputs):
        assert not np.shares_memory(state, y)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 15, 16, 17, 100, 128, 129, 300])
def test_mass_is_numpy_sum_bit_for_bit(n):
    # the draw divides by the mass as Generator.choice divides by p.sum()
    rng = np.random.default_rng(n)
    for _ in range(50):
        p = rng.random(n) * 10.0 ** rng.integers(-12, 3, n)
        assert _numpy_sum(p.tolist()) == p.sum()


def shift_ce(n, bad, diagonal, d):
    """Three outcomes on C^n, and rho0 = diag(d) padded with zeros.

    Outcome "a" moves the diagonal one place down, rho[i + 1, i + 1] <- rho[i, i],
    through the cyclic shift, whose effect is 1; outcome ``bad`` ("b" or "c") has one
    diagonal Kraus operator, its entries ``diagonal`` by index and 0 elsewhere, and the
    other outcome the zero operator.  d puts no weight where ``bad`` reads at step 0,
    so step 0 draws "a" for certain and step 1 reads the shifted d.
    """
    shift = np.roll(np.eye(n, dtype=complex), 1, axis=0)
    K = np.zeros((n, n), dtype=complex)
    for i, x in diagonal.items():
        K[i, i] = x
    maps = {"a": Superoperator(kraus=[shift]), "b": Superoperator(kraus=[np.zeros((n, n))]),
            "c": Superoperator(kraus=[np.zeros((n, n))])}
    maps[bad] = Superoperator(kraus=[K])
    ce = ConditionalEvolution(
        instrument=Instrument(outcomes=("a", "b", "c"), maps=maps),
        output=OutputMap(names=("identity",), observables=(np.eye(n, dtype=complex),)),
    )
    assert maps["a"].form == ("matrix" if n == 5 else "products")
    rho0 = np.zeros((n, n), dtype=complex)
    rho0[range(len(d)), range(len(d))] = d
    return ce, rho0


# step 1 reads 1e308 * 2 for the bad outcome, +inf, and 1 for "a".  A NaN there would need
# inf - inf from finite entries, which a fused multiply-add in BLAS turns into +inf; the
# NaN cases after the first outcome are at step 0, in TestSampleTrajectory
INF_AT_STEP_1 = ({1: 1e154}, [2, 0, -1])


@pytest.mark.parametrize("n", [5, 9], ids=["matrix-form", "products-form"])
@pytest.mark.parametrize("bad", ["b", "c"])
def test_infinite_probability_after_step_0_refused(bad, n):
    ce, rho0 = shift_ce(n, bad, *INF_AT_STEP_1)
    rho1 = np.diag(np.roll(np.diag(rho0), 1))
    with np.errstate(over="ignore", invalid="ignore"):
        p = (ce.readout() @ rho1.reshape(-1)).real[:3]
        assert p[0] == 1.0 and p["abc".index(bad)] == np.inf
        with pytest.raises(ValueError, match="not finite at step 1"):
            sample_trajectory(ce, rho0, 3, rng_seed=0)


@pytest.mark.parametrize("n", [5, 9], ids=["matrix-form", "products-form"])
@pytest.mark.parametrize("bad", ["b", "c"])
def test_negative_probability_after_step_0_clamped_and_recorded(bad, n):
    # step 1 reads -1 for the bad outcome, and 1 for "a"
    ce, rho0 = shift_ce(n, bad, {1: 1.0}, [-1, 0, 2])
    for seed in range(20):
        rec = sample_trajectory(ce, rho0, 2, rng_seed=seed)
        assert rec.clamped_steps == (1,)
        assert rec.outcomes == ("a", "a") and rec.probabilities == (1.0, 1.0)


@pytest.mark.parametrize("raises", [False, True], ids=["returns", "raises"])
def test_a_call_takes_T_draws_from_the_passed_generator(raises):
    T = 8
    ref = np.random.default_rng(5)
    singles = [ref.random() for _ in range(T + 1)]
    assert np.random.default_rng(5).random(T).tolist() == singles[:T]
    rng = np.random.default_rng(5)
    if raises:
        # step 1 refuses its probabilities, after one of the T draws was used
        ce, rho0 = shift_ce(5, "b", *INF_AT_STEP_1)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="step 1"):
            sample_trajectory(ce, rho0, T, rng)
    else:
        ce, rho0 = DRAW_MODELS["ising4-full"]()
        sample_trajectory(ce, rho0, T, rng)
    assert rng.random() == singles[T]


def wrong_start_shapes(n):
    """Start states of every shape but (n, n), among them ones of n^2 entries."""
    return [(n * n,), (2, n * n // 2), (1, n * n), (n + 1, n + 1), (1, n, n)]


# one model whose outcomes step through their maps' Kraus products, one through step matrices
@pytest.mark.parametrize("name", ["ising4-full", "ising4-reduced"])
def test_sampling_refuses_a_start_state_of_the_wrong_shape_with_no_draw(name):
    ce, rho0 = DRAW_MODELS[name]()
    assert {F is None for F in ce.step_matrices().steps} == {name.endswith("full")}
    n = ce.dim
    for shape in wrong_start_shapes(n):
        bad = np.resize(rho0, shape)
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError, match=re.escape(f"shape {shape}")):
            sample_trajectory(ce, bad, 4, rng)
        assert rng.random() == np.random.default_rng(5).random()


@pytest.mark.parametrize("reduced", [False, True], ids=["full", "reduced"])
def test_enumeration_refuses_a_start_state_of_the_wrong_shape_before_any_closure(
        reduced, monkeypatch):
    ce, rho0 = _mixed(ising_chain(4, 0.5, 0.3), reduced)

    def refuse(*args):
        raise AssertionError("the realization was built")

    monkeypatch.setattr(trajectories, "linear_reduce", refuse)
    for shape in wrong_start_shapes(ce.dim):
        with pytest.raises(ValueError, match=re.escape(f"shape {shape}")):
            enumerate_distribution(ce, np.resize(rho0, shape), 2)


def enumerate_through_a_second_pass(ce, rho0, T):
    """The table of ``enumerate_distribution`` with each A_k read off a second pass of the
    realization's basis B through the duals, as conj(M_k^dag(B)) B^T in complex arithmetic,
    and C off the model's readout: the table before A_k was read off the closure's images."""
    generators = [np.eye(ce.dim, dtype=complex), *ce.output.observables]
    span = hermitian_closure(generators, ce.dual_images(), REALIZATION_TOL)
    Q, q, r = span.stacked(), span.dim, len(ce.outcomes)
    A = np.concatenate([Y.conj().reshape(q, -1) @ Q.T for Y in ce.dual_images()(span.basis)])
    C = ce.readout()[r:] @ Q.T
    x = Q.conj() @ np.asarray(rho0, dtype=complex).reshape(-1, 1)
    for _ in range(T - 1):
        x = (A @ x).reshape(r, q, -1).transpose(1, 2, 0).reshape(q, -1)
    read = np.vstack([np.trace(span.basis, axis1=1, axis2=2), C])
    table = (read @ A.reshape(r, q, q) @ x).transpose(2, 0, 1).reshape(-1, len(read))
    words = itertools.product(ce.outcomes, repeat=T)
    return {seq: (float(row[0].real), row[1:]) for seq, row in zip(words, table)}


class TestEnumerate:
    @pytest.mark.parametrize("name", sorted(REALIZATION_MODELS))
    def test_matches_a_second_pass_through_the_duals(self, name):
        ce = REALIZATION_MODELS[name]()
        rho0 = random_density(ce.dim, np.random.default_rng(ce.dim))
        table, ref = enumerate_distribution(ce, rho0, 4), enumerate_through_a_second_pass(ce, rho0, 4)
        assert list(table) == list(ref)
        for seq, (p, y) in table.items():
            assert abs(p - ref[seq][0]) <= 1e-14
            assert np.max(np.abs(y - ref[seq][1])) <= 1e-14

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
            assert np.max(np.abs(y - outputs(ce, rho))) <= 1e-13

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
            assert np.max(np.abs(y - outputs(ce, rho))) <= 1e-13

    @pytest.mark.parametrize("make", [
        *(pytest.param(make, id=name) for name, make in SPLIT_MODELS.items()),
        pytest.param(lambda: random_ce(4, 3, 3, np.random.default_rng(8)), id="random"),
    ])
    def test_matches_operator_space_oracle(self, make):
        ce = make()
        rho0 = random_density(ce.dim, np.random.default_rng(ce.dim))
        for T in range(5):
            table, oracle = enumerate_distribution(ce, rho0, T), enumerate_oracle(ce, rho0, T)
            assert list(table) == list(oracle)
            for seq, (p, y) in table.items():
                assert abs(p - oracle[seq][0]) <= 1e-13
                assert np.max(np.abs(y - oracle[seq][1])) <= 1e-13

    @pytest.mark.parametrize("reversed_outcomes", [False, True], ids=["same_order", "reduced_reversed"])
    def test_verify_closes_each_realization_once_and_applies_no_map(self, monkeypatch, reversed_outcomes):
        # the check and both tables, as `verify --tv` runs them on one loaded pair
        ce = ising_chain(4, 0.5, 0.3)
        red = reduce_ce(ce)
        if reversed_outcomes:
            # a reduced file that declares its outcomes in another order is closed once too
            order = ce.outcomes[::-1]
            red = dataclasses.replace(red, model=dataclasses.replace(
                red.model, instrument=Instrument(order, red.model.instrument.maps)))
            assert red.model.outcomes != ce.outcomes
        forward = {id(S) for model in (ce, red.model)
                   for S in (*model.instrument.maps.values(), model.evolution, *(model.effects or {}).values())}
        applied, closed = [], []
        call, closure = Superoperator.__call__, observability.hermitian_closure
        monkeypatch.setattr(Superoperator, "__call__", lambda S, X: (applied.append(id(S) in forward), call(S, X))[1])
        monkeypatch.setattr(observability, "hermitian_closure", lambda *a: (closed.append(a), closure(*a))[1])
        assert equivalence_check(ce, red, max_len=2, n_states=2).passed
        rho0 = random_density(ce.dim, np.random.default_rng(0))
        tv = total_variation(enumerate_distribution(ce, rho0, 3),
                             enumerate_distribution(red.model, red.reduction_map(rho0), 3))
        assert tv <= 1e-12
        assert applied and not any(applied)
        assert len(closed) == 2

    def test_empty_word(self):
        ce = measured_quantum_walk(3, seed=1)
        rho0 = 2 * random_density(3, np.random.default_rng(0))
        table = enumerate_distribution(ce, rho0, 0)
        assert list(table) == [()]
        p, y = table[()]
        assert p == pytest.approx(2.0, abs=1e-14)
        assert np.max(np.abs(y - outputs(ce, rho0))) <= 1e-14

    def test_cap_enforced(self, monkeypatch):
        ce = projective_z_qubit()

        def refuse(*args, **kwargs):
            raise AssertionError("a stack was allocated before the cap was checked")

        # 2^20 words exceed WORD_CAP = 10^6: refused before the first level is stacked
        monkeypatch.setattr(np, "empty", refuse)
        with pytest.raises(ValueError, match="WORD_CAP"):
            enumerate_distribution(ce, proj(2, 0), 20)

    def test_one_outcome_tree_above_word_cap_refused(self, monkeypatch):
        # one outcome: a tree of T + 1 nodes, counted level by level, so a long table is
        # refused before its realization is closed
        ce = ConditionalEvolution(
            instrument=Instrument(outcomes=("0",), maps={"0": Superoperator(kraus=[np.eye(2)])}),
            output=OutputMap(names=("identity",), observables=(np.eye(2, dtype=complex),)),
        )

        def refuse(*args, **kwargs):
            raise AssertionError("a closure ran before the node count was checked")

        monkeypatch.setattr(observability, "hermitian_closure", refuse)
        with pytest.raises(ValueError, match=f"more than WORD_CAP = {WORD_CAP} nodes"):
            enumerate_distribution(ce, np.eye(2) / 2, 3_000_000)

    def test_table_nodes(self):
        assert table_nodes(1, WORD_CAP - 1) == WORD_CAP
        assert table_nodes(1, WORD_CAP) == WORD_CAP + 1
        # two outcomes: 2^19 - 1 nodes to length 18 fit, 2^20 - 1 to length 19 do not
        assert table_nodes(2, 18) == 2**19 - 1
        assert table_nodes(2, 19) > WORD_CAP
        assert table_nodes(3, 0) == 1
        # the count stops at the first level past the cap, so no power of r is formed
        assert table_nodes(10**6, 10**9) == 1 + 10**6

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
