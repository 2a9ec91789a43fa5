"""Acceptance suite: end-to-end checks with printed pass/fail lines.

Run with ``pytest tests/test_acceptance.py -s`` to see one line per
criterion.  Every numbered test covers one acceptance requirement at its
stated tolerance and runtime budget.
"""

import itertools
import time

import numpy as np
import pytest

from cereduce.algebra import algebra_closure, commutant, conditional_expectation, wedderburn
from cereduce.observability import linear_reduce
from cereduce.operators import Superoperator, hermitian_closure
from cereduce.reduction import (
    check_assumptions,
    equivalence_check,
    random_density,
    reduce_ce,
)
from cereduce.trajectories import enumerate_distribution, total_variation
from cereduce.zoo import (
    haar_unitary,
    ising_chain,
    measured_quantum_walk,
    walk_is_generic,
    walk_markov_oracle,
)
from conftest import (
    blockdiag_projector,
    channel_checks,
    outputs,
    projector_matrix,
    propagate,
    random_ce,
    residual,
    separately_reduced,
    structure_residual,
)
from test_algebra import acceptance_block_algebras, channel_checks_rect

WALK_SEEDS = {3: 1, 4: 7, 5: 2}


def report(num, label, passed):
    print(f"\nACCEPTANCE {num} ({label}): {'PASS' if passed else 'FAIL'}")
    assert passed, f"acceptance criterion {num} ({label}) failed"


def timed_reduce(ce, seed=0):
    t0 = time.perf_counter()
    red = reduce_ce(ce, seed=seed)
    return red, time.perf_counter() - t0


@pytest.fixture(scope="module")
def walks():
    out = {}
    for n, seed in WALK_SEEDS.items():
        ce = measured_quantum_walk(n, seed=seed)
        out[n] = (ce, *timed_reduce(ce))
    return out


@pytest.fixture(scope="module")
def isings():
    out = {}
    for N, p in [(4, 0.0), (4, 0.5), (5, 0.0), (5, 0.5)]:
        ce = ising_chain(N, p, 0.3)
        out[(N, p)] = (ce, *timed_reduce(ce))
    return out


def walk_markov_matches(ce, red, tol=1e-9):
    P = walk_markov_oracle(ce.evolution.kraus[0])
    D = red.factorization.reduced_hilbert_dim
    perm = []
    for b in range(D):
        e = np.zeros((D, D), dtype=complex)
        e[b, b] = 1.0
        perm.append(int(np.argmax(np.abs(np.diag(red.factorization.J(e))))))
    Ssum = Superoperator(sum(red.model.instrument.maps[k].matrix for k in ce.outcomes))
    Q = np.zeros((D, D))
    for j in range(D):
        e = np.zeros((D, D), dtype=complex)
        e[j, j] = 1.0
        Q[:, j] = np.diag(Ssum(e)).real
    return float(np.max(np.abs(Q - P[np.ix_(perm, perm)]))) <= tol


def test_criterion_1_walk_reduction(walks):
    ok = True
    for n, seed in WALK_SEEDS.items():
        ce, red, elapsed = walks[n]
        ok &= walk_is_generic(haar_unitary(n, seed))
        ok &= red.reduced_dim == n
        ok &= len(red.blocks) == n and all(dS == 1 for dS, _ in red.blocks)
        rep = equivalence_check(ce, red, max_len=4, n_states=25, tol=1e-8, seed=0)
        ok &= rep.passed
        ok &= walk_markov_matches(ce, red)
        ok &= elapsed <= 10.0
    report(1, "quantum walk known-answer reduction", ok)


def test_criterion_2_no_unconditional_reduction(walks):
    ok = True
    for n, (ce, red, _) in walks.items():
        eye = np.eye(n)
        sites = [np.outer(eye[:, j], eye[j]).astype(complex) for j in range(n)]
        closure = hermitian_closure(sites, lambda H: [ce.evolution(H)])
        ok &= closure.dim == n * n
        ok &= red.reduced_dim < n * n
    report(2, "walk admits no unconditional reduction", ok)


def test_criterion_3_ising_p0(isings):
    ce, red, elapsed = isings[(4, 0.0)]
    ok = red.nperp.dim == 12
    ok &= sorted(red.blocks) == [(2, 2)] * 4
    ok &= red.reduced_dim == 16
    # every word of every length, at every state: the 12 elements of the reduced realization,
    # each pulled back through R once and compared under each of the 2 outcomes
    rep = equivalence_check(ce, red, tol=1e-8)
    ok &= rep.passed and rep.n_sequences == 12 * 2
    ok &= elapsed <= 60.0
    report(3, "Ising p=0 known-answer reduction", ok)


def test_criterion_4_ising_p_half(isings):
    ce, red, elapsed = isings[(4, 0.5)]
    ok = red.nperp.dim == 18
    ok &= sorted(red.blocks) == [(4, 2)] * 2
    ok &= red.reduced_dim == 32
    rep = check_assumptions(ce, red.nperp, red.output_algebra)
    ok &= rep.a1.holds and abs(rep.lambdas["-1"] - 2.0) <= 1e-9
    ok &= rep.a3.holds and rep.a3.residual <= 1e-9
    sep = separately_reduced(ce, red)
    for k in ce.outcomes:
        dev = np.linalg.norm(sep.instrument.maps[k].matrix - red.model.instrument.maps[k].matrix)
        ok &= dev <= 1e-8
    ok &= elapsed <= 120.0
    report(4, "Ising p=0.5 separability", ok)


def test_criterion_5_ising_size_independence(isings):
    ok = True
    for p, dim, dS in [(0.0, 16, 2), (0.5, 32, 4)]:
        ce4, red4, _ = isings[(4, p)]
        ce5, red5, elapsed = isings[(5, p)]
        ok &= red5.reduced_dim == dim == red4.reduced_dim
        ok &= sorted(b[0] for b in red5.blocks) == sorted(b[0] for b in red4.blocks)
        ok &= all(b == (dS, 4) for b in red5.blocks)
        ok &= elapsed <= 600.0
    report(5, "reduced dimension independent of chain length", ok)


def test_ising_n5_p_half_assumptions(isings):
    ce, red, _ = isings[(5, 0.5)]
    t0 = time.perf_counter()
    rep = check_assumptions(ce, red.nperp, red.output_algebra)
    elapsed = time.perf_counter() - t0
    assert rep.a1.holds and rep.a2.holds and rep.a3.holds and rep.a4.holds
    assert elapsed <= 5.0


def test_ising_n6_p0_reduction():
    # built here rather than in a module fixture: the dense N=6 maps take
    # about 2 GB and are freed when the test returns
    ce = ising_chain(6, 0.0, 0.3)
    red, elapsed = timed_reduce(ce)
    assert (red.nperp.dim, red.output_algebra.dim, red.reduced_dim) == (12, 16, 16)
    assert red.blocks == ((2, 8),) * 4
    dec = red.factorization.decomposition
    assert all(structure_residual(dec, B) <= 1e-8 for B in red.output_algebra.basis)
    assert elapsed <= 60.0
    assert equivalence_check(ce, red, max_len=2, n_states=2, tol=1e-8, seed=0).passed


@pytest.mark.parametrize(
    "p, dims, blocks",
    [(0.0, (12, 16, 16), ((2, 16),) * 4), (0.5, (18, 32, 32), ((4, 16),) * 2)],
    ids=["p0", "p_half"],
)
def test_ising_n7_reduction(p, dims, blocks):
    ce = ising_chain(7, p, 0.3)
    red = reduce_ce(ce)
    assert (red.nperp.dim, red.output_algebra.dim, red.reduced_dim) == dims
    assert red.blocks == blocks
    dec = red.factorization.decomposition
    assert all(structure_residual(dec, B) <= 1e-8 for B in red.output_algebra.basis)
    assert equivalence_check(ce, red, max_len=2, n_states=2, tol=1e-8, seed=0).passed


@pytest.mark.parametrize(
    "p, dims, blocks",
    [(0.0, (12, 16, 16), ((2, 32),) * 4), (0.5, (18, 32, 32), ((4, 32),) * 2)],
    ids=["p0", "p_half"],
)
def test_ising_n8_reduction(p, dims, blocks):
    ce = ising_chain(8, p, 0.3)
    red = reduce_ce(ce)
    assert (red.nperp.dim, red.output_algebra.dim, red.reduced_dim) == dims
    assert red.blocks == blocks
    # the nperp basis generates the algebra, so its block form is the algebra's
    dec = red.factorization.decomposition
    assert all(structure_residual(dec, B) <= 1e-8 for B in red.nperp.basis)
    assert equivalence_check(ce, red, max_len=2, n_states=2, tol=1e-8, seed=0).passed


@pytest.fixture(scope="module")
def random_algebras():
    return acceptance_block_algebras()


def e_suite_ok(alg, tol=1e-8):
    fact = conditional_expectation(wedderburn(alg))
    E = fact.J @ fact.R
    ok = np.linalg.norm((E @ E).matrix - E.matrix) <= tol * max(1.0, np.linalg.norm(E.matrix))
    ok &= np.linalg.norm(E.matrix - E.adjoint().matrix) <= tol
    rep = channel_checks(E)
    ok &= rep.cp and rep.tp and rep.unital
    ok &= all(np.linalg.norm(E(B) - B) <= tol for B in alg.basis)
    ok &= np.linalg.norm(E.matrix - projector_matrix(alg)) <= tol
    ok &= channel_checks_rect(fact.R) and channel_checks_rect(fact.J)
    Pbd = blockdiag_projector(fact)
    ok &= np.linalg.norm(fact.R.matrix @ fact.J.matrix @ Pbd - Pbd) <= 1e-10
    return bool(ok)


def test_criterion_6_conditional_expectation_properties(walks, isings, random_algebras):
    ok = True
    for _, red, _ in walks.values():
        ok &= e_suite_ok(red.output_algebra)
    for key in [(4, 0.0), (4, 0.5)]:
        ok &= e_suite_ok(isings[key][1].output_algebra)
    for alg in random_algebras:
        ok &= e_suite_ok(alg)
    report(6, "conditional expectation property suite", ok)


def test_criterion_7_random_instance_oracle():
    ok = True
    for i in range(20):
        rng = np.random.default_rng(1000 + i)
        n = int(rng.integers(2, 4))
        n_out = int(rng.integers(2, 4))
        n_obs = int(rng.integers(1, 4))
        ce = random_ce(n, n_out, n_obs, rng)
        red = reduce_ce(ce, seed=i)
        rho0 = random_density(n, rng)
        full_table = enumerate_distribution(ce, rho0, 3)
        red_table = enumerate_distribution(red.model, red.reduction_map(rho0), 3)
        ok &= total_variation(full_table, red_table) <= 1e-9
        ok &= all(
            float(np.max(np.abs(full_table[s][1] - red_table[s][1]))) <= 1e-8
            for s in full_table
        )
    report(7, "random-instance oracle equivalence", ok)


def test_criterion_8_structural_invariants(walks, isings, random_algebras):
    ok = True
    # double commutant on every tractable tested algebra
    algebras = [red.output_algebra for _, red, _ in walks.values()]
    algebras += random_algebras
    for alg in algebras:
        back = commutant(commutant(alg))
        ok &= back.dim == alg.dim
        ok &= all(residual(back, B) <= 1e-8 for B in alg.basis)
    # trace conservation and positivity on 1000 random (instrument, state) pairs
    rng = np.random.default_rng(77)
    for i in range(100):
        ce = random_ce(3, int(rng.integers(2, 4)), 1, rng)
        for _ in range(10):
            rho = random_density(3, rng)
            total = 0.0
            for k in ce.outcomes:
                out = ce.instrument.maps[k](rho)
                ok &= np.linalg.eigvalsh((out + out.conj().T) / 2)[0] >= -1e-10
                total += np.trace(out).real
            ok &= abs(total - 1.0) <= 1e-10
    # enumeration normalization on all zoo models
    for ce, _, _ in list(walks.values()) + list(isings.values()):
        rho0 = np.eye(ce.dim, dtype=complex) / ce.dim
        for T in (1, 4):
            table = enumerate_distribution(ce, rho0, T)
            ok &= abs(sum(p for p, _ in table.values()) - 1.0) <= 1e-9
    report(8, "structural invariants", ok)


def test_criterion_9_linear_vs_algebraic(walks, isings):
    ok = True
    ce_ising, red_ising, _ = isings[(4, 0.0)]
    lm = linear_reduce(ce_ising)
    ok &= lm.q == 12 < red_ising.reduced_dim == 16

    def linear_equiv(ce, lm, max_len, n_states, rng):
        good = True
        for _ in range(n_states):
            rho0 = random_density(ce.dim, rng)
            for t in range(1, max_len + 1):
                for seq in itertools.product(ce.outcomes, repeat=t):
                    rho = rho0
                    for k in seq:
                        rho = ce.instrument.maps[k](rho)
                    dev = np.max(np.abs(outputs(ce, rho) - propagate(lm, rho0, seq)))
                    good &= float(dev) <= 1e-8
        return good

    rng = np.random.default_rng(5)
    ok &= linear_equiv(ce_ising, lm, max_len=2, n_states=5, rng=rng)
    for n, (ce, red, _) in walks.items():
        lm_w = linear_reduce(ce)
        ok &= lm_w.q == n == red.reduced_dim
        ok &= linear_equiv(ce, lm_w, max_len=3, n_states=5, rng=rng)
    report(9, "linear vs algebraic dimension ordering", ok)
