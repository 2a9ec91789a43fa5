import math

import numpy as np
import pytest

from cereduce.model import validate_ce
from cereduce.observability import nonobservable_complement
from cereduce.reduction import equivalence_check, random_density, reduce_ce
from cereduce.zoo import (
    haar_unitary,
    ising_chain,
    measured_quantum_walk,
    walk_is_generic,
    walk_markov_oracle,
)
from conftest import blockdiag_projector, outputs, separately_reduced


class TestWalk:
    def test_hadamard_oracle_uniform(self):
        H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        assert np.allclose(walk_markov_oracle(H), 0.5)

    def test_oracle_column_stochastic(self):
        U = haar_unitary(5, seed=3)
        P = walk_markov_oracle(U)
        assert np.allclose(P.sum(axis=0), 1.0)
        assert np.all(P >= 0)

    def test_haar_seeds_generic(self):
        for seed in range(3):
            assert walk_is_generic(haar_unitary(4, seed))

    def test_zero_tol_returns(self):
        # rounding noise passes tol=0; the closure must still stop at n^2 elements
        assert walk_is_generic(haar_unitary(3, 0), tol=0.0)

    def test_identity_unitary_warns(self):
        with pytest.warns(UserWarning):
            measured_quantum_walk(3, U=np.eye(3, dtype=complex))

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            measured_quantum_walk(2, U=np.ones((2, 2)))

    def test_valid_ce(self):
        ce = measured_quantum_walk(4, seed=7)
        assert validate_ce(ce).ok
        assert ce.has_split
        # outcome j: the site projector, then U
        U = ce.evolution.kraus[0]
        for j, k in enumerate(ce.outcomes):
            assert np.max(np.abs(ce.instrument.maps[k].kraus[0] - U @ np.diag(np.eye(4)[j]))) <= 1e-15


class TestIsingChain:
    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            ising_chain(3, 0.0, 0.3)

    def test_bad_skip_probability_rejected(self):
        for p in (-0.1, 1.0):
            with pytest.raises(ValueError):
                ising_chain(4, p, 0.3)

    @pytest.mark.parametrize("delta", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_delta_rejected(self, delta):
        with pytest.raises(ValueError, match="delta must be a finite number"):
            ising_chain(4, 0.5, delta)

    def test_outcome_labels(self):
        assert ising_chain(4, 0.0, 0.3).outcomes == ("0", "1")
        assert ising_chain(4, 0.5, 0.3).outcomes == ("-1", "0", "1")

    def test_valid_ce_both_regimes(self):
        for p in (0.0, 0.5):
            ce = ising_chain(4, p, 0.3)
            assert validate_ce(ce).ok
            assert ce.has_split and ce.outcomes == tuple(ce.effects)

    def test_nonobservable_dims(self):
        assert nonobservable_complement(ising_chain(4, 0.0, 0.3)).dim == 12
        assert nonobservable_complement(ising_chain(4, 0.5, 0.3)).dim == 18

    def test_first_qubit_state_reconstruction(self, rng, paulis):
        ce = ising_chain(4, 0.0, 0.3)
        rho = random_density(16, rng)
        y = outputs(ce, rho)
        tau = 0.5 * sum(
            y[i] * paulis[q] for i, q in enumerate(("0", "x", "y", "z"))
        )
        tr_rest = np.einsum("iaja->ij", rho.reshape(2, 8, 2, 8))
        assert np.allclose(tau, tr_rest, atol=1e-10)

    def test_reduced_skip_effect_is_scalar(self):
        ce = ising_chain(4, 0.5, 0.3)
        red = reduce_ce(ce, seed=0)
        Pbd = blockdiag_projector(red.factorization)
        skip = separately_reduced(ce, red).effects["-1"].matrix
        assert np.linalg.norm(skip @ Pbd - 0.5 * Pbd) < 1e-9

    @pytest.mark.parametrize("p", [0.0, 0.5])
    def test_no_negative_zero_entries(self, p):
        # a model file stores every entry whose bytes are not zero, so a -0.0 costs an entry
        ce = ising_chain(5, p, 0.3)
        ops = [*ce.output.observables, *ce.evolution.kraus,
               *(K for k in ce.outcomes for K in ce.effects[k].kraus)]
        for X in ops:
            parts = np.ascontiguousarray(X, dtype=complex).view(float)
            assert not np.signbit(parts[parts == 0]).any()

    def test_reduced_effects_preserve_trace(self):
        ce = ising_chain(4, 0.5, 0.3)
        red = reduce_ce(ce, seed=0)
        sep = separately_reduced(ce, red)
        D = red.factorization.reduced_hilbert_dim
        eye = np.eye(D, dtype=complex)
        total = sum(sep.effects[k].adjoint()(eye) for k in ce.outcomes)
        assert np.linalg.norm(total - eye) < 1e-9

    @pytest.mark.parametrize("delta", [math.pi / 2, math.pi], ids=["pi/2", "pi"])
    @pytest.mark.parametrize("p", [0.0, 0.5])
    @pytest.mark.parametrize("N", [5, 6])
    def test_exceptional_couplings(self, N, p, delta):
        # exp(-i delta X_j X_j+1) is -i X_j X_j+1 at delta = pi/2 and -1 at pi, so U is X_1 X_N or
        # 1 up to a phase, and the observable subspace is spanned by the first qubit's Paulis times
        # the last qubit's two projections in both regimes; the pairs certify with a root
        # deviation of at most 1.1e-13 and a step defect of at most 1.7e-14
        ce = ising_chain(N, p, delta)
        red = reduce_ce(ce)
        assert (red.nperp.dim, red.output_algebra.dim, red.reduced_dim) == (8, 8, 8)
        assert red.blocks == ((2, 2**N // 4),) * 2
        assert equivalence_check(ce, red).passed
