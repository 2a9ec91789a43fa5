import numpy as np
import pytest

from cereduce.operators import (
    OperatorSubspace,
    Superoperator,
    closure,
    eigh_clustered,
    hs_norm,
    map_coordinates,
    orthonormalize,
    superop_from_kraus,
    unvec,
    vec,
)
from cereduce.algebra import algebra_closure
from cereduce.model import OutputMap
from cereduce.observability import invariant_closure, nonobservable_complement
from cereduce.reduction import random_density, reduce_ce
from cereduce.zoo import PAULI, ising_chain, measured_quantum_walk
from conftest import channel_checks, hs_inner, is_hermitian, proj, random_complex
from test_algebra import acceptance_block_generators, projector_distance


class TestHSInner:
    def test_identity(self):
        assert hs_inner(np.eye(2), np.eye(2)) == pytest.approx(2)

    def test_pauli_orthogonality(self, paulis):
        assert hs_inner(paulis["x"], paulis["y"]) == pytest.approx(0)

    def test_entrywise_oracle(self, rng):
        A = random_complex(rng, (4, 4))
        B = random_complex(rng, (4, 4))
        # independent double-loop evaluation of tr(A^dag B)
        expected = sum(np.conj(A[i, j]) * B[i, j] for i in range(4) for j in range(4))
        assert hs_inner(A, B) == pytest.approx(expected)

    def test_conjugate_symmetry_and_positivity(self, rng):
        for _ in range(10):
            A = random_complex(rng, (3, 3))
            B = random_complex(rng, (3, 3))
            assert hs_inner(A, B) == pytest.approx(np.conj(hs_inner(B, A)))
            assert hs_inner(A, A).real > 0
            assert abs(hs_inner(A, A).imag) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            hs_inner(np.eye(2), np.eye(3))


class TestVec:
    def test_roundtrip(self, rng):
        X = random_complex(rng, (5, 5))
        assert np.array_equal(unvec(vec(X)), X)

    def test_column_stacking(self):
        X = np.array([[1, 3], [2, 4]], dtype=complex)
        assert np.array_equal(vec(X), np.array([1, 2, 3, 4], dtype=complex))


class TestOrthonormalize:
    def test_collinear(self):
        sub = orthonormalize([np.eye(2), 2 * np.eye(2)])
        assert sub.dim == 1

    def test_linear_dependence(self, paulis):
        sub = orthonormalize([paulis["x"], paulis["y"], paulis["x"] + paulis["y"]])
        assert sub.dim == 2

    def test_random_rank_oracle(self, rng):
        ops = [random_complex(rng, (3, 3)) for _ in range(20)]
        sub = orthonormalize(ops)
        # independent rank computation on the 9x20 coefficient matrix
        M = np.array([op.reshape(-1) for op in ops]).T
        assert sub.dim == np.linalg.matrix_rank(M, tol=1e-9)
        assert sub.dim == 9

    def test_all_zero_input(self):
        sub = orthonormalize([np.zeros((2, 2))])
        assert sub.dim == 0

    def test_two_sided_span_containment(self, rng):
        ops = [random_complex(rng, (3, 3)) for _ in range(4)]
        sub = orthonormalize(ops)
        for op in ops:
            assert sub.residual(op) < 1e-10
        back = orthonormalize(ops + list(sub.basis))
        assert back.dim == sub.dim

    def test_orthonormal_basis(self, rng):
        sub = orthonormalize([random_complex(rng, (3, 3)) for _ in range(5)])
        for i, Bi in enumerate(sub.basis):
            for j, Bj in enumerate(sub.basis):
                assert hs_inner(Bi, Bj) == pytest.approx(float(i == j), abs=1e-12)

    def test_hermitian_inputs_give_hermitian_basis(self, rng, paulis):
        ops = [paulis["x"] + paulis["z"], paulis["y"], np.eye(2)]
        sub = orthonormalize(ops)
        for B in sub.basis:
            assert np.linalg.norm(B - B.conj().T) < 1e-12


class TestOperatorSubspace:
    def test_coords_and_project_match_explicit_sums(self, rng):
        sub = orthonormalize([random_complex(rng, (3, 3)) for _ in range(4)])
        X = random_complex(rng, (3, 3))
        coords = [hs_inner(B, X) for B in sub.basis]
        assert np.allclose(sub.coords(X), coords, atol=1e-12)
        explicit = sum(c * B for c, B in zip(coords, sub.basis))
        assert np.allclose(sub.project(X), explicit, atol=1e-12)
        assert sub.residual(X) == pytest.approx(np.linalg.norm(X - explicit), abs=1e-12)

    def test_stacked_is_built_once_and_read_only(self, rng):
        sub = orthonormalize([random_complex(rng, (2, 2)) for _ in range(3)])
        Q = sub.stacked()
        assert Q is sub.stacked()
        assert np.array_equal(Q, [vec(B) for B in sub.basis])
        with pytest.raises(ValueError):
            Q[0, 0] = 1.0

    def test_empty_subspace(self, rng):
        sub = OperatorSubspace(3, ())
        X = random_complex(rng, (3, 3))
        assert sub.stacked().shape == (0, 9)
        assert sub.coords(X).shape == (0,)
        assert np.array_equal(sub.project(X), np.zeros((3, 3)))
        assert sub.residual(X) == pytest.approx(np.linalg.norm(X))


class TestClosure:
    def test_expand_called_once_per_basis_element(self, rng):
        A = random_complex(rng, (3, 3))
        calls = []

        def expand(basis, i):
            calls.append(i)
            return [A @ basis[i], basis[i] @ A]

        G = random_complex(rng, (3, 3))
        # a Hermitian seed whose candidates are not: the basis must stay orthonormal
        sub = closure([G + G.conj().T], expand)
        assert calls == list(range(sub.dim))
        assert sub.dim == 9
        for i, Bi in enumerate(sub.basis):
            for j, Bj in enumerate(sub.basis):
                assert hs_inner(Bi, Bj) == pytest.approx(float(i == j), abs=1e-12)

    def test_zero_tol_stops_at_full_space(self, rng):
        A = random_complex(rng, (3, 3))

        def expand(basis, i):
            # without a cap, rounding noise passes tol=0 and the basis never stops growing
            assert i < 9, "closure expanded more than n^2 basis elements"
            return [A @ basis[i], basis[i] @ A]

        sub = closure([random_complex(rng, (3, 3))], expand, tol=0.0)
        assert sub.dim == 9


def closure_one_by_one(ops, expand=None, tol=1e-9):
    """Reference closure: CGS2 of one candidate at a time against the whole basis.

    Each candidate is projected out of the current basis twice and kept when
    its residual exceeds tol times the largest candidate norm seen so far;
    kept elements are symmetrized while every candidate has been Hermitian.
    """
    ops = list(ops)
    n = np.shape(ops[0])[0]
    basis = []
    Q = np.zeros((0, n * n), dtype=complex)
    hermitian, scale = True, 0.0

    def add(X):
        nonlocal Q, hermitian, scale
        X = np.asarray(X, dtype=complex)
        if len(basis) == n * n:
            return
        hermitian = hermitian and is_hermitian(X)
        v = vec(X)
        scale = max(scale, hs_norm(v))
        for _ in range(2):
            v = v - (Q @ v.conj()).conj() @ Q
        res = hs_norm(v)
        if res > tol * scale:
            B = unvec(v / res, n)
            if hermitian:
                B = (B + B.conj().T) / 2
                B /= hs_norm(B)
            basis.append(B)
            Q = np.vstack([Q, vec(B)])

    for X in ops:
        add(X)
    i = 0
    while expand is not None and i < len(basis):
        for X in expand(basis, i):
            add(X)
        i += 1
    return OperatorSubspace(n, tuple(basis))


def hermitian_parts(X):
    return [(X + X.conj().T) / 2, (X - X.conj().T) / 2j]


def algebra_one_by_one(ops):
    """Reference algebra closure: the Hermitian parts of each product B_i B_j, j <= i, in turn."""
    def products(basis, i):
        return [P for Bj in basis[: i + 1] for P in hermitian_parts(basis[i] @ Bj)]

    return closure_one_by_one([P for X in ops for P in hermitian_parts(X)], products)


def assert_same_span(sub, ref):
    assert sub.dim == ref.dim
    assert projector_distance(sub, ref) <= 1e-10


def assert_reduction_spans_match_one_by_one(ce):
    """The observable subspace and its algebra against the references."""
    duals = [ce.instrument.maps[k].adjoint() for k in ce.outcomes]
    nperp_ref = closure_one_by_one(ce.output.observables, lambda b, i: [S(b[i]) for S in duals])
    nperp = nonobservable_complement(ce)
    assert_same_span(nperp, nperp_ref)
    assert_same_span(algebra_closure(nperp).space, algebra_one_by_one(nperp_ref.basis))


class TestBlockClosure:
    """The block closure against the candidate-at-a-time reference."""

    @pytest.mark.parametrize("N, p", [(4, 0.0), (4, 0.5), (5, 0.0), (5, 0.5)])
    def test_ising_matches_one_by_one(self, N, p):
        assert_reduction_spans_match_one_by_one(ising_chain(N, p, 0.3))

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_walks_match_one_by_one(self, n):
        ce = measured_quantum_walk(n, seed=n)
        assert_reduction_spans_match_one_by_one(ce)
        # the conjugation orbit of the site projectors fills B(C^n): the n^2 cap
        ev = ce.evolution
        sites = [proj(n, j) for j in range(n)]
        orbit = invariant_closure(sites, [ev])
        assert orbit.dim == n * n
        assert_same_span(orbit, closure_one_by_one(sites, lambda b, i: [ev(b[i])]))

    def test_block_algebras_match_one_by_one(self):
        for ops in acceptance_block_generators():
            assert_same_span(algebra_closure(ops).space, algebra_one_by_one(ops))

    def test_dependent_candidates_in_one_block(self, paulis):
        X, Y, Z = paulis["x"], paulis["y"], paulis["z"]
        sub = closure([Z], lambda basis, i: [X, 2 * X, X + Y, Y] if i == 0 else [])
        assert sub.dim == 3
        assert_same_span(sub, orthonormalize([X, Y, Z]))

    def test_running_max_inside_block(self, paulis):
        # Y is tested against the norms seen up to it, 1e-6 |X|, not the block's 1e3 |Z|
        X, Y, Z = paulis["x"], paulis["y"], paulis["z"]
        sub = closure([1e-6 * X], lambda basis, i: [1e-14 * Y, 1e3 * Z] if i == 0 else [])
        assert sub.dim == 3
        assert sub.residual(Y) <= 1e-12

    def test_zero_tol_cap_inside_block(self, rng):
        block = [random_complex(rng, (3, 3)) for _ in range(20)]
        sub = closure([random_complex(rng, (3, 3))], lambda basis, i: block if i == 0 else [], tol=0.0)
        assert sub.dim == 9
        gram = sub.stacked().conj() @ sub.stacked().T
        assert np.linalg.norm(gram - np.eye(9)) <= 1e-12

    def test_near_dependent_candidates_are_projected_twice(self, rng):
        # one projection, against the basis before the block or against an element
        # the block added, would leave overlaps near eps / 1e-7
        A, B, C, D = (random_complex(rng, (4, 4)) for _ in range(4))
        block = [A + 1e-7 * B, C, C + 1e-7 * D]
        sub = closure([A], lambda basis, i: block if i == 0 else [])
        assert sub.dim == 4
        gram = sub.stacked().conj() @ sub.stacked().T
        assert np.linalg.norm(gram - np.eye(4)) <= 1e-13

    def test_symmetrization_stops_at_first_non_hermitian_candidate(self, paulis):
        # E = (X + iY)/2 leaves the anti-Hermitian iY/2 once Z and X are projected out
        X, Z = paulis["x"], paulis["z"]
        E = np.array([[0, 1], [0, 0]], dtype=complex)
        sub = closure([Z], lambda basis, i: [X, E] if i == 0 else [])
        assert sub.dim == 3
        assert is_hermitian(sub.basis[1]) and not is_hermitian(sub.basis[2])
        assert sub.residual(E) <= 1e-12

    def test_rectangular_candidates(self, rng):
        # 4 x 2 orbits: the first element keeps its Hermitian-looking top square as it is
        A = random_complex(rng, (4, 4))
        V = np.vstack([np.eye(2), np.zeros((2, 2))]).astype(complex)
        sub = closure([V], lambda basis, i: [A @ basis[i], A.conj().T @ basis[i]], tol=0.0)
        assert sub.dim == 8 and all(B.shape == (4, 2) for B in sub.basis)
        gram = sub.stacked().conj() @ sub.stacked().T
        assert np.linalg.norm(gram - np.eye(8)) <= 1e-12
        assert np.linalg.norm(sub.basis[0] - V / np.sqrt(2)) <= 1e-15
        for X in (A @ V, A.conj().T @ V, random_complex(rng, (4, 2))):
            assert sub.residual(X) <= 1e-12 * hs_norm(X)

    @pytest.mark.parametrize("block", [[PAULI["x"], np.eye(3)], [np.ones(4)]], ids=["3x3", "flat"])
    def test_wrong_shape_in_block_rejected(self, paulis, block):
        # a flattened 2x2 has the right number of entries and must still be refused
        with pytest.raises(ValueError):
            closure([paulis["z"]], lambda basis, i: block)


class TestMapCoordinates:
    """Rows of map_coordinates against the dense matrices' HS geometry."""

    @pytest.mark.parametrize("shape", [(3, 3), (2, 4), (4, 2)], ids=["square", "wide", "tall"])
    def test_inner_products_and_combinations(self, shape, rng):
        maps = [superop_from_kraus([random_complex(rng, shape) for _ in range(r)]) for r in (1, 3, 1, 3)]
        x = map_coordinates(maps)
        S = np.array([M.matrix.reshape(-1) for M in maps])
        gram = S.conj() @ S.T
        assert np.linalg.norm(x.conj() @ x.T - gram) <= 1e-12 * np.linalg.norm(gram)
        for _ in range(5):
            c = random_complex(rng, len(maps))
            ref = np.linalg.norm(c @ S)
            assert abs(np.linalg.norm(c @ x) - ref) <= 1e-12 * ref

    def test_exact_cancellation_has_no_sqrt_eps_floor(self, rng):
        A, B = (random_complex(rng, (4, 4)) for _ in range(2))
        sa, sb, sab = superop_from_kraus([A]), superop_from_kraus([B]), superop_from_kraus([A, B])
        x = map_coordinates([sa, sb, sab])
        scale = np.linalg.norm(x[2])
        assert np.linalg.norm(x[2] - x[0] - x[1]) <= 1e-14 * scale

    def test_matrix_input_matches_kraus_twin(self, rng):
        S = superop_from_kraus([random_complex(rng, (3, 3)) for _ in range(2)])
        x = map_coordinates([S, Superoperator(S.matrix)])
        assert np.linalg.norm(x[1] - x[0]) <= 1e-12 * np.linalg.norm(x[0])


class TestSuperopFromKraus:
    def test_identity(self):
        S = superop_from_kraus([np.eye(3)])
        assert np.allclose(S.matrix, np.eye(9))

    def test_full_amplitude_damping(self, rng):
        K0 = np.array([[1, 0], [0, 0]], dtype=complex)
        K1 = np.array([[0, 1], [0, 0]], dtype=complex)
        S = superop_from_kraus([K0, K1])
        G = random_complex(rng, (2, 2))
        rho = G @ G.conj().T
        rho /= np.trace(rho)
        assert np.allclose(S(rho), proj(2, 0), atol=1e-12)

    def test_matches_direct_sum_oracle(self, rng):
        kraus = [random_complex(rng, (3, 3)) for _ in range(2)]
        S = superop_from_kraus(kraus)
        for _ in range(50):
            X = random_complex(rng, (3, 3))
            direct = sum(K @ X @ K.conj().T for K in kraus)
            assert np.linalg.norm(S(X) - direct) < 1e-12

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            superop_from_kraus([])

    def test_kraus_consistency(self, rng):
        kraus = [random_complex(rng, (2, 2)) for _ in range(2)]
        M = sum(np.kron(K.conj(), K) for K in kraus)
        assert np.linalg.norm(superop_from_kraus(kraus).matrix - M) < 1e-14 * np.linalg.norm(M)


class TestAdjointCompose:
    def test_adjoint_involution(self, rng):
        S = superop_from_kraus([random_complex(rng, (3, 3))])
        assert np.allclose(S.adjoint().adjoint().matrix, S.matrix)

    def test_hs_adjoint_identity(self, rng):
        S = superop_from_kraus([random_complex(rng, (3, 3)) for _ in range(2)])
        Sd = S.adjoint()
        for _ in range(10):
            A = random_complex(rng, (3, 3))
            B = random_complex(rng, (3, 3))
            lhs = hs_inner(A, S(B))
            rhs = hs_inner(Sd(A), B)
            assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), 1)

    def test_compose_is_matrix_product(self, rng):
        S1 = superop_from_kraus([random_complex(rng, (3, 3))])
        S2 = superop_from_kraus([random_complex(rng, (3, 3))])
        X = random_complex(rng, (3, 3))
        assert np.allclose((S2 @ S1)(X), S2(S1(X)))


def dense_apply(S, X):
    """Oracle: the column-stacked matvec with the dense matrix."""
    return unvec(S.matrix @ vec(X), S.out_dim)


class TestApplyForms:
    """S(X) against the dense matvec, for Kraus lists on either side of the cost rule."""

    CASES = {
        # name: (number of Kraus operators, out_dim, in_dim, applies through Kraus)
        "r1_square": (1, 16, 16, True),
        "r3_square": (3, 16, 16, True),
        "r_like": (2, 6, 24, True),
        "j_like": (2, 24, 6, True),
        "long_list": (10, 3, 3, False),
        # below the fixed overhead of a Kraus apply, as the reduced Ising maps
        "small_square": (2, 8, 8, False),
    }

    @pytest.fixture(params=sorted(CASES))
    def case(self, request, rng):
        r, no, ni, via_kraus = self.CASES[request.param]
        kraus = [random_complex(rng, (no, ni)) for _ in range(r)]
        return superop_from_kraus(kraus), via_kraus

    def test_apply_matches_dense_matvec(self, case, rng):
        S, via_kraus = case
        # white box: the form fixed at construction, and the matrix not yet built
        assert (S._rows is not None) == via_kraus
        X = random_complex(rng, (S.in_dim, S.in_dim))
        Y = S(X)
        assert (S._matrix is None) == via_kraus
        ref = dense_apply(S, X)
        assert Y.shape == (S.out_dim, S.out_dim)
        assert np.linalg.norm(Y - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_wrong_size_rejected(self, case):
        S, _ = case
        for shape in [(S.in_dim + 1, S.in_dim + 1), (S.in_dim, S.in_dim + 1)]:
            with pytest.raises(ValueError):
                S(np.zeros(shape))

    def test_adjoint_stays_kraus(self, case, rng):
        S, _ = case
        Sd = S.adjoint()
        assert Sd._matrix is None
        assert (Sd.in_dim, Sd.out_dim) == (S.out_dim, S.in_dim)
        assert np.allclose(Sd.matrix, S.matrix.conj().T, rtol=0, atol=1e-12)
        A = random_complex(rng, (S.out_dim, S.out_dim))
        assert np.linalg.norm(Sd(A) - dense_apply(Sd, A)) <= 1e-12 * np.linalg.norm(Sd(A))

    def test_compose_stays_kraus(self, case, rng):
        S, _ = case
        T = superop_from_kraus([random_complex(rng, (S.in_dim, 2)) for _ in range(2)])
        ST = S @ T
        assert len(ST.kraus) == 2 * len(S.kraus)
        assert ST._matrix is None
        ref = S.matrix @ T.matrix
        assert np.linalg.norm(ST.matrix - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_matrix_only_map(self, rng):
        kraus = [random_complex(rng, (4, 3)) for _ in range(2)]
        M = sum(np.kron(K.conj(), K) for K in kraus)
        S = Superoperator(M)
        assert (S.out_dim, S.in_dim) == (4, 3)
        X = random_complex(rng, (3, 3))
        assert np.allclose(S(X), unvec(M @ vec(X), 4), rtol=1e-12, atol=0)
        assert np.linalg.norm(S.adjoint().matrix - M.conj().T) <= 1e-12 * np.linalg.norm(M)
        with pytest.raises(ValueError):
            S(np.zeros((4, 4)))
        with pytest.raises(ValueError):
            Superoperator(random_complex(rng, (8, 9)))


class TestStackedApply:
    """A stack (..., n, n) maps slice by slice, in the form the map chose at construction.

    Each slice is checked against sum_i K_i X K_i^dag and tr[O_j X] written out.
    """

    CASES = {
        # name: (number of Kraus operators, out_dim, in_dim, applies through Kraus)
        "square_kraus": (1, 16, 16, True),
        "square_dense": (3, 4, 4, False),
        "r_like_kraus": (1, 8, 32, True),
        "r_like_dense": (8, 8, 32, False),
        "j_like_kraus": (1, 32, 8, True),
        "j_like_dense": (8, 32, 8, False),
    }

    @pytest.mark.parametrize("lead", [(0,), (1,), (5,), (2, 3)], ids=str)
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_stack_matches_slices(self, name, lead, rng):
        r, no, ni, via_kraus = self.CASES[name]
        S = superop_from_kraus([random_complex(rng, (no, ni)) for _ in range(r)])
        assert (S._rows is not None) == via_kraus
        X = random_complex(rng, (*lead, ni, ni))
        Y = S(X)
        assert Y.shape == (*lead, no, no)
        for idx in np.ndindex(*lead):
            ref = sum(K @ X[idx] @ K.conj().T for K in S.kraus)
            assert np.linalg.norm(Y[idx] - ref) <= 1e-13 * np.linalg.norm(ref)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_bad_trailing_shape_rejected(self, name, rng):
        r, no, ni, _ = self.CASES[name]
        S = superop_from_kraus([random_complex(rng, (no, ni)) for _ in range(r)])
        for shape in [(ni,), (2, ni, ni + 1), (2, ni + 1, ni), (3, 2, ni, 1)]:
            with pytest.raises(ValueError):
                S(np.zeros(shape))

    @pytest.mark.parametrize("observables", ["ising", "random"])
    def test_output_map_stack_matches_slices(self, observables, rng):
        out = ising_chain(4, 0.5, 0.3).output
        if observables == "random":
            # neither Hermitian nor symmetric, so a transposed contraction shows
            out = OutputMap(names=("a", "b"), observables=tuple(random_complex(rng, (2, 16, 16))))
        X = random_complex(rng, (2, 3, 16, 16))
        Y = out(X)
        assert Y.shape == (2, 3, len(out.observables))
        for idx in np.ndindex(2, 3):
            ref = np.array([np.trace(O @ X[idx]) for O in out.observables])
            assert np.linalg.norm(Y[idx] - ref) <= 1e-13 * np.linalg.norm(ref)
        for shape in [(2, 16, 15), (2, 15, 16), (16,)]:
            with pytest.raises(ValueError):
                out(np.zeros(shape))


class TestFactorMatrix:
    """A map given as a matrix is factored by pivoted Cholesky of its Choi matrix."""

    def test_zero_map_keeps_one_zero_operator(self):
        S = Superoperator(np.zeros((16, 9)))
        assert len(S.kraus) == 1 and S.kraus[0].shape == (4, 3) and not S.kraus[0].any()
        assert not S(np.eye(3)).any()

    @pytest.mark.parametrize("shape", [(3, 3), (4, 3)], ids=["square", "rectangular"])
    @pytest.mark.parametrize("rank", [1, 2, 5])
    def test_choi_rank_operators(self, shape, rank, rng, monkeypatch):
        kraus = [random_complex(rng, shape) for _ in range(rank)]
        M = sum(np.kron(K.conj(), K) for K in kraus)

        def refuse(*args, **kwargs):
            raise AssertionError("an accepted map ran an eigensolve")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        S = Superoperator(M)
        assert len(S.kraus) == rank
        assert np.linalg.norm(S.matrix - M) <= 1e-12 * np.linalg.norm(M)

    def test_full_rank(self):
        # the completely depolarizing map X -> tr(X) 1/4 has Choi matrix 1/4 on C^4 (x) C^4
        M = np.outer(vec(np.eye(4)), vec(np.eye(4))) / 4
        S = Superoperator(M)
        assert len(S.kraus) == 16
        assert np.linalg.norm(S.matrix - M) <= 1e-12 * np.linalg.norm(M)

    def test_ising_reduction_map(self, rng):
        red = reduce_ce(ising_chain(6, 0.5, 0.3))
        S = Superoperator(red.reduction_map.matrix)
        assert len(S.kraus) == sum(d_F for _, d_F in red.blocks) == 16
        rhos = np.array([random_density(64, rng) for _ in range(5)])
        assert np.max(np.abs(S(rhos) - red.reduction_map(rhos))) <= 1e-12

    def test_negative_choi_direction_rejected(self, rng):
        # a rank-3 map less 1e-6 times the map of a Kraus operator HS-orthogonal to its own:
        # its Choi matrix moves by -1e-6 along an eigenvector of eigenvalue 0
        kraus = [random_complex(rng, (3, 3)) for _ in range(3)]
        Q, _ = np.linalg.qr(np.array([K.reshape(-1) for K in kraus]).T, mode="complete")
        E = Q[:, 3].reshape(3, 3)
        M = sum(np.kron(K.conj(), K) for K in kraus) - 1e-6 * np.kron(E.conj(), E)
        with pytest.raises(ValueError, match=r"smallest Choi eigenvalue -1\.000e-06"):
            Superoperator(M)

    @pytest.mark.parametrize("shape", [(0, 0), (4, 0)])
    def test_empty_matrix_rejected(self, shape):
        with pytest.raises(ValueError, match="is not"):
            Superoperator(np.zeros(shape))

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_non_finite_rejected(self, entry):
        # a residual that is not finite fails the certificate
        M = np.eye(4, dtype=complex)
        M[0, 0] = entry
        with pytest.raises(ValueError, match="not completely positive"):
            Superoperator(M)

    def test_transpose_rejected(self):
        # Hermitian Choi matrix (the swap) with eigenvalue -1; left multiplication is in TestChannelChecks
        swap = np.array([vec(E.T) for E in np.eye(4).reshape(4, 2, 2, order="F")]).T
        with pytest.raises(ValueError, match="smallest Choi eigenvalue -1"):
            Superoperator(swap)


class TestChannelChecks:
    def test_unitary_conjugation(self):
        H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        rep = channel_checks(superop_from_kraus([H]))
        assert rep.cp and rep.tp and rep.unital

    def test_left_multiplication_not_cp(self, paulis):
        # X -> sigma_x X is not even Hermiticity-preserving, so it is no Superoperator
        with pytest.raises(ValueError, match="not completely positive"):
            Superoperator(np.kron(np.eye(2), paulis["x"]))

    def test_kraus_maps_always_cp(self, rng):
        for _ in range(10):
            S = superop_from_kraus([random_complex(rng, (3, 3)) for _ in range(2)])
            assert channel_checks(S).cp

    def test_injection_for_diagonal_algebra_is_cptp(self):
        from cereduce.algebra import algebra_closure, conditional_expectation, wedderburn

        alg = algebra_closure([proj(2, 0), proj(2, 1)])
        fact = conditional_expectation(wedderburn(alg))
        rep = channel_checks(fact.J)
        assert rep.cp and rep.tp


def test_eigh_clustered_orthonormal(rng):
    G = random_complex(rng, (5, 5))
    H = G + G.conj().T
    # force a degenerate pair
    H = H @ H.conj().T
    clusters = eigh_clustered(H, 1e-8)
    V = np.hstack([Q for _, Q in clusters])
    assert np.allclose(V.conj().T @ V, np.eye(5), atol=1e-12)
