import itertools
import math

import numpy as np
import pytest

from cereduce import operators
from cereduce.operators import (
    DEFAULT_TOL,
    OperatorSubspace,
    Superoperator,
    closure,
    eigh_clustered,
    hermitian_closure,
    map_coordinates,
    unvec,
)
from cereduce.algebra import algebra_closure, center, commutant
from cereduce.model import OutputMap
from cereduce.observability import REALIZATION_TOL, nonobservable_complement
from cereduce.reduction import equivalence_check, random_density, reduce_ce
from cereduce.zoo import PAULI, ising_chain, measured_quantum_walk
from conftest import (
    REALIZATION_MODELS,
    channel_checks,
    from_real_coordinates_loop,
    hs_inner,
    is_hermitian,
    proj,
    random_complex,
    residual,
    vec,
    with_output,
)
from test_algebra import acceptance_block_generators, projector_distance
from test_trajectories import non_hermitian_outputs_ce


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


class TestOrthonormalize:
    def test_collinear(self):
        sub = closure([np.eye(2), 2 * np.eye(2)])
        assert sub.dim == 1

    def test_linear_dependence(self, paulis):
        sub = closure([paulis["x"], paulis["y"], paulis["x"] + paulis["y"]])
        assert sub.dim == 2

    def test_random_rank_oracle(self, rng):
        ops = [random_complex(rng, (3, 3)) for _ in range(20)]
        sub = closure(ops)
        # independent rank computation on the 9x20 coefficient matrix
        M = np.array([op.reshape(-1) for op in ops]).T
        assert sub.dim == np.linalg.matrix_rank(M, tol=1e-9)
        assert sub.dim == 9

    def test_all_zero_input(self):
        sub = closure([np.zeros((2, 2))])
        assert sub.dim == 0

    def test_two_sided_span_containment(self, rng):
        ops = [random_complex(rng, (3, 3)) for _ in range(4)]
        sub = closure(ops)
        for op in ops:
            assert residual(sub, op) < 1e-10
        back = closure(ops + list(sub.basis))
        assert back.dim == sub.dim

    def test_orthonormal_basis(self, rng):
        sub = closure([random_complex(rng, (3, 3)) for _ in range(5)])
        for i, Bi in enumerate(sub.basis):
            for j, Bj in enumerate(sub.basis):
                assert hs_inner(Bi, Bj) == pytest.approx(float(i == j), abs=1e-12)

    def test_hermitian_inputs_give_hermitian_basis(self, rng, paulis):
        ops = [paulis["x"] + paulis["z"], paulis["y"], np.eye(2)]
        sub = closure(ops)
        for B in sub.basis:
            assert np.linalg.norm(B - B.conj().T) < 1e-12


class TestOperatorSubspace:
    def test_stacked_is_built_once_and_read_only(self, rng):
        sub = closure([random_complex(rng, (2, 2)) for _ in range(3)])
        Q = sub.stacked()
        # a row-major view of the one (dim, n, n) basis array, not a copy
        assert np.shares_memory(Q, sub.basis)
        assert np.array_equal(Q, [B.reshape(-1) for B in sub.basis])
        with pytest.raises(ValueError):
            Q[0, 0] = 1.0
        with pytest.raises(ValueError):
            sub.basis[0, 0, 0] = 1.0

    @pytest.mark.parametrize("make, dtype", [
        pytest.param(lambda: closure([np.diag([1.0, 2.0, 3.0]), np.ones((3, 3))]), np.float64,
                     id="closure_real"),
        pytest.param(lambda: closure([np.eye(3), 1j * np.ones((3, 3))]), np.complex128, id="closure_complex"),
        pytest.param(lambda: closure([np.zeros((2, 2))]), np.float64, id="closure_empty"),
        pytest.param(lambda: hermitian_closure([PAULI["x"], PAULI["x"] @ PAULI["z"]]), np.complex128,
                     id="hermitian_closure"),
        pytest.param(lambda: algebra_closure([PAULI["x"], PAULI["z"]]), np.complex128, id="algebra_closure"),
        pytest.param(lambda: center(algebra_closure([proj(3, 0), proj(3, 1)])), np.complex128, id="center"),
        pytest.param(lambda: commutant(algebra_closure([proj(3, 0)])), np.complex128, id="commutant"),
        pytest.param(lambda: nonobservable_complement(ising_chain(4, 0.5, 0.3)), np.complex128,
                     id="nonobservable_complement"),
    ])
    def test_basis_is_one_read_only_array(self, make, dtype):
        sub = make()
        assert isinstance(sub.basis, np.ndarray) and sub.basis.dtype == dtype
        dim, n, m = sub.basis.shape
        Q = sub.stacked()
        assert Q.shape == (dim, n * m) and np.array_equal(Q, sub.basis.reshape(dim, n * m))
        # stacked() is a view of the basis; a zero-size array shares memory with nothing
        assert np.shares_memory(Q, sub.basis) or dim == 0
        assert not sub.basis.flags.writeable and not Q.flags.writeable

    def test_empty_subspace(self, rng):
        sub = OperatorSubspace(3, ())
        X = random_complex(rng, (3, 3))
        assert sub.basis.shape == (0, 3, 3) and not sub.basis.flags.writeable
        assert sub.stacked().shape == (0, 9)
        assert residual(sub, X) == pytest.approx(np.linalg.norm(X))


def per_element(f):
    """An ``expand`` that lists f(X) for each new element X in turn: one element-major stack."""
    return lambda new: np.array([Y for X in new for Y in f(X)]).reshape(-1, *new.shape[1:])


def first_generation(candidates):
    """An ``expand`` that returns the stack of ``candidates`` for the elements the ops spanned,
    and an empty stack for every later generation."""
    calls = []

    def expand(new):
        calls.append(len(new))
        return np.array(candidates) if len(calls) == 1 else new[:0]

    expand.calls = calls
    return expand


class TestClosure:
    def test_expand_called_once_per_basis_element(self, rng):
        A = random_complex(rng, (3, 3))
        calls = []

        def expand(new):
            assert not new.flags.writeable
            calls.append(new.copy())
            return np.stack([A @ new, new @ A], axis=1).reshape(-1, 3, 3)

        G = random_complex(rng, (3, 3))
        # a Hermitian seed whose candidates are not: the basis must stay orthonormal
        sub = closure([G + G.conj().T], expand)
        assert sub.dim == 9
        # one call per generation, none empty: the seed, then the elements each call's
        # candidates added, so that the stacks in turn are the basis, each element once
        assert len(calls[0]) == 1 and all(len(new) for new in calls)
        assert sum(len(new) for new in calls) == sub.dim
        assert np.concatenate(calls).tobytes() == sub.basis.tobytes()
        for i, Bi in enumerate(sub.basis):
            for j, Bj in enumerate(sub.basis):
                assert hs_inner(Bi, Bj) == pytest.approx(float(i == j), abs=1e-12)

    def test_one_call_per_generation_of_the_orbit(self):
        # E_ij -> E_(i+1)j and E_i(j+1) from E_00: generation g holds the E_ij with i + j = g,
        # each candidate in the order of its element, then of the two maps
        L = np.eye(3, k=-1)
        calls = []

        def expand(new):
            calls.append(len(new))
            return np.stack([L @ new, new @ L.T], axis=1).reshape(-1, 3, 3)

        def unit(i, j):
            return np.outer(np.eye(3)[i], np.eye(3)[j])

        sub = closure([unit(0, 0)], expand)
        assert calls == [1, 2, 3, 2, 1]
        order = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (2, 1), (1, 2), (2, 2)]
        assert np.array_equal(sub.basis, [unit(i, j) for i, j in order])

    def test_real_seeds_give_real_basis(self, rng):
        A = rng.standard_normal((3, 3))
        sub = closure([rng.standard_normal((3, 3))], per_element(lambda X: [A @ X, X @ A]))
        assert sub.dim == 9
        assert all(B.dtype == np.float64 for B in sub.basis)
        gram = sub.stacked().conj() @ sub.stacked().T
        assert np.linalg.norm(gram - np.eye(9)) <= 1e-13
        assert closure([np.eye(2), [[0, 1], [1, 0]]]).basis[1].dtype == np.float64

    @pytest.mark.parametrize("imag", [0.0, 1.0], ids=["zero_imaginary_part", "imaginary"])
    def test_complex_candidate_in_real_closure_rejected(self, imag, rng):
        # even a candidate complex only in its dtype is refused, never cast, in every generation
        X = rng.standard_normal((3, 3))
        calls = []

        def expand(new):
            calls.append(len(new))
            return new @ X if len(calls) == 1 else (new + 1j * imag * new) @ X

        with pytest.raises(ValueError, match="^complex candidate in a closure of real operators$"):
            closure([X], expand)
        assert calls == [1, 1]
        # a complex op makes the closure complex, where real candidates are welcome
        assert closure([X + 0j], lambda new: (new @ X).real).basis[0].dtype == np.complex128

    @pytest.mark.parametrize("imag", [0.0, 1.0], ids=["zero_imaginary_part", "imaginary"])
    def test_complex_stack_in_real_closure_rejected(self, imag, rng):
        # a stack of candidates is checked once, on its dtype
        X = rng.standard_normal((3, 3))
        with pytest.raises(ValueError, match="^complex candidate in a closure of real operators$"):
            closure([X], lambda new: np.stack([new[0] @ X, X + 1j * imag * X]))
        assert closure([X + 0j], lambda new: np.stack([new[0] @ X])).basis[0].dtype == np.complex128

    @pytest.mark.parametrize("where", ["first_projection", "second_projection"])
    def test_reports_largest_dropped_residual(self, where, paulis):
        # X + eps Z leaves residual eps Z: against X held before its block, it is dropped by
        # the first projection; next to X in one block, by the second, after X is added
        X, Y, Z = paulis["x"], paulis["y"], paulis["z"]
        eps = 1e-10
        if where == "first_projection":
            sub = closure([X, Y], first_generation([X + eps * Z, Y + eps / 2 * Z]))
        else:
            sub = closure([X, X + eps * Z, Y, Y + eps / 2 * Z])
        assert sub.dim == 2
        assert sub.dropped == pytest.approx(eps * np.linalg.norm(Z), rel=1e-6)
        assert closure([X, Y], first_generation([Z])).dropped == 0.0

    def test_nan_candidate_makes_dropped_nan(self, paulis):
        # a NaN candidate is kept nowhere, so the closure reports it instead of a span short of it
        X, Y = paulis["x"], paulis["y"]
        sub = closure([X], first_generation([np.full((2, 2), np.nan), Y]))
        assert sub.dim == 1 and np.isnan(sub.dropped)
        # the side of the decision that was kept is still read: X, whole
        assert sub.kept == pytest.approx(np.linalg.norm(X), rel=1e-15)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_reports_smallest_kept_residual(self, dtype, paulis):
        # X, then X + eps Z in the next generation, leaves eps Z: kept at eps above tol, and the
        # smallest residual kept, absolute as the dropped one is; 2 X and Z alone keep ||Z||
        X, Z = paulis["x"].real.astype(dtype), paulis["z"].real.astype(dtype)
        eps = 1e-6
        sub = closure([2 * X], first_generation([X + eps * Z, Z]))
        assert sub.dim == 2 and sub.dropped <= 1e-15
        assert sub.kept == pytest.approx(eps * np.linalg.norm(Z), rel=1e-6)
        assert closure([2 * X, Z]).kept == pytest.approx(np.linalg.norm(Z), rel=1e-15)
        # a subspace given its basis kept nothing, as it dropped nothing
        assert OperatorSubspace(2, (X,)).kept == math.inf

    def test_zero_tol_stops_at_full_space(self, rng):
        A = random_complex(rng, (3, 3))
        expanded = []

        def expand(new):
            # without a cap, rounding noise passes tol=0 and the basis never stops growing
            expanded.extend(new)
            assert len(expanded) <= 9, "closure expanded more than n^2 basis elements"
            return np.stack([A @ new, new @ A], axis=1).reshape(-1, 3, 3)

        sub = closure([random_complex(rng, (3, 3))], expand, tol=0.0)
        assert sub.dim == 9 and len(expanded) == 9

    def test_no_candidates_run_no_gram_schmidt(self, monkeypatch, paulis):
        # the ops, then the one generation with candidates: the empty one ends the closure
        calls = []
        gram_schmidt = operators._gram_schmidt
        monkeypatch.setattr(operators, "_gram_schmidt", lambda *a: (calls.append(len(a[2])), gram_schmidt(*a))[1])
        X, Y, Z = paulis["x"], paulis["y"], paulis["z"]
        expand = first_generation([Z])
        sub = closure([X, Y], expand)
        assert sub.dim == 3 and calls == [2, 1] and expand.calls == [2, 1]


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
        scale = max(scale, np.linalg.norm(v))
        for _ in range(2):
            v = v - (Q @ v.conj()).conj() @ Q
        res = np.linalg.norm(v)
        if res > tol * scale:
            B = unvec(v / res, n)
            if hermitian:
                B = (B + B.conj().T) / 2
                B /= np.linalg.norm(B)
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
    assert_same_span(algebra_closure(nperp), algebra_one_by_one(nperp_ref.basis))


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
        orbit = hermitian_closure(sites, lambda H: [ev(H)])
        assert orbit.dim == n * n
        assert_same_span(orbit, closure_one_by_one(sites, lambda b, i: [ev(b[i])]))

    def test_block_algebras_match_one_by_one(self):
        for ops in acceptance_block_generators():
            assert_same_span(algebra_closure(ops), algebra_one_by_one(ops))

    def test_dependent_candidates_in_one_block(self, paulis):
        X, Y, Z = paulis["x"], paulis["y"], paulis["z"]
        sub = closure([Z], first_generation([X, 2 * X, X + Y, Y]))
        assert sub.dim == 3
        assert_same_span(sub, closure([X, Y, Z]))

    def test_running_max_inside_block(self, paulis):
        # Y is tested against the norms seen up to it, 1e-6 |X|, not the block's 1e3 |Z|
        X, Y, Z = paulis["x"], paulis["y"], paulis["z"]
        sub = closure([1e-6 * X], first_generation([1e-14 * Y, 1e3 * Z]))
        assert sub.dim == 3
        assert residual(sub, Y) <= 1e-12

    def test_zero_tol_cap_inside_block(self, rng):
        block = [random_complex(rng, (3, 3)) for _ in range(20)]
        sub = closure([random_complex(rng, (3, 3))], first_generation(block), tol=0.0)
        assert sub.dim == 9
        gram = sub.stacked().conj() @ sub.stacked().T
        assert np.linalg.norm(gram - np.eye(9)) <= 1e-12

    def test_near_dependent_candidates_are_projected_twice(self, rng):
        # one projection, against the basis before the block or against an element
        # the block added, would leave overlaps near eps / 1e-7
        A, B, C, D = (random_complex(rng, (4, 4)) for _ in range(4))
        block = [A + 1e-7 * B, C, C + 1e-7 * D]
        sub = closure([A], first_generation(block))
        assert sub.dim == 4
        gram = sub.stacked().conj() @ sub.stacked().T
        assert np.linalg.norm(gram - np.eye(4)) <= 1e-13

    def test_non_hermitian_candidate_joins_complex_span(self, paulis):
        # E = (X + iY)/2 leaves the anti-Hermitian iY/2 once Z and X are projected out
        X, Z = paulis["x"], paulis["z"]
        E = np.array([[0, 1], [0, 0]], dtype=complex)
        sub = closure([Z], first_generation([X, E]))
        assert sub.dim == 3
        assert residual(sub, E) <= 1e-12

    def test_rectangular_candidates(self, rng):
        # 4 x 2 orbits: the first element keeps its Hermitian-looking top square as it is
        A = random_complex(rng, (4, 4))
        V = np.vstack([np.eye(2), np.zeros((2, 2))]).astype(complex)
        sub = closure([V], per_element(lambda X: [A @ X, A.conj().T @ X]), tol=0.0)
        assert sub.dim == 8 and all(B.shape == (4, 2) for B in sub.basis)
        gram = sub.stacked().conj() @ sub.stacked().T
        assert np.linalg.norm(gram - np.eye(8)) <= 1e-12
        assert np.linalg.norm(sub.basis[0] - V / np.sqrt(2)) <= 1e-15
        for X in (A @ V, A.conj().T @ V, random_complex(rng, (4, 2))):
            assert residual(sub, X) <= 1e-12 * np.linalg.norm(X)

    @pytest.mark.parametrize("block", [
        pytest.param([PAULI["x"], np.eye(3)], id="3x3"),
        pytest.param([np.ones(4)], id="flat"),
        pytest.param(np.ones((2, 3, 3)), id="3x3_stack"),
        pytest.param(np.ones((1, 4)), id="flat_stack"),
        pytest.param([PAULI["x"]], id="list"),
        pytest.param(PAULI["x"], id="one_operator"),
        pytest.param(np.ones(4), id="flat_operator"),
    ])
    def test_wrong_shape_in_block_rejected(self, paulis, block):
        # the candidates are one stack of operators of the ops' shape: a list, even of 2x2
        # operators, is refused, as is a flattened 2x2, though it has the right number of entries
        with pytest.raises(ValueError, match="^operators must share a common shape$"):
            closure([paulis["z"]], lambda new: block)

    def test_ops_of_different_shapes_rejected(self, paulis):
        with pytest.raises(ValueError, match="^operators must share a common shape$"):
            closure([paulis["z"], np.eye(3)])
        with pytest.raises(ValueError, match="^need at least one operator$"):
            closure([])


def ising_plus_ce(N):
    """Ising N, p=0.5, observing only the identity and sigma_+ = (x + iy)/2 on qubit 1."""
    ce = ising_chain(N, 0.5, 0.3)
    plus = np.kron((PAULI["x"] + 1j * PAULI["y"]) / 2, np.eye(2 ** (N - 1)))
    output = OutputMap(names=("identity", "plus"), observables=(np.eye(2**N), plus))
    return with_output(ce, output)


class TestHermitianClosure:
    """The closure on real coordinates Re H + Im H and its exactly Hermitian basis."""

    @pytest.mark.parametrize("make", [
        *(pytest.param(lambda N=N, p=p: ising_chain(N, p, 0.3), id=f"ising{N}-p{p}")
          for N in (4, 5) for p in (0.0, 0.5)),
        *(pytest.param(lambda n=n: measured_quantum_walk(n, seed=n), id=f"walk{n}") for n in range(3, 7)),
    ])
    def test_nperp_basis_exactly_hermitian_and_orthonormal(self, make):
        nperp = nonobservable_complement(make())
        assert all(np.array_equal(B, B.conj().T) for B in nperp.basis)
        Q = nperp.stacked()
        assert np.linalg.norm(Q.conj() @ Q.T - np.eye(nperp.dim)) <= 1e-13

    def test_real_coordinates_round_trip_exactly(self):
        # X = Re H + Im H = [[1, 1], [-1, 1]] has norm 2, so every step is exact
        H = np.array([[1, 1j], [-1j, 1]])
        sub = hermitian_closure([H])
        assert sub.dim == 1 and np.array_equal(sub.basis[0], H / 2)

    @pytest.mark.parametrize("shape", [(18, 8, 8), (18, 32, 32), (18, 64, 64), (3, 5, 2, 2), (0, 4, 4),
                                       (3, 300, 300)])
    def test_real_coordinates_of_a_stack_match_one_matrix_at_a_time(self, shape, rng):
        # in slabs of several matrices, of one, and with a short last slab, bit for bit
        X = rng.standard_normal(shape)
        assert operators._from_real_coordinates(X).tobytes() == from_real_coordinates_loop(X).tobytes()

    def test_real_coordinates_are_isometric(self, rng):
        Hs = [G + G.conj().T for G in (random_complex(rng, (4, 4)) for _ in range(6))]
        sub = hermitian_closure(Hs)
        assert sub.dim == 6
        assert all(np.array_equal(B, B.conj().T) for B in sub.basis)
        # Gram-Schmidt in real coordinates gives an HS-orthonormal basis only through an isometry
        Q = sub.stacked()
        assert np.linalg.norm(Q.conj() @ Q.T - np.eye(6)) <= 1e-13
        assert np.linalg.norm(sub.basis[0] - Hs[0] / np.linalg.norm(Hs[0])) <= 1e-15
        for H in Hs:
            assert residual(sub, H) <= 1e-13 * np.linalg.norm(H)
            coords = np.array([hs_inner(B, H) for B in sub.basis])
            assert np.max(np.abs(coords.imag)) <= 1e-13 * np.linalg.norm(H)

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: ising_chain(4, 0.5, 0.3), id="ising4"),
        pytest.param(lambda: measured_quantum_walk(5, seed=5), id="walk5"),
    ])
    def test_stacked_expansion_matches_one_element_at_a_time(self, make):
        # each generation goes through the maps in one call, and the closure sees the
        # candidates of expanding one element at a time, in the same order
        ce = make()
        images = ce.dual_images()
        calls = []
        one_at_a_time = per_element(
            lambda X: [Y.real + Y.imag for Y in images((X + X.T) / 2 + 1j * (X - X.T) / 2)])

        def counted(H):
            calls.append(len(H))
            return images(H)

        gens = [P.real + P.imag for O in ce.output.observables for P in ((O + O.conj().T) / 2,
                                                                           (O - O.conj().T) / 2j)]
        ref = closure(gens, one_at_a_time)
        sub = hermitian_closure(list(ce.output.observables), counted)
        assert sub.dim == ref.dim and sum(calls) == sub.dim and len(calls) < sub.dim
        Q, R = sub.stacked(), ref.basis.reshape(ref.dim, -1)
        assert np.max(np.abs((Q.real + Q.imag) - R)) <= 1e-12

    def test_non_hermitian_op_enters_through_both_hermitian_parts(self, paulis):
        # the complex span of {1, sigma_+} is invariant under the identity map; its
        # Hermitian closure holds both Hermitian parts of sigma_+, x / 2 and y / 2
        plus = (paulis["x"] + 1j * paulis["y"]) / 2
        sub = hermitian_closure([np.eye(2), plus], lambda H: [H])
        assert sub.dim == 3
        assert_same_span(sub, closure([np.eye(2), paulis["x"], paulis["y"]]))

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: ising_plus_ce(4), id="ising4_sigma_plus"),
        pytest.param(lambda: non_hermitian_outputs_ce(np.random.default_rng(5)), id="random_non_hermitian"),
    ])
    def test_non_hermitian_observables_reduce_exactly(self, make):
        ce = make()
        red = reduce_ce(ce)
        assert equivalence_check(ce, red).passed
        duals = [ce.instrument.maps[k].adjoint() for k in ce.outcomes]
        parts = [P for O in ce.output.observables for P in hermitian_parts(O)]
        assert_same_span(red.nperp, closure_one_by_one(parts, lambda b, i: [S(b[i]) for S in duals]))
        assert all(np.array_equal(B, B.conj().T) for B in red.nperp.basis)

    @pytest.mark.parametrize("name", sorted(REALIZATION_MODELS))
    @pytest.mark.parametrize("span", ["nperp", "realization"])
    def test_basis_bit_identical_to_listed_images(self, name, span):
        # the oracle lists each map's real coordinates of one generation's images, and
        # stacks them element-major as the closure's candidates
        ce = REALIZATION_MODELS[name]()
        gens = list(ce.output.observables)
        if span == "realization":
            gens = [np.eye(ce.dim, dtype=complex), *gens]
        images = ce.dual_images()

        def expand(new):
            block = [Y.real + Y.imag for Y in images(operators._from_real_coordinates(new))]
            return np.stack(block, axis=1).reshape(-1, *new.shape[1:])

        parts = [P.real + P.imag for O in gens for P in hermitian_parts(O)]
        ref = closure(parts, expand, REALIZATION_TOL)
        sub = hermitian_closure(gens, images, REALIZATION_TOL)
        assert sub.basis.tobytes() == operators._from_real_coordinates(ref.basis).tobytes()
        assert sub.dropped == ref.dropped

    @pytest.mark.parametrize("name", ["ising4_p0.5", "walk5", "random"])
    def test_blocks_hold_the_images_of_every_element(self, name):
        ce = REALIZATION_MODELS[name]()
        blocks = []
        sub = hermitian_closure(ce.output.observables, ce.dual_images(), REALIZATION_TOL, blocks)
        assert all(X.shape[1:] == (len(ce.outcomes), ce.dim, ce.dim) and X.dtype == np.float64 for X in blocks)
        X = np.concatenate(blocks)
        assert len(X) == sub.dim
        for k, Y in enumerate(ce.dual_images()(sub.basis)):
            assert np.max(np.abs(X[:, k] - (Y.real + Y.imag))) <= 1e-14 * np.max(np.abs(Y))


class TestMapCoordinates:
    """Rows of map_coordinates against the dense matrices' HS geometry."""

    @pytest.mark.parametrize("shape", [(3, 3), (2, 4), (4, 2)], ids=["square", "wide", "tall"])
    def test_inner_products_and_combinations(self, shape, rng):
        maps = [Superoperator(kraus=[random_complex(rng, shape) for _ in range(r)]) for r in (1, 3, 1, 3)]
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
        sa, sb, sab = Superoperator(kraus=[A]), Superoperator(kraus=[B]), Superoperator(kraus=[A, B])
        x = map_coordinates([sa, sb, sab])
        scale = np.linalg.norm(x[2])
        assert np.linalg.norm(x[2] - x[0] - x[1]) <= 1e-14 * scale

    def test_matrix_input_matches_kraus_twin(self, rng):
        S = Superoperator(kraus=[random_complex(rng, (3, 3)) for _ in range(2)])
        x = map_coordinates([S, Superoperator(S.matrix)])
        assert np.linalg.norm(x[1] - x[0]) <= 1e-12 * np.linalg.norm(x[0])


class TestSuperopFromKraus:
    def test_identity(self):
        S = Superoperator(kraus=[np.eye(3)])
        assert np.allclose(S.matrix, np.eye(9))

    def test_full_amplitude_damping(self, rng):
        K0 = np.array([[1, 0], [0, 0]], dtype=complex)
        K1 = np.array([[0, 1], [0, 0]], dtype=complex)
        S = Superoperator(kraus=[K0, K1])
        G = random_complex(rng, (2, 2))
        rho = G @ G.conj().T
        rho /= np.trace(rho)
        assert np.allclose(S(rho), proj(2, 0), atol=1e-12)

    def test_matches_direct_sum_oracle(self, rng):
        kraus = [random_complex(rng, (3, 3)) for _ in range(2)]
        S = Superoperator(kraus=kraus)
        for _ in range(50):
            X = random_complex(rng, (3, 3))
            direct = sum(K @ X @ K.conj().T for K in kraus)
            assert np.linalg.norm(S(X) - direct) < 1e-12

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            Superoperator(kraus=[])

    def test_kraus_consistency(self, rng):
        kraus = [random_complex(rng, (2, 2)) for _ in range(2)]
        M = sum(np.kron(K.conj(), K) for K in kraus)
        assert np.linalg.norm(Superoperator(kraus=kraus).matrix - M) < 1e-14 * np.linalg.norm(M)


class TestAdjointCompose:
    def test_adjoint_involution(self, rng):
        S = Superoperator(kraus=[random_complex(rng, (3, 3))])
        assert np.allclose(S.adjoint().adjoint().matrix, S.matrix)

    def test_hs_adjoint_identity(self, rng):
        S = Superoperator(kraus=[random_complex(rng, (3, 3)) for _ in range(2)])
        Sd = S.adjoint()
        for _ in range(10):
            A = random_complex(rng, (3, 3))
            B = random_complex(rng, (3, 3))
            lhs = hs_inner(A, S(B))
            rhs = hs_inner(Sd(A), B)
            assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), 1)

    def test_compose_is_matrix_product(self, rng):
        S1 = Superoperator(kraus=[random_complex(rng, (3, 3))])
        S2 = Superoperator(kraus=[random_complex(rng, (3, 3))])
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
        return Superoperator(kraus=kraus), via_kraus

    def test_apply_matches_dense_matvec(self, case, rng):
        S, via_kraus = case
        # white box: the form fixed at construction, the support found on the first apply,
        # and the matrix not yet built
        assert S._rows is None
        assert S.form == ("products" if via_kraus else "matrix")
        X = random_complex(rng, (S.in_dim, S.in_dim))
        Y = S(X)
        assert (S._rows is not None) == via_kraus
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
        T = Superoperator(kraus=[random_complex(rng, (S.in_dim, 2)) for _ in range(2)])
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
        S = Superoperator(kraus=[random_complex(rng, (no, ni)) for _ in range(r)])
        X = random_complex(rng, (*lead, ni, ni))
        Y = S(X)
        assert (S._rows is not None) == via_kraus
        assert Y.shape == (*lead, no, no)
        for idx in np.ndindex(*lead):
            ref = sum(K @ X[idx] @ K.conj().T for K in S.kraus)
            assert np.linalg.norm(Y[idx] - ref) <= 1e-13 * np.linalg.norm(ref)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_bad_trailing_shape_rejected(self, name, rng):
        r, no, ni, _ = self.CASES[name]
        S = Superoperator(kraus=[random_complex(rng, (no, ni)) for _ in range(r)])
        for shape in [(ni,), (2, ni, ni + 1), (2, ni + 1, ni), (3, 2, ni, 1)]:
            with pytest.raises(ValueError):
                S(np.zeros(shape))

    @pytest.mark.parametrize("observables", ["ising", "random"])
    def test_output_map_stack_matches_slices(self, observables, rng):
        ce = ising_chain(4, 0.5, 0.3)
        if observables == "random":
            # neither Hermitian nor symmetric, so a transposed contraction shows
            obs = tuple(random_complex(rng, (2, 16, 16)))
            ce = with_output(ce, OutputMap(names=("a", "b"), observables=obs))
        out = ce.output
        X = random_complex(rng, (2, 3, 16, 16))
        # the readout's output rows act on the row-major flattening of each operator
        Y = X.reshape(2, 3, 256) @ ce.readout()[len(ce.outcomes):].T
        assert Y.shape == (2, 3, len(out.observables))
        for idx in np.ndindex(2, 3):
            ref = np.array([np.trace(O @ X[idx]) for O in out.observables])
            assert np.linalg.norm(Y[idx] - ref) <= 1e-13 * np.linalg.norm(ref)


def general_products_apply(S, X):
    """Oracle: the products form for r Kraus operators, [K_1 ... K_r] @ stack_i(X K_i^dag),
    through its reshapes."""
    ni, no, r = S.in_dim, S.out_dim, len(S.kraus)
    lead = X.shape[:-2]
    rows = np.hstack(S.kraus)
    cols = np.hstack([K.conj().T for K in S.kraus])
    Y = (X @ cols).reshape(*lead, ni, r, no)
    return rows @ Y.swapaxes(-3, -2).reshape(*lead, r * ni, no)


class TestOneKrausApply:
    """A one-Kraus map in the products form applies as K (X K^dag), with no reshape: the
    general formula's products, byte for byte; two Kraus operators still go through it."""

    @pytest.mark.parametrize("r", [1, 2])
    @pytest.mark.parametrize("lead", [(), (3,)], ids=str)
    @pytest.mark.parametrize("shape", [(16, 16), (8, 32), (32, 8)], ids=str)
    def test_matches_the_general_formula_byte_for_byte(self, shape, lead, r, rng):
        S = Superoperator(kraus=[random_complex(rng, shape) for _ in range(r)])
        for T in (S, S.adjoint()):
            assert T.form == "products"
            X = random_complex(rng, (*lead, T.in_dim, T.in_dim))
            Y = T(X)
            assert Y.shape == (*lead, T.out_dim, T.out_dim)
            assert Y.tobytes() == general_products_apply(T, X).tobytes()

    def test_zoo_instrument_maps_have_one_kraus_operator(self):
        ce = ising_chain(4, 0.5, 0.3)
        for S in (*ce.instrument.maps.values(), ce.evolution, ce.evolution.adjoint()):
            assert len(S.kraus) == 1 and S.form == "products"


def matmul_apply(S, X):
    """Oracle: one operator's image through ``@`` alone, in the form S applies in."""
    ni, no = S.in_dim, S.out_dim
    if S.form == "elementwise":
        return X * S._weights
    if S.form == "matrix":
        v = X.reshape(ni * ni, order="F")
        return (v @ S.matrix.T).reshape(no, no, order="F")
    return general_products_apply(S, X)


class TestOneOperatorApply:
    """In the products form one operator takes its products through ndarray.dot, a stack
    through @: the bytes of the operator's image in a stack of one, and of the formula
    through @, in every form and layout, a strided view included."""

    CASES = {
        # name: (Kraus operators of this (out_dim, in_dim), diagonal, the form)
        "elementwise": (2, (6, 6), True, "elementwise"),
        "products_r1_square": (1, (16, 16), False, "products"),
        "products_r3_square": (3, (16, 16), False, "products"),
        "products_r1_rectangular": (1, (8, 32), False, "products"),
        "products_r3_rectangular": (3, (8, 32), False, "products"),
        "matrix_square": (2, (8, 8), False, "matrix"),
        "matrix_rectangular": (2, (4, 3), False, "matrix"),
    }

    @pytest.mark.parametrize("layout", ["C", "F", "read-only", "strided"])
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_bytes_of_a_stack_of_one_and_of_the_matmul_formula(self, name, layout, rng):
        r, shape, diagonal, form = self.CASES[name]
        if diagonal:
            kraus = [np.diag(random_complex(rng, shape[:1])) for _ in range(r)]
        else:
            kraus = [random_complex(rng, shape) for _ in range(r)]
        S = Superoperator(kraus=kraus)
        for T in (S, S.adjoint()):
            assert T.form == form
            X = random_complex(rng, (T.in_dim, T.in_dim))
            if layout == "F":
                X = np.asfortranarray(X)
                assert not X.flags.c_contiguous
            elif layout == "read-only":
                X.flags.writeable = False
            elif layout == "strided":
                X = random_complex(rng, (2 * T.in_dim, 2 * T.in_dim))[::2, ::2]
                assert not (X.flags.c_contiguous or X.flags.f_contiguous)
            Y = T(X)
            assert Y.shape == (T.out_dim, T.out_dim)
            assert Y.tobytes() == T(X[None])[0].tobytes()
            assert Y.tobytes() == matmul_apply(T, X).tobytes()


def support_kinds(n, rng):
    """Sorted index sets of 0..n-1, by kind: arithmetic ones, another, one, none and all."""
    other = np.sort(rng.choice(n, n // 2, replace=False))
    while len(set(np.diff(other).tolist())) < 2:
        other = np.sort(rng.choice(n, n // 2, replace=False))
    return {"stride3": np.arange(1, n, 3), "halves": np.arange(n // 2, n), "random": other,
            "one": np.array([n - 2]), "empty": np.array([], dtype=int), "full": np.arange(n)}


class TestSupportApply:
    """A products-form map applies on the rows R and columns C where some Kraus operator is
    nonzero: X_CC goes through K_RC, and the image is zero outside R x R."""

    @pytest.mark.parametrize("p", [0.0, 0.5])
    @pytest.mark.parametrize("N", [4, 5, 6, 7])
    def test_zoo_maps_match_the_full_size_products_byte_for_byte(self, N, p, rng):
        ce = ising_chain(N, p, 0.3)
        n = ce.dim
        for k, S in ce.instrument.maps.items():
            adjoint = S.adjoint()
            for T in (S, adjoint):
                assert T.form == "products"
                X = random_complex(rng, (n, n))
                strided = random_complex(rng, (2 * n, 2 * n))[::2, ::2]
                for Y in (X, np.asfortranarray(X), strided):
                    assert T(Y).tobytes() == general_products_apply(T, Y).tobytes()
                stack = random_complex(rng, (3, n, n))
                for Y in (stack, stack[:, ::-1]):
                    assert T(Y).tobytes() == general_products_apply(T, Y).tobytes()
            # U P_k is nonzero on every other column, its adjoint on every other row
            assert (S._in is not None, S._out) == (k != "-1", None)
            assert (adjoint._in, adjoint._out is not None) == (None, k != "-1")

    @pytest.mark.parametrize("r", [1, 3])
    @pytest.mark.parametrize("shape", [(16, 16), (12, 24), (24, 12)], ids=str)
    def test_random_supports_match_the_kraus_sum(self, shape, r, rng):
        no, ni = shape
        rows, cols = support_kinds(no, rng), support_kinds(ni, rng)
        for (rk, R), (ck, C) in itertools.product(rows.items(), cols.items()):
            kraus = np.zeros((r, no, ni), dtype=complex)
            kraus[:, R[:, None], C] = random_complex(rng, (r, len(R), len(C)))
            S = Superoperator(kraus=list(kraus))
            X = random_complex(rng, (2, ni, ni))
            ref = np.array([sum(K @ Xi @ K.conj().T for K in kraus) for Xi in X])
            for Y, want in ((X, ref), (X[0], ref[0])):
                got = S(Y)
                assert got.shape == want.shape
                assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)
            if S.form != "products":
                continue
            if "empty" in (rk, ck):  # the zero map: no row and no column
                rk = ck = "empty"
            # white box: a single index or all of them apply at full size, an arithmetic
            # support through a view, any other through its index arrays
            for kind, key in ((rk, S._out), (ck, S._in)):
                if kind in ("one", "full"):
                    assert key is None
                elif kind == "random":
                    assert not isinstance(key[1], slice)
                else:
                    assert isinstance(key[1], slice)
            if ck in ("stride3", "halves"):
                assert np.shares_memory(X[S._in], X)

    @pytest.mark.parametrize("lead", [(), (2,)], ids=str)
    def test_nan_outside_the_columns_leaves_the_image_finite(self, lead, rng):
        # 0 * NaN is NaN, so the full-size products would spread it over the image
        n = 16
        kraus = np.zeros((2, n, n), dtype=complex)
        kraus[:, :, ::2] = random_complex(rng, (2, n, n // 2))
        S = Superoperator(kraus=list(kraus))
        X = random_complex(rng, (*lead, n, n))
        clean = S(X)
        X[..., 1, 1] = X[..., 0, 3] = X[..., 5, 2] = np.nan
        Y = S(X)
        assert np.isfinite(Y).all()
        assert Y.tobytes() == clean.tobytes()

    def test_a_single_column_applies_at_full_size(self, rng):
        # numpy takes a 1 x 1 operand of ndarray.dot through its scalar kernel, whose rounding
        # would part one operator's image from its image in a stack
        for S in measured_quantum_walk(10, seed=0).instrument.maps.values():
            X = random_complex(rng, (10, 10))
            assert S(X).tobytes() == S(X[None])[0].tobytes()
            assert S.form == "products" and S._rows is not None
            assert S._in is None and S._out is None

    def test_the_support_is_found_on_the_first_apply_and_kept(self, monkeypatch, rng):
        # reduce_ce and equivalence_check build a split model's composed instrument maps but
        # apply only the evolution's and the effects' duals, so no support is found for them
        ce = ising_chain(4, 0.5, 0.3)
        red = reduce_ce(ce)
        equivalence_check(ce, red)
        maps = list(ce.instrument.maps.values())
        assert all(S.form == "products" and S._rows is None for S in maps)
        X = random_complex(rng, (ce.dim, ce.dim))
        first = [S(X) for S in maps]
        assert all(S._rows is not None for S in maps)

        def refuse(*args):
            raise AssertionError("a second apply looked for the support")

        monkeypatch.setattr(operators, "_support", refuse)
        assert [S(X).tobytes() for S in maps] == [Y.tobytes() for Y in first]
        assert [S(X[None])[0].tobytes() for S in maps] == [Y.tobytes() for Y in first]

    def test_zero_map_maps_everything_to_zero(self):
        S = Superoperator(kraus=[np.zeros((16, 32))])
        assert S.form == "products"
        X = np.full((2, 32, 32), np.nan, dtype=complex)
        assert S(X).shape == (2, 16, 16) and not S(X).any() and not S(X[0]).any()


# The form each map applied in before maps applied on their support, by kind of map; each
# kind's adjoints apply in its form too
ISING_FORMS = {"evolution": "products", "effect": "elementwise", "map": "products",
               "reduced": "matrix", "R": "matrix", "J": "matrix"}


def walk_forms(n):
    # a one-Kraus map on n x n operators takes its products from n = 9 up
    small = "products" if n >= 9 else "matrix"
    return {**ISING_FORMS, "evolution": small, "map": small}


def maps_by_kind(ce):
    """(kind, map) for the split parts, the composed maps, the reduced maps, R and J, each
    map followed by its adjoint."""
    red = reduce_ce(ce)
    maps = [("evolution", ce.evolution), *(("effect", S) for S in ce.effects.values()),
            *(("map", S) for S in ce.instrument.maps.values()),
            *(("reduced", S) for S in red.model.instrument.maps.values()),
            ("R", red.factorization.R), ("J", red.factorization.J)]
    return [(kind, T) for kind, S in maps for T in (S, S.adjoint())]


class TestFormGuard:
    """Restricting the products to the support moves no map to another form."""

    @pytest.mark.parametrize("p", [0.0, 0.5])
    @pytest.mark.parametrize("N", [4, 5, 6, 7, 8])
    def test_ising(self, N, p):
        for kind, S in maps_by_kind(ising_chain(N, p, 0.3)):
            assert S.form == ISING_FORMS[kind], kind

    @pytest.mark.parametrize("n", range(3, 11))
    def test_walk(self, n):
        forms = walk_forms(n)
        for kind, S in maps_by_kind(measured_quantum_walk(n, seed=0)):
            assert S.form == forms[kind], kind


class TestElementwiseApply:
    """A square map whose Kraus operators are all exactly diagonal applies as X -> X o W.

    Each result is checked against sum_i K_i X K_i^dag written out.
    """

    @staticmethod
    def kraus_apply(kraus, X):
        return sum(K @ X @ K.conj().T for K in kraus)

    @pytest.fixture(params=[(1, 6), (3, 6), (2, 16), (4, 3)], ids=lambda c: f"r{c[0]}_n{c[1]}")
    def diag(self, request, rng):
        r, n = request.param
        return [np.diag(random_complex(rng, (n,))) for _ in range(r)]

    def test_form_chosen_at_construction(self, diag):
        S = Superoperator(kraus=diag)
        # white box: neither the Kraus products nor the matrix
        assert S._weights is not None and S._rows is None
        assert S._weights.shape == (S.in_dim, S.in_dim)
        assert S.form == "elementwise"
        S(np.eye(S.in_dim))
        assert S._matrix is None

    def test_real_diagonals_give_real_weights(self, rng):
        S = Superoperator(kraus=[np.diag(rng.standard_normal(5)) for _ in range(2)])
        assert S._weights.dtype == np.float64
        assert S(np.eye(5)).dtype == np.complex128

    @pytest.mark.parametrize("lead", [(), (1,), (5,), (2, 3)], ids=str)
    def test_apply_matches_kraus_products(self, diag, lead, rng):
        S = Superoperator(kraus=diag)
        X = random_complex(rng, (*lead, S.in_dim, S.in_dim))
        Y = S(X)
        assert Y.shape == X.shape
        for idx in np.ndindex(*lead):
            ref = self.kraus_apply(diag, X[idx])
            assert np.linalg.norm(Y[idx] - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_adjoint(self, diag, rng):
        Sd = Superoperator(kraus=diag).adjoint()
        assert Sd._weights is not None
        X = random_complex(rng, (3, Sd.in_dim, Sd.in_dim))
        for Xi, Yi in zip(X, Sd(X)):
            ref = self.kraus_apply([K.conj().T for K in diag], Xi)
            assert np.linalg.norm(Yi - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_compose_with_diagonal_right_factor(self, diag, rng):
        n = diag[0].shape[0]
        dense = [random_complex(rng, (n, n)) for _ in range(2)]
        ST = Superoperator(kraus=dense) @ Superoperator(kraus=diag)
        # A_i B_j in the order of the products, the columns of A_i scaled
        products = [A @ B for A in dense for B in diag]
        assert len(ST.kraus) == len(products)
        for K, ref in zip(ST.kraus, products):
            assert np.linalg.norm(K - ref) <= 1e-12 * np.linalg.norm(ref)
        X = random_complex(rng, (n, n))
        ref = self.kraus_apply(products, X)
        assert np.linalg.norm(ST(X) - ref) <= 1e-12 * np.linalg.norm(ref)
        # two diagonal factors compose to a diagonal map
        DD = Superoperator(kraus=diag) @ Superoperator(kraus=diag)
        assert DD._weights is not None
        ref = self.kraus_apply([A @ B for A in diag for B in diag], X)
        assert np.linalg.norm(DD(X) - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("n, via_kraus", [(16, True), (3, False)])
    def test_one_off_diagonal_entry_keeps_kraus_or_dense_form(self, n, via_kraus, rng):
        kraus = [np.diag(random_complex(rng, (n,))) for _ in range(2)]
        kraus[1][n - 1, 0] = 1e-300
        S = Superoperator(kraus=kraus)
        assert S._weights is None
        X = random_complex(rng, (n, n))
        ref = self.kraus_apply(kraus, X)
        assert np.linalg.norm(S(X) - ref) <= 1e-12 * np.linalg.norm(ref)
        assert (S._rows is not None) == via_kraus

    def test_rectangular_diagonal_is_not_elementwise(self):
        S = Superoperator(kraus=[np.eye(3, 4)])
        assert S._weights is None
        assert np.array_equal(S(np.eye(4)), np.diag([1, 1, 1]).astype(complex))

    def test_wrong_size_rejected(self, diag):
        S = Superoperator(kraus=diag)
        n = S.in_dim
        for shape in [(n + 1, n + 1), (n, n + 1), (2, n + 1, n), (n,)]:
            with pytest.raises(ValueError):
                S(np.zeros(shape))


def factor_with_copies(matrix):
    """The Kraus list, or the refusal message, of the factorization that forms C^dag as the
    transpose of C's copy, read strided, where the code gathers it straight from the matrix."""
    M = np.asarray(matrix, dtype=complex)
    no, ni = (round(np.sqrt(s)) for s in M.shape)
    C = np.einsum("baji->iajb", M.reshape(no, no, ni, ni)).reshape(ni * no, ni * no)
    bound = DEFAULT_TOL * max(float(np.linalg.norm(C)), 1.0)
    Ch = np.conjugate(C.T, order="C")
    herm_res = float(np.linalg.norm(C - Ch))
    Ch += C
    Ch /= 2
    L = operators._pivoted_cholesky(Ch, bound / len(Ch))
    res = float(np.linalg.norm(L.T @ L.conj() - Ch))
    if not (herm_res <= bound and res <= bound):
        return (f"map is not completely positive: smallest Choi eigenvalue {np.linalg.eigvalsh(Ch)[0]:.3e}, "
                f"Choi Hermiticity residual {herm_res:.3e}, Cholesky residual {res:.3e}")
    return [unvec(v, no) for v in L] or [np.zeros((no, ni), dtype=complex)]


def random_cp_matrices(seed, count):
    """Matrices of random CP maps of random shape and Kraus count, each also moved off CP by
    a random non-Hermitian term and, as a Fortran-ordered copy, laid out the other way."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        ni, no, r = rng.integers(1, 7, size=3)
        M = Superoperator(kraus=list(random_complex(rng, (r, no, ni)))).matrix
        yield from (M, M + 1e-3 * rng.standard_normal(M.shape), np.asfortranarray(M))


class TestFactorMatrix:
    """A map given as a matrix is factored by pivoted Cholesky of its Choi matrix."""

    @staticmethod
    def assert_factors_as_with_copies(M):
        ref = factor_with_copies(M)
        if isinstance(ref, str):
            with pytest.raises(ValueError) as info:
                Superoperator(M)
            assert str(info.value) == ref
        else:
            kraus = Superoperator(M).kraus
            assert len(kraus) == len(ref) and all(K.tobytes() == R.tobytes() for K, R in zip(kraus, ref))

    @pytest.mark.parametrize("N", [4, 5, 6])
    @pytest.mark.parametrize("p", [0.0, 0.5])
    def test_zoo_reduction_map_bit_identical_to_copies(self, N, p):
        self.assert_factors_as_with_copies(reduce_ce(ising_chain(N, p, 0.3)).reduction_map.matrix)

    def test_random_maps_bit_identical_to_copies(self):
        for M in random_cp_matrices(3, 20):
            self.assert_factors_as_with_copies(M)

    def test_refusals_word_for_word_as_with_copies(self, rng):
        # a negative Choi direction, the transpose, and a left multiplication
        kraus = [random_complex(rng, (3, 3)) for _ in range(3)]
        Q, _ = np.linalg.qr(np.array([K.reshape(-1) for K in kraus]).T, mode="complete")
        E = Q[:, 3].reshape(3, 3)
        swap = np.array([vec(U.T) for U in np.eye(4).reshape(4, 2, 2, order="F")]).T
        for M in (sum(np.kron(K.conj(), K) for K in kraus) - 1e-6 * np.kron(E.conj(), E), swap,
                  np.kron(np.eye(2), PAULI["x"])):
            assert isinstance(factor_with_copies(M), str)
            self.assert_factors_as_with_copies(M)

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
        rep = channel_checks(Superoperator(kraus=[H]))
        assert rep.cp and rep.tp and rep.unital

    def test_left_multiplication_not_cp(self, paulis):
        # X -> sigma_x X is not even Hermiticity-preserving, so it is no Superoperator
        with pytest.raises(ValueError, match="not completely positive"):
            Superoperator(np.kron(np.eye(2), paulis["x"]))

    def test_kraus_maps_always_cp(self, rng):
        for _ in range(10):
            S = Superoperator(kraus=[random_complex(rng, (3, 3)) for _ in range(2)])
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
    V = np.hstack(clusters)
    assert np.allclose(V.conj().T @ V, np.eye(5), atol=1e-12)


def gram_schmidt_oracle(Q, dim, C, scale, tol):
    """``_gram_schmidt`` as it was while its survivor loop took every product through ``@`` and
    every norm through ``np.linalg.norm``, kept verbatim to pin the loop's bytes: it returns
    no smallest kept residual."""
    full = C.shape[1]
    if dim == full or len(C) == 0:  # a full basis spans every row
        return Q, dim, scale, 0.0
    scales = np.maximum.accumulate(np.maximum(operators._row_norms(C), scale))
    scale = float(scales[-1])
    bounds = tol * scales
    # the residuals; every conj below is free on real arrays
    W = C
    if dim:
        W = (C.conj() @ Q[:dim].T).conj() @ Q[:dim]
        np.subtract(C, W, out=W)
    start = dim
    residuals = operators._row_norms(W)
    kept = residuals > bounds
    # a NaN candidate is dropped, with every later one (its norm makes the bounds NaN)
    dropped = np.max(residuals[~kept], initial=0.0)
    for j in np.flatnonzero(kept):
        if dim == full:
            break
        # the rest of the first projection, then the second against the whole basis
        v = W[j] - (Q[start:dim] @ W[j].conj()).conj() @ Q[start:dim]
        v -= (Q[:dim] @ v.conj()).conj() @ Q[:dim]
        res = float(np.linalg.norm(v))
        if res <= bounds[j]:
            dropped = max(dropped, res)
            continue
        if dim == len(Q):
            grown = np.empty((min(max(2 * dim, 16), full), full), dtype=Q.dtype)
            grown[:dim] = Q[:dim]
            Q = grown
        Q[dim] = v / res
        dim += 1
    return Q, dim, scale, float(dropped)


def eigh_clustered_oracle(H, rel_gap):
    """``eigh_clustered`` as it was while it cut the clusters one comparison and one QR at a time."""
    w, V = np.linalg.eigh(H)
    gap = rel_gap * max(float(w[-1] - w[0]), 1e-3)
    clusters = []
    start = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or w[i] - w[i - 1] > gap:
            clusters.append(np.linalg.qr(V[:, start:i])[0])
            start = i
    return clusters


def survivor_blocks(rng, dtype, case):
    """(full, blocks): the candidate blocks, (k, full) each, that one closure feeds in turn."""
    def rows(k, full):
        R = rng.standard_normal((k, full))
        if dtype is complex:
            R = R + 1j * rng.standard_normal((k, full))
        return R * rng.uniform(0.1, 10, (k, 1))

    def spanned(prev, k, noise):
        # combinations of rows given before, each moved by noise times its norm
        P = np.concatenate(prev)
        R = rows(k, P.shape[0]).real @ P
        return R + noise * np.linalg.norm(R, axis=1, keepdims=True) * rows(k, P.shape[1]) / P.shape[1]

    if case == "full_basis":
        full = 4
        first = rows(6, full)
        return full, [first, rows(3, full)]
    full = {"growth": 64, "rectangular": 12 * 3}.get(case, 16)
    first = rows(3 if case != "growth" else 40, full)
    second = np.concatenate([rows(2, full), spanned([first], 2, 0.0), spanned([first], 2, 1e-12),
                             spanned([first], 1, 1e-6)])
    second = second[rng.permutation(len(second))]
    blocks = [first, second]
    if case == "nan_rows":
        blocks[1] = np.insert(second, 3, np.nan, axis=0)
    if case == "zero_rows":
        blocks = [np.concatenate([np.zeros((2, full)), first]), np.insert(second, 1, 0.0, axis=0)]
    blocks.append(spanned(blocks[:2], 4, 1e-11))
    blocks.append(rows(0, full))
    return full, [np.ascontiguousarray(B, dtype=dtype) for B in blocks]


class TestSurvivorLoopOracle:
    """``_gram_schmidt`` and ``eigh_clustered`` against the copies above, byte for byte."""

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("case", ["random", "nan_rows", "zero_rows", "full_basis", "growth", "rectangular"])
    @pytest.mark.parametrize("seed", range(8))
    def test_gram_schmidt_matches_the_loop_it_replaced(self, dtype, case, seed):
        full, blocks = survivor_blocks(np.random.default_rng(seed), dtype, case)
        Q, R = np.empty((0, full), dtype=dtype), np.empty((0, full), dtype=dtype)
        dim = dim_ref = 0
        scale = scale_ref = 0.0
        kept = math.inf
        for C in blocks:
            Q, dim, scale, dropped, least = operators._gram_schmidt(Q, dim, C.copy(), scale, 1e-9)
            R, dim_ref, scale_ref, dropped_ref = gram_schmidt_oracle(R, dim_ref, C.copy(), scale_ref, 1e-9)
            assert dim == dim_ref and Q[:dim].tobytes() == R[:dim].tobytes()
            assert scale == scale_ref or (math.isnan(scale) and math.isnan(scale_ref))
            assert dropped == dropped_ref or (math.isnan(dropped) and math.isnan(dropped_ref))
            kept = min(kept, least)
        if case == "full_basis":
            assert dim == full
        if case == "growth":  # the buffer grew from 16 rows to 32 and to 64
            assert dim > 32 and len(Q) == 64
        # every case keeps a row
        assert 0 < kept < math.inf

    @pytest.mark.parametrize("case", ["whole_space", "invariant_subspace"])
    def test_closure_matches_on_orbits(self, case, monkeypatch):
        # an orbit closure of complex n x d_F columns under a few generators, as the block
        # search runs it
        rng = np.random.default_rng(3)
        n, dF = 12, 3
        G = random_complex(rng, (4, n, n))
        G = G + G.conj().swapaxes(1, 2)
        if case == "invariant_subspace":
            # generators that keep the first 6 coordinates: the orbit stops short of the space
            P = np.zeros((n, n))
            P[:6, :6] = 1
            G = G * P
        V = np.linalg.qr(random_complex(rng, (n, dF)) * (np.arange(n) < 6)[:, None])[0]
        expand = lambda new: (G @ new[:, None]).reshape(-1, n, dF)
        sub = closure([V], expand)
        monkeypatch.setattr(operators, "_gram_schmidt", lambda *a: (*gram_schmidt_oracle(*a), math.inf))
        ref = closure([V], expand)
        assert sub.basis.tobytes() == ref.basis.tobytes() and sub.dropped == ref.dropped

    @pytest.mark.parametrize("seed", range(20))
    def test_eigh_clustered_matches_the_loop_it_replaced(self, seed):
        rng = np.random.default_rng(seed)
        # clusters of widths 1 to 4 in a random order, each spread by rounding-sized noise
        widths = rng.integers(1, 5, size=rng.integers(1, 8))
        w = np.concatenate([np.full(k, float(c)) + 1e-13 * rng.standard_normal(k)
                            for c, k in zip(rng.permutation(len(widths)) * 1.5, widths)])
        U = np.linalg.qr(random_complex(rng, (len(w), len(w))))[0]
        H = (U * w) @ U.conj().T
        H = (H + H.conj().T) / 2
        for rel_gap in (np.sqrt(1e-9), 1e-8, 1.0):
            got, ref = eigh_clustered(H, rel_gap), eigh_clustered_oracle(H, rel_gap)
            assert [V.shape for V in got] == [V.shape for V in ref]
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, ref))
        assert sorted(V.shape[1] for V in eigh_clustered(H, np.sqrt(1e-9))) == sorted(widths)

    def test_eigh_clustered_spectra_narrower_than_the_floor(self, rng):
        # a spread under 1e-3 clusters at rel_gap * 1e-3: one cluster, or every eigenvalue alone
        H = np.eye(5) + 1e-9 * np.diag(np.arange(5.0))
        for rel_gap, widths in ((1.0, [5]), (1e-7, [1] * 5)):
            got, ref = eigh_clustered(H, rel_gap), eigh_clustered_oracle(H, rel_gap)
            assert [V.shape[1] for V in got] == widths
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, ref))
