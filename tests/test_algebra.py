import math
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from cereduce import algebra, operators
from cereduce.algebra import (
    BlockAlgebra,
    DegenerateAlgebraError,
    WedderburnDecomposition,
    algebra_closure,
    center,
    commutant,
    conditional_expectation,
    wedderburn,
)
from cereduce.observability import check_invariance, nonobservable_complement
from cereduce.reduction import check_assumptions, reduce_ce
from cereduce.operators import OperatorSubspace, Superoperator, closure, hermitian_closure, unvec
from cereduce.zoo import PAULI, haar_unitary, ising_chain, measured_quantum_walk
from conftest import (
    SPLIT_MODELS,
    blockdiag_projector,
    channel_checks,
    choi,
    closure_residual,
    contains,
    is_hermitian,
    proj,
    projector_matrix,
    random_complex,
    read_off,
    residual,
    residuals,
    structure_residual,
    vec,
)


def full_matrix_units(n):
    units = []
    for i in range(n):
        for j in range(n):
            E = np.zeros((n, n), dtype=complex)
            E[i, j] = 1.0
            units.append(E)
    return units


def random_block_algebra(blocks, seed):
    """Algebra with prescribed (d_S, d_F) blocks in a Haar-random basis."""
    return algebra_closure(block_algebra_generators(blocks, seed))


def block_algebra_generators(blocks, seed):
    """Matrix units U (E_st otimes 1_{d_F}) U^dag of every block, U Haar-random."""
    n = sum(dS * dF for dS, dF in blocks)
    U = haar_unitary(n, seed)
    ops = []
    off = 0
    for dS, dF in blocks:
        for E in full_matrix_units(dS):
            B = np.zeros((n, n), dtype=complex)
            B[off:off + dS * dF, off:off + dS * dF] = np.kron(E, np.eye(dF))
            ops.append(U @ B @ U.conj().T)
        off += dS * dF
    return ops


def acceptance_block_generators():
    """Generators of the 20 random block algebras of the acceptance suite."""
    structures = [
        ((1, 1), (1, 2)),
        ((2, 2),),
        ((3, 1), (2, 1)),
        ((2, 1), (1, 1), (1, 1)),
        ((1, 3), (2, 2)),
    ]
    return [
        block_algebra_generators(structures[i % len(structures)], seed=100 + i)
        for i in range(20)
    ]


# the generator families of the read-off and decomposition tests
ALGEBRA_FAMILIES = (
    [("ising", N, p) for N in range(4, 8) for p in (0.0, 0.5)]
    + [("walk", n) for n in range(3, 9)]
    + [("acceptance_blocks",)]
)


def family_generator_sets(family):
    """The generator sets of one family: an Ising chain's or a walk's nperp, or the acceptance sets."""
    kind, *args = family
    if kind == "ising":
        return [nonobservable_complement(ising_chain(*args, 0.3))]
    if kind == "walk":
        return [nonobservable_complement(measured_quantum_walk(args[0], seed=args[0]))]
    return acceptance_block_generators()


def acceptance_block_algebras():
    """The 20 random block algebras of the acceptance suite."""
    return [algebra_closure(ops) for ops in acceptance_block_generators()]


def center_by_commutator_stack(alg, tol=1e-9):
    """Reference center: null space of the stacked vec'd commutators [B_i, B_j].

    An (n^2 m, m) SVD over the coefficients, then the Hermitian parts of the
    null elements, orthonormalized.
    """
    M = np.vstack([
        np.array([vec(Bi @ Bj - Bj @ Bi) for Bi in alg.basis]).T for Bj in alg.basis
    ])
    _, s, Vh = np.linalg.svd(M, full_matrices=False)
    null = Vh[s <= tol * max(float(s[0]), 1.0)].conj()
    ops = [sum(c * B for c, B in zip(v, alg.basis)) for v in null]
    parts = [P for X in ops for P in ((X + X.conj().T) / 2, (X - X.conj().T) / 2j)]
    return closure(parts, tol=tol)


def clifford_generators(k):
    """2k anticommuting Hermitian gammas on (C^2)^(otimes k), by Jordan-Wigner."""
    X, Y, Z, I = (PAULI[q] for q in "xyz0")
    return [reduce(np.kron, [Z] * j + [P] + [I] * (k - j - 1)) for j in range(k) for P in (X, Y)]


def projector_distance(A, B):
    """HS distance between the orthogonal projectors onto two operator subspaces."""
    return float(np.hypot(np.linalg.norm(residuals(A, B.stacked().T)),
                          np.linalg.norm(residuals(B, A.stacked().T))))


class TestAlgebraClosure:
    def test_identity_span(self):
        alg = algebra_closure([np.eye(3, dtype=complex)])
        assert alg.dim == 1 and contains(alg, np.eye(3))

    def test_diagonal_fixed_point(self):
        alg = algebra_closure([proj(4, j) for j in range(4)])
        assert alg.dim == 4
        assert closure_residual(alg) < 1e-12

    def test_pauli_x_z_generate_full(self, paulis):
        alg = algebra_closure([paulis["x"], paulis["z"]])
        assert alg.dim == 4

    def test_ising_p0_closure_dim16(self):
        ce = ising_chain(4, 0.0, 0.3)
        alg = algebra_closure(nonobservable_complement(ce))
        assert alg.dim == 16 and contains(alg, np.eye(16))

    @pytest.mark.parametrize("n_units,dim", [(9, 9), (2, 4)])
    def test_matrix_units_give_hermitian_basis(self, n_units, dim):
        alg = algebra_closure(full_matrix_units(3)[:n_units])
        assert alg.dim == dim
        gram = np.array([[np.vdot(Bi, Bj) for Bj in alg.basis] for Bi in alg.basis])
        assert np.linalg.norm(gram - np.eye(dim)) < 1e-12
        assert all(is_hermitian(B, 1e-12) for B in alg.basis)

    @pytest.mark.parametrize("family", ALGEBRA_FAMILIES, ids=lambda family: "-".join(map(str, family)))
    def test_basis_is_the_matrix_units(self, family):
        # an exactly Hermitian orthonormal basis of dimension sum d_S^2 over the blocks acted
        # on, holding every generator and closed under products
        for ops in family_generator_sets(family):
            alg = algebra_closure(ops)
            ref = algebra_closure(ops, 1e-9, 0)
            assert alg.dim == sum(dS * dS for (dS, _), acts in zip(ref.decomposition.blocks, ref.acted_on)
                                  if acts)
            assert all(np.array_equal(B, B.conj().T) for B in alg.basis)
            Q = alg.stacked()
            assert np.linalg.norm(Q.conj() @ Q.T - np.eye(alg.dim)) <= 1e-12
            G = np.array(ops.basis if isinstance(ops, OperatorSubspace) else ops)
            norms = np.maximum(np.linalg.norm(G, axis=(1, 2)), 1.0)
            assert np.max(residuals(alg, G.reshape(len(G), -1).T) / norms) <= 1e-10
            for B in alg.basis:
                products = B @ alg.basis
                assert np.max(residuals(alg, products.reshape(alg.dim, -1).T)) <= 1e-10

    def test_closure_residual_property(self, rng):
        G = random_complex(rng, (3, 3))
        alg = algebra_closure([(G + G.conj().T) / 2, np.eye(3, dtype=complex)])
        assert closure_residual(alg) < 1e-10

    def test_empty_generators_rejected(self):
        for gens in ([], OperatorSubspace(2, ())):
            with pytest.raises(ValueError):
                algebra_closure(gens)

    def test_ising_n6_peak_memory(self):
        # block temporaries stay O(block size x n^2): about 4 MiB per 64-candidate block here
        nperp = nonobservable_complement(ising_chain(6, 0.5, 0.3))
        tracemalloc.start()
        try:
            algebra_closure(nperp)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2**20

    def test_closure_residual_of_non_algebra(self, paulis):
        # sigma_x^2 / 2 = 1 / 2 lies off span{sigma_x, sigma_z} at distance 1 / sqrt(2)
        assert closure_residual(closure([paulis["x"], paulis["z"]])) > 0.5


class TestGenerators:
    def test_hermitian_subspace_basis_used_as_is(self, monkeypatch):
        ce = ising_chain(4, 0.5, 0.3)
        nperp = nonobservable_complement(ce)

        def refuse(*args, **kwargs):
            raise AssertionError("an orthonormal Hermitian basis is orthonormalized again")

        monkeypatch.setattr(algebra, "hermitian_closure", refuse)
        alg = algebra_closure(nperp)
        assert alg.dim == 32
        assert np.max(residuals(alg, nperp.stacked().T)) <= 1e-10
        # reduce_ce hands its nperp basis to the decomposition as it is
        red = reduce_ce(ce)
        assert red.blocks == ((4, 2),) * 2
        assert np.max(residuals(red.output_algebra, red.nperp.stacked().T)) <= 1e-10

    def test_non_hermitian_basis_takes_hermitian_parts(self, paulis):
        # sigma_+ = (x + i y) / 2, normalized: its Hermitian parts span {x, y}
        plus = (paulis["x"] + 1j * paulis["y"]) / 2
        space = OperatorSubspace(2, (plus / np.linalg.norm(plus),))
        alg = algebra_closure(space)
        assert alg.dim == 4 and contains(alg, np.eye(2))
        assert all(is_hermitian(B, 1e-12) for B in alg.basis)

    def test_real_closure_basis(self):
        # a real closure's basis is float64; the algebra is the one its operators generate
        ops = [np.diag([1.0, 0.0, 0.0]), np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])]
        real = closure(ops)
        assert real.basis.dtype == np.float64
        alg, ref = algebra_closure(real), algebra_closure(ops)
        assert alg.dim == ref.dim == 4
        P, Q = (np.einsum("ai,aj->ij", S.basis.reshape(S.dim, -1), S.basis.reshape(S.dim, -1).conj())
                for S in (alg, ref))
        assert np.linalg.norm(P - Q) <= 1e-12
        assert algebra_closure(closure([ops[0]])).dim == algebra_closure([ops[0]]).dim == 1

    def test_a_block_algebra_is_read_not_decomposed(self, monkeypatch):
        # no draw and no basis: algebra_closure returns the algebra, wedderburn its decomposition
        alg = algebra_closure(nonobservable_complement(ising_chain(4, 0.5, 0.3)))
        non_unital = algebra_closure([proj(3, 0)])

        def refuse(*args, **kwargs):
            raise AssertionError("a BlockAlgebra is decomposed again")

        monkeypatch.setattr(algebra, "_wedderburn_attempt", refuse)
        assert algebra_closure(alg) is alg and algebra_closure(alg, 1e-6, seed=5) is alg
        assert wedderburn(alg) is alg.decomposition and wedderburn(alg, seed=3) is alg.decomposition
        assert commutant(alg).dim == 8
        assert center(alg).dim == 2
        assert algebra_closure(non_unital) is non_unital
        assert center(non_unital).dim == 1 and commutant(non_unital).dim == 5
        with pytest.raises(ValueError):
            wedderburn(non_unital)
        assert "_subspace" not in vars(alg) and "_subspace" not in vars(non_unital)


def generators_oracle(ops, tol):
    """``_generators`` as it was while it read the basis for exact Hermiticity one element at a time."""
    if isinstance(ops, OperatorSubspace):
        if ops.dim and all(np.array_equal(B, B.conj().T) for B in ops.basis):
            return ops.basis
        ops = ops.basis
    return hermitian_closure(ops, tol=tol).basis


def wedderburn_attempt_oracle(G, depth, tol, rng):
    """``_wedderburn_attempt`` as it was while the block search took one norm per eigenspace per block."""
    gap_tol = np.sqrt(tol)
    m, n = len(G), G.shape[-1]
    c = rng.standard_normal((depth, m + 1)) + 1j * rng.standard_normal((depth, m + 1))
    A = reduce(np.matmul, (np.tensordot(ct[1:], G, 1) + ct[0] * np.eye(n) for ct in c))
    eigenspaces = algebra.eigh_clustered((A + A.conj().T) / 2, gap_tol)
    assigned = set()
    blocks = []
    orbit_term = 0.0
    for a, V in enumerate(eigenspaces):
        if a in assigned:
            continue
        dF = V.shape[1]
        orbit = closure([V], lambda new: (G @ new[:, None]).reshape(-1, n, dF), tol)
        dS = orbit.dim
        cols = np.sqrt(dF) * orbit.basis.transpose(1, 0, 2).reshape(n, dS * dF)
        overlaps = [np.linalg.norm(cols.conj().T @ W) ** 2 / W.shape[1] for W in eigenspaces]
        members = {b for b, o in enumerate(overlaps) if o > 0.5}
        sizes = sorted(eigenspaces[b].shape[1] for b in members)
        if a not in members or sizes != [dF] * dS or members & assigned:
            raise DegenerateAlgebraError(
                f"block of orbit rank {dS} from an eigenspace of dimension {dF} holds "
                f"eigenspaces of dimensions {sizes}, {len(members & assigned)} already assigned"
            )
        assigned |= members
        acted_on = dS > 1 or float(np.linalg.norm(G @ V)) > tol * np.sqrt(dF)
        blocks.append((dS, dF, cols, acted_on))
        orbit_term += dS * dF * orbit.dropped**2

    blocks.sort(key=lambda b: (-b[0], -b[1]))
    U = np.hstack([b[2] for b in blocks])
    delta = float(np.linalg.norm(U.conj().T @ U - np.eye(U.shape[1])))
    bound = delta + (1 + delta) * float(np.sqrt(orbit_term))
    return WedderburnDecomposition(U, tuple((b[0], b[1]) for b in blocks), bound), [b[3] for b in blocks]


def with_replaced_kernels(monkeypatch, make):
    """``make()`` run on the four small-operator kernels as they were, then undone."""
    from test_operators import eigh_clustered_oracle, gram_schmidt_oracle

    monkeypatch.setattr(operators, "_gram_schmidt", lambda *a: (*gram_schmidt_oracle(*a), math.inf))
    monkeypatch.setattr(algebra, "eigh_clustered", eigh_clustered_oracle)
    monkeypatch.setattr(algebra, "_wedderburn_attempt", wedderburn_attempt_oracle)
    monkeypatch.setattr(algebra, "_generators", generators_oracle)
    try:
        return make()
    finally:
        monkeypatch.undo()


def assert_same_block_algebra(alg, ref):
    dec, dec_ref = alg.decomposition, ref.decomposition
    assert dec.blocks == dec_ref.blocks and alg.acted_on == ref.acted_on
    assert dec.U.tobytes() == dec_ref.U.tobytes()
    assert dec.structure_bound == dec_ref.structure_bound


class TestKernelOracles:
    """The decomposition on the kernels of ``algebra`` and ``operators`` as they are and as they
    were: the same nperp, U, blocks and certificate, byte for byte."""

    @pytest.mark.parametrize("name", sorted(SPLIT_MODELS))
    def test_zoo_decompositions(self, name, monkeypatch):
        ce = SPLIT_MODELS[name]()

        def decompose():
            nperp = nonobservable_complement(ce)
            return nperp, algebra_closure(nperp)

        nperp_ref, ref = with_replaced_kernels(monkeypatch, decompose)
        nperp, alg = decompose()
        assert nperp.basis.tobytes() == nperp_ref.basis.tobytes() and nperp.dropped == nperp_ref.dropped
        assert_same_block_algebra(alg, ref)

    @pytest.mark.parametrize(
        "make",
        [*(lambda i=i: acceptance_block_generators()[i] for i in range(0, 20, 3)),
         lambda: clifford_generators(3),
         lambda: [proj(5, 0), proj(5, 2)],
         lambda: [random_complex(np.random.default_rng(8), (6, 6)) for _ in range(2)]],
        ids=[*(f"acceptance{i}" for i in range(0, 20, 3)), "clifford3", "non_unital", "random_non_hermitian"],
    )
    def test_random_algebras(self, make, monkeypatch):
        # generators given as operators go through hermitian_closure's real closure; the
        # Clifford gammas need redraws
        ops = make()
        ref = with_replaced_kernels(monkeypatch, lambda: algebra_closure(ops, seed=2))
        assert_same_block_algebra(algebra_closure(ops, seed=2), ref)

    def test_generators_fall_back_on_one_non_hermitian_element(self, monkeypatch):
        nperp = nonobservable_complement(ising_chain(4, 0.5, 0.3))
        assert algebra._generators(nperp, 1e-9) is nperp.basis
        # the last element moved off Hermitian by one ulp of one imaginary part
        basis = nperp.basis.copy()
        i, j = np.argwhere(basis[-1].imag != 0)[0]
        basis[-1, i, j] = basis[-1, i, j].real + 1j * np.nextafter(basis[-1, i, j].imag, np.inf)
        moved = OperatorSubspace(nperp.ambient_dim, basis)
        calls = []
        monkeypatch.setattr(algebra, "hermitian_closure", lambda *a, **k: calls.append(1) or hermitian_closure(*a, **k))
        G = algebra._generators(moved, 1e-9)
        assert calls == [1] and G is not moved.basis
        assert G.tobytes() == generators_oracle(moved, 1e-9).tobytes()
        assert generators_oracle(nperp, 1e-9) is nperp.basis


# algebras on which the block leak is checked against the basis path: unital ones with
# runs of equal blocks, and non-unital ones with a block no generator acts on
LEAK_ALGEBRAS = {
    "blocks_1-1_1-2": lambda: random_block_algebra(((1, 1), (1, 2)), seed=3),
    "blocks_2-2_2-2_1-1": lambda: random_block_algebra(((2, 2), (2, 2), (1, 1)), seed=4),
    "blocks_3-1_2-1_2-1": lambda: random_block_algebra(((3, 1), (2, 1), (2, 1)), seed=5),
    "non_unital_proj3": lambda: algebra_closure([proj(3, 0)]),
    "non_unital_proj5x2": lambda: algebra_closure([proj(5, 0), proj(5, 2)]),
}


def random_kraus_map(n, r, rng, diagonal=False):
    """A CP map on n x n operators with r random Kraus operators, diagonal ones if asked."""
    if diagonal:
        return Superoperator(kraus=[np.diag(random_complex(rng, n)) / n for _ in range(r)])
    return Superoperator(kraus=[random_complex(rng, (n, n)) / n for _ in range(r)])


class TestBlockAlgebra:
    """The algebra held as its decomposition: the basis formed on request, the leak in block
    coordinates."""

    @pytest.mark.parametrize("family", ALGEBRA_FAMILIES, ids=lambda family: "-".join(map(str, family)))
    def test_basis_is_the_read_off_bit_for_bit(self, family):
        for ops in family_generator_sets(family):
            alg = algebra_closure(ops)
            assert isinstance(alg, BlockAlgebra)
            assert "_subspace" not in vars(alg)  # no basis until one is read
            ref = read_off(alg)
            assert alg.dim == ref.dim and alg.ambient_dim == ref.ambient_dim
            assert alg.stacked().tobytes() == ref.stacked().tobytes()
            assert alg.basis is alg.basis and not alg.basis.flags.writeable
            assert np.shares_memory(alg.stacked(), alg.basis)

    def test_reduce_ce_forms_no_basis(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a basis of the algebra is formed")

        monkeypatch.setattr(algebra, "_block_operators", refuse)
        for ce in (ising_chain(4, 0.5, 0.3), ising_chain(5, 0.0, 0.3), measured_quantum_walk(4, seed=4)):
            red = reduce_ce(ce)
            rep = check_assumptions(ce, red.nperp, red.output_algebra)
            assert red.output_algebra.dim == sum(dS * dS for dS, _ in red.blocks)
            assert rep.a3.holds

    def test_non_unital_keeps_dim_and_basis(self):
        alg = algebra_closure([proj(3, 0)])
        assert alg.acted_on.count(False) == 1
        assert alg.dim == 1
        assert np.linalg.norm(alg.basis[0] - proj(3, 0)) <= 1e-15
        assert alg.stacked().tobytes() == read_off(alg).stacked().tobytes()

    @pytest.mark.parametrize("name", sorted(LEAK_ALGEBRAS))
    @pytest.mark.parametrize("dual", [False, True], ids=["map", "dual"])
    def test_leak_matches_basis_path(self, name, dual, rng):
        alg = LEAK_ALGEBRAS[name]()
        sub, n = read_off(alg), alg.ambient_dim
        maps = [random_kraus_map(n, 1, rng), random_kraus_map(n, 3, rng),
                random_kraus_map(n, 2, rng, diagonal=True), Superoperator(kraus=[np.eye(n)])]
        assert maps[2].form == "elementwise"
        leaks = [alg.leak(S, dual=dual) for S in maps]
        for S, got in zip(maps, leaks):
            assert abs(got - check_invariance(sub, S, dual=dual)) <= 1e-12
        # the identity leaves every algebra invariant
        assert leaks[-1] <= 1e-13
        # maps taken together, Kraus lists padded, give the largest of their leaks
        assert abs(alg.leak(*maps, dual=dual) - max(leaks)) <= 1e-14

    def test_leak_in_batches_of_one(self, monkeypatch, rng):
        alg = random_block_algebra(((2, 2), (2, 2), (1, 1)), seed=4)
        maps = [random_kraus_map(alg.ambient_dim, r, rng) for r in (1, 2, 1)]
        together = alg.leak(*maps)
        # one map at a time, and the Gram matrix summed entry by entry
        monkeypatch.setattr(algebra, "LEAK_BATCH_BYTES", 1)
        assert abs(alg.leak(*maps) - together) <= 1e-14
        assert abs(together - max(check_invariance(read_off(alg), S) for S in maps)) <= 1e-12

    def test_empty_algebra_leaks_nothing(self, rng):
        alg = BlockAlgebra(wedderburn([np.eye(3, dtype=complex)]), (False,))
        assert alg.dim == 0 and alg.basis.shape == (0, 3, 3)
        assert alg.leak(random_kraus_map(3, 2, rng)) == 0.0


class TestCommutant:
    def test_full_algebra_schur(self):
        alg = algebra_closure(full_matrix_units(3))
        assert commutant(alg).dim == 1

    def test_scalars_commute_with_everything(self):
        alg = algebra_closure([np.eye(3, dtype=complex)])
        assert commutant(alg).dim == 9

    @pytest.mark.parametrize(
        "make_alg, dim",
        [
            (lambda: algebra_closure([proj(3, j) for j in range(3)]), 3),
            (lambda: random_block_algebra(((1, 2), (2, 1)), seed=4), 5),
            (lambda: algebra_closure([proj(3, 0)]), 5),
        ],
        ids=["diagonal", "blocks", "non_unital"],
    )
    def test_diagonal_self_commutant_with_oracle(self, make_alg, dim):
        alg = make_alg()
        n = alg.ambient_dim
        com = commutant(alg)
        assert com.dim == dim
        S = com.stacked()
        assert np.linalg.norm(S.conj() @ S.T - np.eye(dim)) < 1e-10
        assert all(is_hermitian(X, 1e-10) for X in com.basis)
        # direct null-space oracle on the stacked commutator map
        rows = []
        for B in alg.basis:
            L = np.kron(np.eye(n), B) - np.kron(B.T, np.eye(n))
            rows.append(L)
        M = np.vstack(rows)
        _, s, Vh = np.linalg.svd(M)
        null = [unvec(Vh[j].conj(), n) for j in range(len(s)) if s[j] <= 1e-9 * s[0]]
        assert len(null) == dim
        for X in null:
            assert residual(com, X) < 1e-9

    def test_double_commutant(self, rng):
        for blocks in [((1, 2), (2, 1)), ((2, 2),), ((1, 1), (1, 1), (2, 1))]:
            alg = random_block_algebra(blocks, seed=int(rng.integers(1 << 30)))
            back = commutant(commutant(alg))
            assert back.dim == alg.dim
            for B in alg.basis:
                assert residual(back, B) < 1e-8
            for B in back.basis:
                assert residual(alg, B) < 1e-8


class TestCenter:
    def test_full_algebra_trivial_center(self):
        alg = algebra_closure(full_matrix_units(3))
        assert center(alg).dim == 1

    def test_abelian_algebra_is_its_center(self):
        alg = algebra_closure([proj(3, j) for j in range(3)])
        assert center(alg).dim == 3

    def test_non_hermitian_basis(self):
        # M_3 given by its matrix units, an orthonormal basis of non-Hermitian elements
        alg = OperatorSubspace(3, full_matrix_units(3))
        Z = center(alg)
        assert Z.dim == 1
        assert contains(Z, np.eye(3, dtype=complex), 1e-10)

    @pytest.mark.parametrize(
        "gens, dim",
        [([proj(3, 0)], 1), ([proj(4, 0), proj(4, 1)], 2)],
        ids=["proj3", "proj4x2"],
    )
    def test_non_unital_matches_commutator_stack(self, gens, dim):
        alg = algebra_closure(gens)
        assert not contains(alg, np.eye(len(gens[0])))
        Z, ref = center(alg), center_by_commutator_stack(alg)
        assert Z.dim == ref.dim == dim
        assert projector_distance(Z, ref) <= 1e-10

    def test_basis_is_hermitian_and_orthonormal(self):
        Z = center(random_block_algebra(((1, 1), (2, 1), (1, 2)), seed=8))
        S = Z.stacked()
        assert Z.dim == 3
        assert np.linalg.norm(S.conj() @ S.T - np.eye(3)) < 1e-12
        assert all(is_hermitian(X, 1e-12) for X in Z.basis)

    def test_matches_commutator_stack_on_block_algebras(self):
        for alg in acceptance_block_algebras():
            Z, ref = center(alg), center_by_commutator_stack(alg)
            assert Z.dim == ref.dim
            assert projector_distance(Z, ref) <= 1e-10

    @pytest.mark.parametrize("N, p", [(4, 0.0), (4, 0.5), (5, 0.0), (5, 0.5)])
    def test_matches_commutator_stack_on_ising(self, N, p):
        alg = algebra_closure(nonobservable_complement(ising_chain(N, p, 0.3)))
        Z, ref = center(alg), center_by_commutator_stack(alg)
        assert Z.dim == ref.dim == (4 if p == 0.0 else 2)
        assert projector_distance(Z, ref) <= 1e-10

    def test_ising_n6_peak_memory(self):
        # an (n^2 m, m) commutator stack alone would take 64 MiB here
        alg = algebra_closure(nonobservable_complement(ising_chain(6, 0.5, 0.3)))
        tracemalloc.start()
        try:
            center(alg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2**20


class TestWedderburn:
    def test_scalars(self):
        dec = wedderburn(algebra_closure([np.eye(4, dtype=complex)]))
        assert dec.blocks == ((1, 4),)

    def test_diagonal(self):
        dec = wedderburn(algebra_closure([proj(3, j) for j in range(3)]))
        assert dec.blocks == ((1, 1), (1, 1), (1, 1))

    def test_unitary_and_structure(self):
        alg = random_block_algebra(((2, 2), (1, 3)), seed=5)
        dec = wedderburn(alg)
        assert sorted(dec.blocks) == [(1, 3), (2, 2)]
        n = dec.dim
        assert np.linalg.norm(dec.U @ dec.U.conj().T - np.eye(n)) < 1e-10
        for B in alg.basis:
            assert structure_residual(dec, B) < 1e-8

    def test_block_dims_seed_independent(self):
        ops = block_algebra_generators(((2, 1), (1, 2), (1, 1)), seed=9)
        references = None
        for seed in range(5):
            dec = wedderburn(ops, seed=seed)
            ms = sorted(dec.blocks)
            if references is None:
                references = ms
            assert ms == references

    @pytest.mark.parametrize(
        "blocks",
        [((1, 1),) * 10, ((2, 3),) * 3, ((2, 2), (2, 2), (1, 4)), ((1, 1), (1, 2), (1, 3), (2, 1))],
        ids=["10x(1,1)", "3x(2,3)", "2x(2,2)+(1,4)", "mixed"],
    )
    @pytest.mark.parametrize("seed", range(5))
    def test_repeated_block_shapes(self, blocks, seed):
        ops = block_algebra_generators(blocks, seed=seed)
        dec = wedderburn(ops, seed=seed)
        assert sorted(dec.blocks) == sorted(blocks)
        n = dec.dim
        assert np.linalg.norm(dec.U @ dec.U.conj().T - np.eye(n)) <= 1e-10
        for B in ops:
            assert structure_residual(dec, B) <= 1e-12

    def test_non_unital_rejected(self):
        alg = algebra_closure([proj(3, 0)])
        assert not contains(alg, np.eye(3))
        with pytest.raises(ValueError):
            wedderburn(alg)

    def test_non_unital_generators_rejected(self):
        # |0><0| generates a one-dimensional algebra whose unit is not the identity
        with pytest.raises(ValueError):
            wedderburn([proj(3, 0)])

    @pytest.mark.parametrize("k", [2, 3], ids=["4_gammas_on_C4", "6_gammas_on_C8"])
    def test_clifford_generators_need_longer_words(self, k, monkeypatch):
        gammas = clifford_generators(k)
        n = 2**k
        # a real combination squares to |c|^2, so the span has only the eigenvalues +-|c|
        c = np.arange(1.0, 2 * k + 1)
        X = sum(ci * g for ci, g in zip(c, gammas))
        assert np.linalg.norm(X @ X - (c @ c) * np.eye(n)) <= 1e-10
        depths = []
        attempt = algebra._wedderburn_attempt

        def recording(G, depth, tol, rng):
            depths.append(depth)
            return attempt(G, depth, tol, rng)

        monkeypatch.setattr(algebra, "_wedderburn_attempt", recording)
        dec = wedderburn(gammas)
        assert dec.blocks == ((n, 1),)
        # the first draw, of length 1, fails; each redraw doubles the length
        assert len(depths) >= 2 and depths == [2**t for t in range(len(depths))]
        assert np.linalg.norm(dec.U @ dec.U.conj().T - np.eye(n)) <= 1e-12

    @pytest.mark.parametrize("family", ALGEBRA_FAMILIES, ids=lambda family: "-".join(map(str, family)))
    def test_generators_give_the_blocks_of_their_algebra(self, family):
        for ops in family_generator_sets(family):
            dec, alg = wedderburn(ops), algebra_closure(ops)
            # the algebra's own basis, given as generators, gives the same blocks
            assert dec.blocks == wedderburn(OperatorSubspace(alg.ambient_dim, alg.basis)).blocks
            assert max(structure_residual(dec, B) for B in alg.basis) <= 1e-10
            # the certificate of the draw holds for each generator it was read off
            G = algebra._generators(ops, 1e-9)
            assert max(structure_residual(dec, B) for B in G) <= dec.structure_bound <= 1e-10

    @pytest.mark.parametrize(
        "blocks", [((2, 2), (1, 3)), ((2, 1), (1, 1), (1, 1)), ((2, 3), (2, 3))], ids=str
    )
    def test_moved_generators_accepted_on_their_bound(self, blocks, rng):
        # generators moved off the block form by 1e-8, at tol 1e-6: U is unitary only to
        # 1e-8-5e-8, and on the first blocks the orbit term alone falls below the residual
        tol = 1e-6
        moved = []
        for B in block_algebra_generators(blocks, seed=0):
            H = random_complex(rng, B.shape)
            H += H.conj().T
            moved.append(B + 1e-8 * H / np.linalg.norm(H))
        dec = algebra_closure(moved, tol, 0).decomposition
        G = algebra._generators(moved, tol)
        n = dec.dim
        assert sorted(dec.blocks) == sorted(blocks)
        delta = np.linalg.norm(dec.U.conj().T @ dec.U - np.eye(n))
        assert max(structure_residual(dec, B) for B in G) <= dec.structure_bound
        assert dec.structure_bound <= np.sqrt(n) * tol + 2 * delta

    @pytest.mark.parametrize(
        "make",
        [lambda: ising_chain(4, 0.0, 0.3), lambda: ising_chain(5, 0.5, 0.3),
         lambda: measured_quantum_walk(4, seed=4)],
        ids=["ising4-p0", "ising5-p0.5", "walk4"],
    )
    def test_merged_eigenspaces_refused(self, make, monkeypatch):
        # two adjacent eigenspaces of every draw merged into one: no draw may be accepted
        nperp = nonobservable_complement(make())
        clustered = algebra.eigh_clustered

        def merged(H, rel_gap):
            V0, V1, *rest = clustered(H, rel_gap)
            return [np.hstack([V0, V1]), *rest]

        monkeypatch.setattr(algebra, "eigh_clustered", merged)
        with pytest.raises(DegenerateAlgebraError):
            wedderburn(nperp)


class TestConditionalExpectation:
    def assert_e_properties(self, alg, fact, tol=1e-8):
        E = fact.J @ fact.R
        assert np.linalg.norm((E @ E).matrix - E.matrix) <= 1e-9 * max(1, np.linalg.norm(E.matrix))
        assert np.linalg.norm(E.matrix - E.adjoint().matrix) <= 1e-9
        rep = channel_checks(E)
        assert rep.cp and rep.tp and rep.unital
        for B in alg.basis:
            assert np.linalg.norm(E(B) - B) <= 1e-9
        assert np.linalg.norm(E.matrix - projector_matrix(alg)) <= tol
        rrep = channel_checks_rect(fact.R)
        jrep = channel_checks_rect(fact.J)
        assert rrep and jrep
        Pbd = blockdiag_projector(fact)
        assert np.linalg.norm(fact.R.matrix @ fact.J.matrix @ Pbd - Pbd) <= 1e-10

    def test_full_algebra_identity(self):
        alg = algebra_closure(full_matrix_units(3))
        fact = conditional_expectation(wedderburn(alg))
        assert np.linalg.norm((fact.J @ fact.R).matrix - np.eye(9)) < 1e-10
        self.assert_e_properties(alg, fact)

    def test_scalar_algebra_depolarizes(self, rng):
        alg = algebra_closure([np.eye(3, dtype=complex)])
        fact = conditional_expectation(wedderburn(alg))
        E = fact.J @ fact.R
        X = random_complex(rng, (3, 3))
        assert np.allclose(E(X), np.trace(X) / 3 * np.eye(3), atol=1e-12)
        self.assert_e_properties(alg, fact)

    def test_diagonal_algebra_truncates(self, rng):
        alg = algebra_closure([proj(3, j) for j in range(3)])
        dec = wedderburn(alg)
        fact = conditional_expectation(dec)
        E = fact.J @ fact.R
        X = random_complex(rng, (3, 3))
        assert np.allclose(np.sort(np.diag(E(X))), np.sort(np.diag(X)), atol=1e-12)
        assert np.linalg.norm(E(X) - np.diag(np.diag(E(X)))) < 1e-12
        self.assert_e_properties(alg, fact)

    def test_mixed_block_structure(self):
        alg = random_block_algebra(((2, 2), (1, 1), (1, 2)), seed=3)
        fact = conditional_expectation(wedderburn(alg))
        assert fact.reduced_dim == 4 + 1 + 1
        self.assert_e_properties(alg, fact)


def channel_checks_rect(S, tol=1e-9):
    """CP and TP certification for maps between different dimensions."""
    C = choi(S)
    herm = np.linalg.norm(C - C.conj().T)
    scale = max(np.linalg.norm(C), 1.0)
    min_eig = np.linalg.eigvalsh((C + C.conj().T) / 2)[0]
    eye_out = np.eye(S.out_dim, dtype=complex)
    eye_in = np.eye(S.in_dim, dtype=complex)
    tp = np.linalg.norm(S.adjoint()(eye_out) - eye_in)
    return herm <= tol * scale and min_eig >= -tol * scale and tp <= tol * S.in_dim


class TestReduceMap:
    """R o S o J straight from the decomposition, against the composed Kraus products."""

    @pytest.mark.parametrize("blocks", [((2, 2), (1, 1), (1, 2)), ((1, 3), (2, 2)), ((3, 1), (2, 1))])
    def test_matches_composition_at_choi_rank(self, blocks, rng):
        fact = conditional_expectation(wedderburn(random_block_algebra(blocks, seed=5)))
        n = fact.decomposition.dim
        S = Superoperator(kraus=[random_complex(rng, (n, n)) for _ in range(3)])
        red, margin = fact.reduce_map(S)
        composed = fact.R @ S @ fact.J
        ref = composed.matrix
        assert np.linalg.norm(red.matrix - ref) <= 1e-12 * np.linalg.norm(ref)
        # the Kraus count is the numerical rank of the composed map's Choi matrix
        w = np.linalg.eigvalsh(choi(composed))
        assert len(red.kraus) == np.count_nonzero(w > 1e-9 * w[-1])
        assert margin == 0.0

    def test_identity_gives_the_block_pinching(self, rng):
        # R o J keeps the diagonal blocks: one Kraus operator per block, its projection
        blocks = ((2, 2), (1, 1), (1, 2))
        fact = conditional_expectation(wedderburn(random_block_algebra(blocks, seed=7)))
        red, margin = fact.reduce_map(Superoperator(kraus=[np.eye(fact.decomposition.dim)]))
        assert len(red.kraus) == len(blocks)
        assert margin < 1e-12
        X = random_complex(rng, (4, 4))
        mask = np.zeros((4, 4))
        for a, b in ((0, 2), (2, 3), (3, 4)):
            mask[a:b, a:b] = 1
        assert np.linalg.norm(red(X) - mask * X) <= 1e-12 * np.linalg.norm(X)

    def test_zero_map_is_one_zero_operator(self):
        fact = conditional_expectation(wedderburn(random_block_algebra(((2, 2),), seed=1)))
        red, margin = fact.reduce_map(Superoperator(kraus=[np.zeros((4, 4))]))
        assert len(red.kraus) == 1 and not np.any(red.kraus[0])
        assert red.kraus[0].shape == (2, 2) and margin == 0.0

    def test_wrong_dimension_rejected(self):
        fact = conditional_expectation(wedderburn(random_block_algebra(((2, 2),), seed=1)))
        with pytest.raises(ValueError):
            fact.reduce_map(Superoperator(kraus=[np.eye(3)]))

    def test_never_composes(self, monkeypatch):
        ce = ising_chain(4, 0.5, 0.3)
        fact = conditional_expectation(wedderburn(nonobservable_complement(ce)))

        def refuse(self, other):
            raise AssertionError("reduce_map composed Kraus lists")

        monkeypatch.setattr(Superoperator, "compose", refuse)
        for S in ce.instrument.maps.values():
            assert len(fact.reduce_map(S)[0].kraus) == 2
