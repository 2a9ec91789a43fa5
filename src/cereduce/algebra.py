"""Matrix *-algebras: block decomposition from generators, read-off, projection.

Operators G_i together with the identity generate a unital *-algebra,
unitarily equivalent to a direct sum of blocks B(C^{d_S}) otimes 1_{d_F}.
The algebra is never built by closing products in operator space: its
decomposition is computed from the generators alone.  One generic algebra
element, a random product of combinations of 1 and the G_i, has in each
block d_S eigenspaces of dimension d_F, and the orbit of one eigenspace
under the G_i spans its block with the multiplicity slices already
aligned.  The orbit closures certify the draw, with no conjugation of a
generator by U (see :func:`algebra_closure`, the one decomposer).  The
algebra is held as that decomposition, a :class:`BlockAlgebra`, whose basis
U_k (E_st otimes 1_F) U_k^dag is formed only on request; :func:`wedderburn`,
:func:`center` and :func:`commutant` read a :class:`BlockAlgebra`, never
decomposing it again.  Center and commutant are read off the blocks in
closed form: the block projections and U_k (1_S otimes E_fg) U_k^dag, each
an :class:`~cereduce.operators.OperatorSubspace`, its basis one
(dim, n, n) stack.

From the decomposition one obtains the unique Hilbert-Schmidt-orthogonal
conditional expectation onto the algebra, factorized into a CPTP
compression (partial trace per block) and a CPTP injection (tensoring
with normalized block identities).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import product

import numpy as np

from .operators import (
    DEFAULT_TOL,
    OperatorSubspace,
    Superoperator,
    _hermitian_parts,
    closure,
    eigh_clustered,
    hermitian_closure,
)

__all__ = [
    "DegenerateAlgebraError",
    "BlockAlgebra",
    "algebra_closure",
    "commutant",
    "center",
    "WedderburnDecomposition",
    "wedderburn",
    "CEFactorization",
    "compression",
    "conditional_expectation",
]


MAX_REDRAWS = 8  # seeded draws of the generic element before giving up
# the most bytes of images that BlockAlgebra.leak forms for maps taken together
LEAK_BATCH_BYTES = 2**24


class DegenerateAlgebraError(RuntimeError):
    """A random algebra element failed to separate the block structure."""


def algebra_closure(
    ops: BlockAlgebra | OperatorSubspace | list[np.ndarray],
    tol: float = DEFAULT_TOL,
    seed: int = 0,
) -> BlockAlgebra:
    """Smallest *-algebra containing the given operators, held as its block decomposition.

    Never closed under products in operator space.  The generators G_i are
    the orthonormalized Hermitian parts of the operators (a subspace's basis,
    or a list); a basis that is already exactly Hermitian is used as it is.
    Together with the identity they generate a unital algebra; its generic
    element, the Hermitian part of a product of L factors
    c_0 1 + sum_i c_i G_i with complex Gaussian c, has in each block d_S
    eigenspaces of dimension d_F, with distinct eigenvalues across all
    blocks.  The orbit of an eigenspace V under the generators, the
    :func:`~cereduce.operators.closure` of the n x d_F matrix V under
    V -> G_i V, each generation of new elements multiplied by every G_i in
    one batched product, spans its block: every orbit element has the form
    U_k (x otimes W) for one W, so its d_F columns are already aligned
    multiplicity slices.  The block so found must hold d_S whole eigenspaces
    of dimension d_F, none of them claimed by another block.  The draw is
    accepted only if every generator, and so the whole algebra, has the block
    form up to a bound of at most max(sqrt(tol), 1e-8).  With rho_k the
    largest residual block k's orbit closure dropped, G_i U = U X + E with
    X = (+) C_k otimes 1_F, ||X|| <= ||G_i||_F = 1 and
    ||E||_F^2 <= sum_k d_S d_F rho_k^2; so with delta = ||U^dag U - 1||_F,
    ||U^dag G_i U - X||_F is at most ``structure_bound`` =
    delta + (1 + delta) sqrt(sum_k d_S d_F rho_k^2), which without delta
    would hold only for a unitary U.  A refused draw is followed by one
    seeded by (``seed``, its index) with twice the length L, from L = 1 up to
    ``MAX_REDRAWS`` draws.  The algebra is held over the blocks some
    generator acts on, and is unital when that is every block.  A
    :class:`BlockAlgebra` is returned as it is, not decomposed again, and
    ``tol`` and ``seed`` go unused.
    """
    if isinstance(ops, BlockAlgebra):
        return ops
    G = _generators(ops, tol)
    struct_tol = max(np.sqrt(tol), 1e-8)
    last_err = "no attempt made"
    for attempt in range(MAX_REDRAWS):
        rng = np.random.default_rng([seed, attempt])
        try:
            dec, acted_on = _wedderburn_attempt(G, 2**attempt, tol, rng)
        except DegenerateAlgebraError as exc:
            last_err = str(exc)
            continue
        if dec.structure_bound <= struct_tol:
            return BlockAlgebra(dec, tuple(acted_on))
        last_err = f"structure bound {dec.structure_bound:.3e} exceeds {struct_tol:.1e}"
    raise DegenerateAlgebraError(f"failed to separate blocks after {MAX_REDRAWS} redraws: {last_err}")


def _block_operators(dec: WedderburnDecomposition, ks, axis: int) -> np.ndarray:
    """HS-orthonormal Hermitian basis of the span of all W_a W_b^dag over the blocks ``ks``,
    written into one (dim, n, n) stack.

    The W_a are the slices of U_k along ``axis`` of its (n, d_S, d_F) view:
    axis 1 gives U_k (E_st otimes 1_F) U_k^dag, the algebra, and axis 2 gives
    U_k (1_S otimes E_fg) U_k^dag, the commutant.  The slices are mutually
    orthogonal families of r orthonormal columns, so W_a W_a^dag / sqrt(r)
    and, for a < b, the Hermitian parts of W_a W_b^dag times sqrt(2 / r) are
    orthonormal.
    """
    n = dec.dim
    ops = np.empty((sum(dec.blocks[k][axis - 1] ** 2 for k in ks), n, n), dtype=complex)
    i = 0
    for k in ks:
        W = np.moveaxis(dec.block_isometry(k).reshape(n, *dec.blocks[k]), axis, 0)
        d, _, r = W.shape
        for a in range(d):
            for b in range(a, d):
                real, imag = _hermitian_parts(W[a] @ W[b].conj().T)
                if a == b:
                    np.divide(real, np.sqrt(r), out=ops[i])
                else:
                    np.multiply(real, np.sqrt(2 / r), out=ops[i])
                    np.multiply(imag, np.sqrt(2 / r), out=ops[i + 1])
                i += 1 + (a != b)
    return ops


def commutant(alg: BlockAlgebra | OperatorSubspace, tol: float = DEFAULT_TOL) -> OperatorSubspace:
    """All operators commuting with every element of the algebra.

    Read off the block decomposition of :func:`algebra_closure` in closed
    form as U ((+) 1_{d_S} otimes B(C^{d_F})) U^dag, with an HS-orthonormal
    Hermitian basis; a :class:`BlockAlgebra` is read, not decomposed again.
    The decomposition covers the identity too, so a non-unital algebra gets
    the commutant of its unitization, which is the same.
    """
    dec = algebra_closure(alg, tol).decomposition
    return OperatorSubspace(dec.dim, _block_operators(dec, range(len(dec.blocks)), axis=2))


def center(alg: BlockAlgebra | OperatorSubspace, tol: float = DEFAULT_TOL) -> OperatorSubspace:
    """The center: elements of the algebra commuting with the whole algebra.

    Read off the block decomposition of :func:`algebra_closure` as the span
    of the block projections U_k U_k^dag, HS-normalized by sqrt(d_S d_F); they
    are mutually orthogonal and Hermitian.  A :class:`BlockAlgebra` is read,
    not decomposed again.  A block projection lies in the algebra exactly
    when some generator acts on its block; only those are kept, which drops
    the block of a non-unital algebra on which every element vanishes.
    """
    alg = algebra_closure(alg, tol)
    dec = alg.decomposition
    ops = []
    for k, (dS, dF) in enumerate(dec.blocks):
        if alg.acted_on[k]:
            Uk = dec.block_isometry(k)
            ops.append(Uk @ Uk.conj().T / np.sqrt(dS * dF))
    return OperatorSubspace(dec.dim, ops)


@dataclass(frozen=True)
class WedderburnDecomposition:
    """Unitary basis change exposing the block structure of an algebra.

    Columns of ``U`` are grouped per block; within a block of shape
    (d_S, d_F), column ``s * d_F + f`` carries the s-th inner and f-th
    multiplicity index, so conjugated algebra elements look like
    ``X_S otimes 1_F`` on each block, each generator within ``structure_bound``
    of that form in Frobenius norm (see :func:`algebra_closure`).
    """

    U: np.ndarray
    blocks: tuple[tuple[int, int], ...]
    structure_bound: float

    @property
    def dim(self) -> int:
        return self.U.shape[0]

    @property
    def reduced_total_dim(self) -> int:
        """Size of the compressed Hilbert space, sum of d_S."""
        return sum(dS for dS, _ in self.blocks)

    @property
    def reduced_operator_dim(self) -> int:
        """Linear dimension of the reduced operator algebra, sum of d_S^2."""
        return sum(dS * dS for dS, _ in self.blocks)

    def hilbert_offsets(self) -> list[int]:
        offs = [0]
        for dS, dF in self.blocks:
            offs.append(offs[-1] + dS * dF)
        return offs

    def reduced_offsets(self) -> list[int]:
        offs = [0]
        for dS, _ in self.blocks:
            offs.append(offs[-1] + dS)
        return offs

    def runs(self, keep=None) -> list[list[int]]:
        """[first block, number of blocks, d_S, d_F] of each run of adjacent equal blocks,
        over the blocks whose flag in ``keep`` is set (every block by default)."""
        runs = []
        for k, shape in enumerate(self.blocks):
            if keep is not None and not keep[k]:
                continue
            if runs and runs[-1][0] + runs[-1][1] == k and tuple(runs[-1][2:]) == shape:
                runs[-1][1] += 1
            else:
                runs.append([k, 1, *shape])
        return runs

    def block_isometry(self, k: int) -> np.ndarray:
        """Columns of U spanning the k-th block, shape (n, d_S*d_F)."""
        offs = self.hilbert_offsets()
        return self.U[:, offs[k]:offs[k + 1]]

    def block_parts(self, T: np.ndarray) -> list[np.ndarray]:
        """X_S = Tr_F(T_k) / d_F of each diagonal block T_k of T = U^dag B U.

        B's part in the block form is (+) X_S otimes 1_F, and X_S is block k
        of J^dag(B) for the J of :func:`conditional_expectation`.  A stack T
        of shape (..., n, n) gives stacks of X_S.
        """
        offs = self.hilbert_offsets()
        return [np.einsum("...sftf->...st", T[..., offs[k]:offs[k + 1], offs[k]:offs[k + 1]]
                          .reshape(*T.shape[:-2], dS, dF, dS, dF)) / dF
                for k, (dS, dF) in enumerate(self.blocks)]


@dataclass(frozen=True)
class BlockAlgebra:
    """The *-algebra (+)_k B(C^{d_S}) otimes 1_{d_F}, in the basis U of its decomposition,
    over the blocks k some generator acts on (``acted_on``), held as that decomposition.

    ``dim`` is the sum of d_S^2 over those blocks.  ``basis``, the HS-orthonormal
    Hermitian matrix units of :func:`_block_operators`, one read-only (dim, n, n)
    stack as an :class:`~cereduce.operators.OperatorSubspace` holds it, is formed
    when it or :meth:`stacked` is first read, and kept.  :meth:`leak` measures the
    algebra's invariance under a map without it.
    """

    decomposition: WedderburnDecomposition
    acted_on: tuple[bool, ...]

    @property
    def ambient_dim(self) -> int:
        return self.decomposition.dim

    @property
    def dim(self) -> int:
        return sum(dS * dS for (dS, _), acts in zip(self.decomposition.blocks, self.acted_on) if acts)

    @cached_property
    def _subspace(self) -> OperatorSubspace:
        acted = [k for k, acts in enumerate(self.acted_on) if acts]
        return OperatorSubspace(self.ambient_dim, _block_operators(self.decomposition, acted, axis=1))

    @property
    def basis(self) -> np.ndarray:
        return self._subspace.basis

    def stacked(self) -> np.ndarray:
        """Read-only (dim, n^2) view of the basis, row i the row-major flattening of B_i."""
        return self._subspace.stacked()

    def leak(self, *maps: Superoperator, dual: bool = False) -> float:
        """Max over the maps S and the unit elements X of the algebra of ||op(X) - Pi op(X)||,
        op = S or its HS adjoint.

        The leak of :func:`~cereduce.observability.check_invariance`, read in
        the coordinates of U, where the algebra's matrix units are
        E_ab otimes 1_F / sqrt(d_F) on each block acted on.  With W_j = U^dag K_j U
        (U^dag (d o U) for K_j = diag(d), and W_j^dag for the adjoint), the unit
        of block k maps to sum_{j,f} W_j[:, (k,a,f)] W_j[:, (k,b,f)]^dag / sqrt(d_F):
        one batched product per run of adjacent equal blocks.  From each
        image its part (+) Tr_F(.)/d_F otimes 1_F on the blocks acted on is
        subtracted entry by entry, and a map's leak is the spectral norm of
        the residuals, read off their dim x dim Gram matrix; 0.0 when dim is 0
        or no map is given.
        Maps go through together, as many as keep their images within
        ``LEAK_BATCH_BYTES``, each Kraus list padded with zero operators to
        the longest.
        """
        size = 16 * self.dim * self.ambient_dim**2
        if not size:
            return 0.0
        step = max(1, LEAK_BATCH_BYTES // size)
        return max((self._leak(maps[i:i + step], dual) for i in range(0, len(maps), step)), default=0.0)

    def _leak(self, maps, dual: bool) -> float:
        dec = self.decomposition
        U, n, p = dec.U, dec.dim, len(maps)
        r = max(len(S.kraus) for S in maps)
        # W[i, j] = U^dag K_j U for the j-th Kraus operator K_j of map i
        if all(S.form == "elementwise" for S in maps):
            d = np.zeros((p, r, n), dtype=complex)
            for i, S in enumerate(maps):
                d[i, :len(S.kraus)] = [np.diagonal(K) for K in S.kraus]
            W = U.conj().T @ ((d.conj() if dual else d)[..., None] * U)
        else:
            K = np.zeros((p, r, n, n), dtype=complex)
            for i, S in enumerate(maps):
                K[i, :len(S.kraus)] = S.kraus
            W = U.conj().T @ K @ U
            if dual:
                W = W.conj().swapaxes(-1, -2)
        offs = dec.hilbert_offsets()
        runs = dec.runs(self.acted_on)
        Y = np.empty((p, self.dim, n, n), dtype=complex)
        u = 0
        for k, m, dS, dF in runs:
            # A[., i, a] holds in column (j, f) column (k + i, a, f) of W_j
            A = (W[..., offs[k]:offs[k + m]].reshape(p, r, n, m, dS, dF)
                 .transpose(0, 3, 4, 2, 1, 5).reshape(p, m, dS, n, r * dF))
            B = A.conj().swapaxes(-1, -2) / np.sqrt(dF)
            np.matmul(A[:, :, :, None], B[:, :, None], out=Y[:, u:u + m * dS * dS].reshape(p, m, dS, dS, n, n))
            u += m * dS * dS
        for k, m, dS, dF in runs:
            # the entries (s, f; t, f) of each diagonal block acted on, a view, less
            # X_S[s, t] = Tr_F / d_F of their block
            T = Y[..., offs[k]:offs[k + m], offs[k]:offs[k + m]].reshape(p, self.dim, m, dS, dF, m, dS, dF)
            np.einsum("...isfitf->...istf", T)[...] -= (np.einsum("...isfitf->...ist", T) / dF)[..., None]
        # the Gram matrices, summed over slabs of entries, each conjugated in a copy of at
        # most LEAK_BATCH_BYTES
        E = Y.reshape(p, self.dim, n * n)
        step = max(1, LEAK_BATCH_BYTES // (16 * p * self.dim))
        G = sum(E[..., i:i + step].conj() @ E[..., i:i + step].swapaxes(1, 2) for i in range(0, n * n, step))
        return float(np.sqrt(np.max(np.linalg.eigvalsh(G))))


def wedderburn(
    alg: BlockAlgebra | OperatorSubspace | list[np.ndarray],
    tol: float = DEFAULT_TOL,
    seed: int = 0,
) -> WedderburnDecomposition:
    """Block decomposition of the unital *-algebra generated by the given operators.

    The decomposition of :func:`algebra_closure`, drawn with ``seed``; a
    :class:`BlockAlgebra` is read, not decomposed again, and its own
    decomposition is returned.  Raises ValueError when the algebra is not
    unital, that is when every generator vanishes on some block.
    """
    alg = algebra_closure(alg, tol, seed)
    if not all(alg.acted_on):
        raise ValueError("Wedderburn decomposition requires a unital algebra")
    return alg.decomposition


def _generators(ops, tol: float) -> np.ndarray:
    """(m, n, n) stack of the G_i, the :func:`~cereduce.operators.hermitian_closure` of the operators.

    The basis of a subspace is HS-orthonormal by contract; when it is also
    exactly Hermitian, as every ``hermitian_closure`` basis is, the nperp
    basis of ``reduce_ce`` among them, its stack is used as it is.
    """
    if isinstance(ops, OperatorSubspace):
        if ops.dim and all(np.array_equal(B, B.conj().T) for B in ops.basis):
            return ops.basis
        ops = ops.basis
    return hermitian_closure(ops, tol=tol).basis


def _wedderburn_attempt(G, depth, tol, rng) -> tuple[WedderburnDecomposition, list[bool]]:
    """One draw: the decomposition, and for each block whether a generator acts on it."""
    gap_tol = np.sqrt(tol)
    m, n = len(G), G.shape[-1]
    c = rng.standard_normal((depth, m + 1)) + 1j * rng.standard_normal((depth, m + 1))
    A = reduce(np.matmul, (np.tensordot(ct[1:], G, 1) + ct[0] * np.eye(n) for ct in c))
    # eigenspaces, clustering eigenvalues closer than gap_tol times the spread
    eigenspaces = eigh_clustered((A + A.conj().T) / 2, gap_tol)
    assigned = set()
    blocks = []
    orbit_term = 0.0  # sum over the blocks of d_S d_F rho_k^2
    for a, V in enumerate(eigenspaces):
        if a in assigned:
            continue
        dF = V.shape[1]
        # each generation of the orbit goes through the generators in one batched product
        orbit = closure([V], lambda new: (G @ new[:, None]).reshape(-1, n, dF), tol)
        dS = orbit.dim
        # column s * d_F + f is column f of orbit element s, which has norm 1 / sqrt(d_F)
        cols = np.sqrt(dF) * orbit.basis.transpose(1, 0, 2).reshape(n, dS * dF)
        # an eigenspace lies in the block (overlap 1) or is orthogonal to it (overlap 0)
        overlaps = [np.linalg.norm(cols.conj().T @ W) ** 2 / W.shape[1] for W in eigenspaces]
        members = {b for b, o in enumerate(overlaps) if o > 0.5}
        sizes = sorted(eigenspaces[b].shape[1] for b in members)
        if a not in members or sizes != [dF] * dS or members & assigned:
            raise DegenerateAlgebraError(
                f"block of orbit rank {dS} from an eigenspace of dimension {dF} holds "
                f"eigenspaces of dimensions {sizes}, {len(members & assigned)} already assigned"
            )
        assigned |= members
        # a generator acts on a block of d_S > 1, else it maps V to a multiple of V
        acted_on = dS > 1 or float(np.linalg.norm(G @ V)) > tol * np.sqrt(dF)
        blocks.append((dS, dF, cols, acted_on))
        orbit_term += dS * dF * orbit.dropped**2

    blocks.sort(key=lambda b: (-b[0], -b[1]))
    U = np.hstack([b[2] for b in blocks])
    delta = float(np.linalg.norm(U.conj().T @ U - np.eye(U.shape[1])))
    bound = delta + (1 + delta) * float(np.sqrt(orbit_term))
    return WedderburnDecomposition(U, tuple((b[0], b[1]) for b in blocks), bound), [b[3] for b in blocks]


@dataclass(frozen=True)
class CEFactorization:
    """CPTP factorization J o R of the conditional expectation onto an algebra.

    The reduced space is the block-diagonal subalgebra of B(C^D) with
    D = sum of d_S; R compresses by per-block partial trace over the
    multiplicity factor, J injects by tensoring with normalized block
    identities.
    """

    decomposition: WedderburnDecomposition
    R: Superoperator
    J: Superoperator

    @property
    def reduced_hilbert_dim(self) -> int:
        return self.decomposition.reduced_total_dim

    @property
    def reduced_dim(self) -> int:
        return self.decomposition.reduced_operator_dim

    def reduce_map(self, S: Superoperator, tol: float = DEFAULT_TOL) -> tuple[Superoperator, float]:
        """R o S o J with a Kraus list at its Choi rank, and the margin of the rank cut.

        The products A_{k,f} K A_{l,g}^dag / sqrt(d_F^l) of R's, S's and J's
        Kraus operators are the (d_S^k, d_S^l) slices of the (k, l) block of
        W = U^dag K U, so they are read off W, one conjugation per K, and never
        multiplied out.  Per block pair, the slices of every K, flattened, are
        the rows of one stack; the map depends only on the stack's Gram
        matrix, so the rows s_i v_i^dag of its SVD, embedded in block (k, l),
        are Kraus operators of the same map.  Those with s_i above ``tol``
        times the largest singular value over all block pairs are kept; the
        dropped ones move the Choi matrix by at most (their number) tol^2
        s_max^2.  A map that keeps none is one zero operator.  The margin is
        the largest dropped singular value over the smallest kept one, 0 when
        only zeros are dropped.  The stacks of all pairs of blocks taken from
        two runs of adjacent equal blocks go through one batched SVD, except
        those whose norm already puts every singular value below the cut; for
        those the norm stands in the margin for their largest singular value.
        """
        dec = self.decomposition
        if (S.in_dim, S.out_dim) != (dec.dim, dec.dim):
            raise ValueError(f"expected a map on {dec.dim}x{dec.dim} operators, got "
                             f"{S.out_dim}x{S.in_dim}")
        U = dec.U
        W = U.conj().T @ np.array(S.kraus) @ U
        r = len(S.kraus)
        hoffs, roffs = dec.hilbert_offsets(), dec.reduced_offsets()
        runs = dec.runs()
        stacks = []
        for (k, mk, dSk, dFk), (l, ml, dSl, dFl) in product(runs, runs):
            sub = W[:, hoffs[k]:hoffs[k + mk], hoffs[l]:hoffs[l + ml]] / np.sqrt(dFl)
            # stack (a, b) holds in row (i, f, g) the slice of W_i at multiplicity
            # indices (f, g) of the blocks k + a and l + b
            sub = sub.reshape(r, mk, dSk, dFk, ml, dSl, dFl).transpose(1, 4, 0, 3, 6, 2, 5)
            stacks.append(sub.reshape(mk * ml, r * dFk * dFl, dSk * dSl))
        norms = [np.linalg.norm(M, axis=(1, 2)) for M in stacks]
        # a stack of Frobenius norm F has a singular value of at least F / sqrt(its rank), so
        # a stack of norm at most tol times the largest such bound holds only singular values
        # below the cut: it is dropped without an SVD, its norm bounding its singular values
        floor = tol * max(np.max(F) / np.sqrt(min(M.shape[1:])) for F, M in zip(norms, stacks))
        pairs = []
        for M, F in zip(stacks, norms):
            above = F > floor
            _, s, Vh = np.linalg.svd(M[above], full_matrices=False)
            pairs.append((np.flatnonzero(above), s, Vh))
        s_all = np.concatenate([s.ravel() for _, s, _ in pairs])
        cut = tol * np.max(s_all, initial=0.0)
        dropped = max(np.max(s_all[s_all <= cut], initial=0.0),
                      *(np.max(F[F <= floor], initial=0.0) for F in norms))
        margin = float(dropped / np.min(s_all[s_all > cut])) if dropped else 0.0

        D = dec.reduced_total_dim
        kraus = []
        for ((k, _, dSk, _), (l, ml, dSl, _)), (ab, s, Vh) in zip(product(runs, runs), pairs):
            for p, j in zip(*np.nonzero(s > cut)):
                a, b = divmod(int(ab[p]), ml)
                K = np.zeros((D, D), dtype=complex)
                K[roffs[k + a]:roffs[k + a + 1], roffs[l + b]:roffs[l + b + 1]] = (
                    s[p, j] * Vh[p, j]).reshape(dSk, dSl)
                kraus.append(K)
        return Superoperator(kraus=kraus or [np.zeros((D, D), dtype=complex)]), margin


def compression(U: np.ndarray, blocks) -> Superoperator:
    """R of :func:`conditional_expectation` from the basis ``U`` and its (d_S, d_F) ``blocks``.

    R's operator for block k and multiplicity index f holds (I_S otimes <f|) U_k^dag,
    the columns f::d_F of U_k conjugate-transposed, in block k's rows; the
    operators come block by block, f ascending.  Reduced files hold R as U and
    its blocks, and their readers rebuild R's Kraus list here, so it is the
    list :func:`conditional_expectation` built, bit for bit.
    """
    D = sum(dS for dS, _ in blocks)
    kraus = []
    row = col = 0
    for dS, dF in blocks:
        Uk = U[:, col:col + dS * dF]          # (n, dS*dF)
        for f in range(dF):
            A = np.zeros((D, U.shape[0]), dtype=complex)
            A[row:row + dS] = Uk[:, f::dF].conj().T
            kraus.append(A)
        row += dS
        col += dS * dF
    return Superoperator(kraus=kraus)


def conditional_expectation(dec: WedderburnDecomposition) -> CEFactorization:
    """Build R and J (E = J o R) as Kraus maps.

    R is the :func:`compression` of the decomposition; J's operator for block k
    is the adjoint of R's over sqrt(d_F).
    """
    R = compression(dec.U, dec.blocks)
    scales = [np.sqrt(dF) for _, dF in dec.blocks for _ in range(dF)]
    J = Superoperator(kraus=[A.conj().T / s for A, s in zip(R.kraus, scales)])
    return CEFactorization(dec, R=R, J=J)
