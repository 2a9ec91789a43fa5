"""Dense operators, Hilbert-Schmidt geometry and superoperators.

Conventions used throughout the package:

* operators are plain ``numpy`` complex matrices,
* vectorization is column-stacking, ``vec(X)[a + b*n] = X[a, b]``,
* every superoperator is a CP map ``X -> sum_i K_i X K_i^dag`` held as
  its Kraus list and applied, adjoined and composed through it; a map
  given as a matrix is factored into Kraus operators once, when it is
  built, and refused if it is not CP; the matrix
  ``sum_i conj(K_i) otimes K_i`` on column-stacked vectors is built only
  when something reads it, and a map applies through that matrix only
  when the matvec is cheaper than the Kraus products and their overhead,
* adjoints of superoperators are taken w.r.t. the Hilbert-Schmidt
  inner product ``<A, B> = tr(A^dag B)``.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-9
# The fixed extra cost of a Kraus-form apply over a dense one, in multiply-adds:
# about the dense matvec of an 8x8 map, so maps that small apply densely
KRAUS_APPLY_OVERHEAD = 64 * 64

__all__ = [
    "DEFAULT_TOL",
    "vec",
    "unvec",
    "hs_norm",
    "eigh_clustered",
    "closure",
    "orthonormalize",
    "OperatorSubspace",
    "Superoperator",
    "superop_from_kraus",
    "map_coordinates",
]


def vec(X: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization of a matrix."""
    return np.asarray(X, dtype=complex).reshape(-1, order="F")


def unvec(v: np.ndarray, rows: int | None = None) -> np.ndarray:
    """Inverse of :func:`vec`. Square by default, else pass ``rows``."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    if rows is None:
        rows = round(np.sqrt(v.size))
        if rows * rows != v.size:
            raise ValueError(f"cannot unvec length {v.size} into a square matrix")
    return v.reshape((rows, v.size // rows), order="F")


def hs_norm(A: np.ndarray) -> float:
    return float(np.linalg.norm(A))


def eigh_clustered(H: np.ndarray, rel_gap: float):
    """Eigendecompose a Hermitian matrix, grouping eigenvalues closer than a relative gap.

    Neighbouring eigenvalues share a cluster when they differ by at most
    ``rel_gap`` times the spread of the spectrum, or times 1e-3 when the
    spread is smaller.  Returns a list of ``(mean_eigenvalue, vectors)`` pairs
    where ``vectors`` has one orthonormal column per member of the cluster.
    Eigenvectors of a cluster are re-orthonormalized by QR so degenerate
    eigenspaces stay clean.
    """
    w, V = np.linalg.eigh(H)
    gap = rel_gap * max(float(w[-1] - w[0]), 1e-3)
    clusters = []
    start = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or w[i] - w[i - 1] > gap:
            block = V[:, start:i]
            q, _ = np.linalg.qr(block)
            clusters.append((float(np.mean(w[start:i])), q))
            start = i
    return clusters


@dataclass(frozen=True)
class OperatorSubspace:
    """An operator subspace given by an HS-orthonormal basis.

    The basis elements share one shape, with ``ambient_dim`` rows; they are
    square everywhere except in the orbits of :func:`~cereduce.algebra.wedderburn`.

    The basis is also held as its stacked matrix Q, built once: row i is
    vec(B_i), so the coordinates of X are ``Q.conj() @ vec(X)`` and the
    orthogonal projector acts on column-stacked vectors as
    ``Q.T @ Q.conj()``.  Every projection goes through Q, many operators
    at a time when they are passed as columns of one matrix.
    """

    ambient_dim: int
    basis: tuple[np.ndarray, ...]

    def __post_init__(self):
        n = self.ambient_dim
        size = np.size(self.basis[0]) if self.basis else n * n
        Q = np.array([vec(B) for B in self.basis], dtype=complex).reshape(self.dim, size)
        Q.flags.writeable = False
        object.__setattr__(self, "_stacked", Q)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def stacked(self) -> np.ndarray:
        """Read-only (dim, n^2) matrix Q whose rows are the vectorized basis elements."""
        return self._stacked

    def coords(self, X: np.ndarray) -> np.ndarray:
        """HS coordinates of X in the basis."""
        return self._stacked.conj() @ vec(X)

    def project(self, X: np.ndarray) -> np.ndarray:
        """Orthogonal projection of X onto the subspace."""
        return unvec(self._stacked.T @ self.coords(X), self.ambient_dim)

    def residuals(self, Y: np.ndarray) -> np.ndarray:
        """Distances from the subspace of the operators vec'd in the columns of Y."""
        Q = self._stacked
        return np.linalg.norm(Y - Q.T @ (Q.conj() @ Y), axis=0)

    def residual(self, X: np.ndarray) -> float:
        """Distance of X from the subspace."""
        return float(self.residuals(vec(X)[:, None])[0])

    def contains(self, X: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
        return self.residual(X) <= tol * max(hs_norm(X), 1.0)


def closure(
    ops: list[np.ndarray] | tuple[np.ndarray, ...],
    expand: Callable[[np.ndarray, int], Iterable[np.ndarray]] | None = None,
    tol: float = DEFAULT_TOL,
) -> OperatorSubspace:
    """HS-orthonormal basis of the smallest span holding ``ops`` and closed under ``expand``.

    All operators have the shape (n, m) of the first; rectangular ones are
    allowed.  A worklist closure: ``expand(basis, i)`` is called exactly
    once per basis element ``i``, after all earlier ones, with the current
    basis as a read-only (dim, n, m) array, and returns the candidates that
    element contributes.  ``ops`` and each call's candidates form one block
    (block classical Gram-Schmidt, Stewart 2008).  One GEMM pair projects
    the whole block out of the basis held before it, and a candidate whose
    residual norm is then at most ``tol`` times the largest candidate norm
    seen so far is dropped.  In candidate order, each survivor is projected
    out of the elements its block has already added, which completes its
    first projection, then out of the whole basis a second time (CGS2), and
    kept when its residual still exceeds the bound, until the basis holds
    n m elements.  The bound of a candidate uses the norms up to and
    including it, not the block's largest, so the rank rule is that of
    adding the candidates one at a time.  While every candidate so far is
    Hermitian (square operators only), kept elements are symmetrized, so the
    basis stays Hermitian.
    """
    ops = list(ops)
    if not ops:
        raise ValueError("need at least one operator")
    n, m = shape = np.shape(ops[0])
    full = n * m
    # row i of Q is B_i flattened row-major (any one order of the entries gives the same
    # inner products), row i of Qc its conjugate; both grow by doubling
    Q = Qc = np.empty((0, full), dtype=complex)
    dim, hermitian, scale = 0, n == m, 0.0

    def add(candidates) -> None:
        nonlocal Q, Qc, dim, hermitian, scale
        block = candidates if isinstance(candidates, np.ndarray) else list(candidates)
        if any(np.shape(X) != shape for X in block):
            raise ValueError("operators must share a common shape")
        k = len(block)
        if dim == full or k == 0:  # a full basis spans every n x m operator
            return
        C = np.ascontiguousarray(block, dtype=complex).reshape(k, full)
        W = np.empty((k, full), dtype=complex)  # the asymmetries, then the residuals
        norms = _row_norms(C)
        herm = np.zeros(k, dtype=bool)
        if hermitian:
            np.conjugate(C.reshape(k, n, n).transpose(0, 2, 1), out=W.reshape(k, n, n))
            np.subtract(C, W, out=W)
            herm = np.logical_and.accumulate(_row_norms(W) <= 1e-12 * np.maximum(norms, 1.0))
            hermitian = bool(herm[-1])
        scales = np.maximum.accumulate(np.maximum(norms, scale))
        scale = float(scales[-1])
        bounds = tol * scales
        if dim:
            np.matmul(C @ Qc[:dim].T, Q[:dim], out=W)
            np.subtract(C, W, out=W)
        else:
            W = C
        start = dim
        for j in np.flatnonzero(_row_norms(W) > bounds):
            if dim == full:
                return
            # the rest of the first projection, then the second against the whole basis
            v = W[j] - (Qc[start:dim] @ W[j]) @ Q[start:dim]
            v -= (Qc[:dim] @ v) @ Q[:dim]
            res = hs_norm(v)
            if res <= bounds[j]:
                continue
            B = (v / res).reshape(n, m)
            if herm[j]:
                B = (B + B.conj().T) / 2
                B /= hs_norm(B)
            if dim == len(Q):
                grown = np.empty((2, min(max(2 * dim, 16), full), full), dtype=complex)
                grown[:, :dim] = Q[:dim], Qc[:dim]
                Q, Qc = grown
            Q[dim] = B.reshape(-1)
            np.conjugate(Q[dim], out=Qc[dim])
            dim += 1

    add(ops)
    i = 0
    while expand is not None and i < dim:
        basis = Q[:dim].reshape(dim, n, m)
        basis.flags.writeable = False
        add(expand(basis, i))
        i += 1
    return OperatorSubspace(n, tuple(Q[:dim].reshape(dim, n, m).copy()))


def _row_norms(M: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of a complex matrix with contiguous rows."""
    R = M.view(float)
    return np.sqrt(np.einsum("ij,ij->i", R, R))


def orthonormalize(
    ops: list[np.ndarray] | tuple[np.ndarray, ...],
    tol: float = DEFAULT_TOL,
) -> OperatorSubspace:
    """HS-orthonormal basis of the span of ``ops``, their :func:`closure` without ``expand``."""
    return closure(ops, tol=tol)


class Superoperator:
    """Completely positive map X -> sum_i K_i X K_i^dag, held as its Kraus list.

    Adjoints and compositions stay Kraus lists.  ``matrix``, of shape
    (out_dim^2, in_dim^2) on column-stacked vectors, is built from the
    Kraus list on first read and kept.  A map given as a matrix is factored
    once, here, at its Choi rank: a Cholesky C ~ L L^dag of its (symmetrized)
    N x N Choi matrix C, pivoted on the largest remaining diagonal entry,
    stops when that entry is at most ``DEFAULT_TOL`` ||C|| / N.  Each column
    l of L gives the operator unvec(l), and the zero map one zero operator.
    The map is accepted iff C is Hermitian and ||C - L L^dag||_F is at most
    ``DEFAULT_TOL`` ||C||, both with ||C|| at least 1.  That residual
    certifies CP: by Weyl's inequality C has no eigenvalue below minus it,
    and every CP map passes, since its remainder is PSD with Frobenius norm
    at most its trace.  A refused map raises ValueError naming its smallest
    Choi eigenvalue, the only eigensolve; the matrix itself is not kept.

    The apply form is fixed at construction from (r, in_dim, out_dim): with
    r Kraus operators, X -> sum_i K_i X K_i^dag is two products costing
    r (out_dim in_dim^2 + out_dim^2 in_dim) multiply-adds, plus a fixed
    ``KRAUS_APPLY_OVERHEAD`` for its extra reshapes and calls, which is
    used when that is below the out_dim^2 in_dim^2 of the dense matvec.
    Long Kraus lists, and maps of at most 8x8 operators such as the
    reduced Ising maps, apply through the matrix.  A stack
    (..., in_dim, in_dim) of operators is mapped in one call, in the same
    form, to the stack (..., out_dim, out_dim) of their images.
    """

    __slots__ = ("kraus", "in_dim", "out_dim", "_matrix", "_rows", "_cols")

    def __init__(self, matrix: np.ndarray | None = None, kraus=None):
        if sum(given is None for given in (matrix, kraus)) != 1:
            raise ValueError("need either a matrix or a Kraus list")
        if matrix is not None:
            kraus = _kraus_from_matrix(matrix)
        kraus = tuple(np.asarray(K, dtype=complex) for K in kraus)
        if not kraus:
            raise ValueError("need at least one Kraus operator")
        if kraus[0].ndim != 2 or any(K.shape != kraus[0].shape for K in kraus):
            raise ValueError("Kraus operators must share a common shape")
        self.kraus = kraus
        self._matrix = self._rows = self._cols = None
        no, ni = self.out_dim, self.in_dim = kraus[0].shape
        if len(kraus) * (no * ni * ni + no * no * ni) + KRAUS_APPLY_OVERHEAD < no * no * ni * ni:
            # sum_i K_i X K_i^dag = [K_1 ... K_r] @ stack_i(X K_i^dag)
            self._rows = np.hstack(kraus)
            self._cols = np.hstack([K.conj().T for K in kraus])

    @property
    def matrix(self) -> np.ndarray:
        """(out_dim^2, in_dim^2) matrix sum_i conj(K_i) otimes K_i."""
        if self._matrix is None:
            K = np.array(self.kraus)
            r, no, ni = K.shape
            # G[(p, s), (q, t)] = sum_i conj(K_i[p, s]) K_i[q, t], the kron entry [(p, q), (s, t)]
            G = K.reshape(r, no * ni).conj().T @ K.reshape(r, no * ni)
            M = G.reshape(no, ni, no, ni).transpose(0, 2, 1, 3).reshape(no * no, ni * ni)
            M.flags.writeable = False
            self._matrix = M
        return self._matrix

    def __call__(self, X: np.ndarray) -> np.ndarray:
        """The map applied to an (in_dim, in_dim) operator, or to each of a stack (..., in_dim, in_dim)."""
        X = np.asarray(X, dtype=complex)
        ni, no = self.in_dim, self.out_dim
        if X.shape == (ni, ni):
            # the same products without the stack bookkeeping, which costs about an eighth
            # of the apply of a reduced Ising map; a step of sample_trajectory is one such
            # call, for the drawn outcome, and one readout product
            if self._rows is None:
                return (self.matrix @ X.reshape(-1, order="F")).reshape((no, no), order="F")
            Y = (X @ self._cols).reshape(ni, -1, no).transpose(1, 0, 2).reshape(-1, no)
            return self._rows @ Y
        if X.shape[-2:] != (ni, ni):
            raise ValueError(f"expected {ni}x{ni} operators, got shape {X.shape}")
        lead = X.shape[:-2]
        if self._rows is None:
            # column-major flattening of the two last axes gives vec(X) of each operator
            v = X.reshape(*lead, ni * ni, order="F")
            return (v @ self.matrix.T).reshape(*lead, no, no, order="F")
        r = len(self.kraus)
        Y = (X @ self._cols).reshape(*lead, ni, r, no)
        return self._rows @ Y.swapaxes(-3, -2).reshape(*lead, r * ni, no)

    @classmethod
    def from_conjugation(cls, A: np.ndarray) -> "Superoperator":
        """The map X -> A X A^dag."""
        return superop_from_kraus([A])

    def adjoint(self) -> "Superoperator":
        """HS adjoint X -> sum_i K_i^dag X K_i."""
        return Superoperator(kraus=[K.conj().T for K in self.kraus])

    def compose(self, other: "Superoperator") -> "Superoperator":
        """self after other, with the Kraus list of all products A_i B_j."""
        if other.out_dim != self.in_dim:
            raise ValueError("dimension mismatch in composition")
        return Superoperator(kraus=[A @ B for A in self.kraus for B in other.kraus])

    def __matmul__(self, other: "Superoperator") -> "Superoperator":
        return self.compose(other)


def _choi(M: np.ndarray, no: int, ni: int) -> np.ndarray:
    # M[(b, a), (j, i)] = <a|S(|i><j|)|b> becomes C[(i, a), (j, b)]
    return np.einsum("baji->iajb", M.reshape(no, no, ni, ni)).reshape(ni * no, ni * no)


def _kraus_from_matrix(matrix: np.ndarray) -> list[np.ndarray]:
    """Kraus operators of the CP map with (out^2, in^2) matrix ``matrix``; see :class:`Superoperator`."""
    M = np.asarray(matrix, dtype=complex)
    if M.ndim != 2 or M.size == 0 or any(round(np.sqrt(s)) ** 2 != s for s in M.shape):
        raise ValueError(f"matrix shape {M.shape} is not (out^2, in^2)")
    no, ni = (round(np.sqrt(s)) for s in M.shape)
    C = _choi(M, no, ni)
    bound = DEFAULT_TOL * max(float(np.linalg.norm(C)), 1.0)
    # C^dag copied once in row order, so the strided transpose is read once; the Hermitian
    # part is formed in that copy, because C itself may be a view of the caller's matrix
    Ch = np.conjugate(C.T, order="C")
    herm_res = float(np.linalg.norm(C - Ch))
    Ch += C
    Ch /= 2
    C = Ch
    # for a PSD C the remainder S is PSD with ||S||_F <= tr S <= len(C) * (largest pivot left)
    L = _pivoted_cholesky(C, bound / len(C))
    P = L.T @ L.conj()
    P -= C
    res = float(np.linalg.norm(P))
    # C is within res of the PSD L L^dag, so by Weyl its spectrum is above -res
    if not (herm_res <= bound and res <= bound):
        raise ValueError(f"map is not completely positive: smallest Choi eigenvalue "
                         f"{np.linalg.eigvalsh(C)[0]:.3e}, Choi Hermiticity residual {herm_res:.3e}, "
                         f"Cholesky residual {res:.3e}")
    # entry (i, a) of a column of L is entry [a, i] of its (out, in) Kraus operator
    return [unvec(v, no) for v in L] or [np.zeros((no, ni), dtype=complex)]


def _pivoted_cholesky(C: np.ndarray, stop: float) -> np.ndarray:
    """Rows v_j with C ~ sum_j v_j v_j^dag, by Cholesky pivoted on the largest diagonal entry.

    C is Hermitian.  Stops when no diagonal entry of the remainder exceeds
    ``stop``; the rows are the columns of L in C ~ L L^dag.
    """
    N = len(C)
    d = C.diagonal().real.copy()  # the diagonal of the remainder
    L = np.empty((min(N, 16), N), dtype=complex)  # grows by doubling, as in closure
    k = 0
    while k < N:
        p = int(np.argmax(d))
        if not d[p] > stop:
            break
        # column p of C, less the part the columns so far account for
        v = C[p].conj() - L[:k].T @ L[:k, p].conj()
        v /= np.sqrt(d[p])
        d -= v.real ** 2 + v.imag ** 2
        d[p] = 0.0
        if k == len(L):
            grown = np.empty((min(2 * k, N), N), dtype=complex)
            grown[:k] = L
            L = grown
        L[k] = v
        k += 1
    return L[:k]


def superop_from_kraus(kraus) -> Superoperator:
    """Superoperator of X -> sum_i K_i X K_i^dag, kept as its Kraus list."""
    return Superoperator(kraus=kraus)


def map_coordinates(maps) -> np.ndarray:
    """One row x_a per map, linear in the maps and with <x_a, x_b> = <S_a, S_b>_HS.

    One QR of the flattened Kraus operators of all the maps gives
    vec(K_i) = Q R[:, i]; a map's row is its flattened process matrix a a^dag,
    a its columns of R.
    """
    maps = list(maps)
    _, R = np.linalg.qr(np.array([K.reshape(-1) for S in maps for K in S.kraus]).T)
    ends = np.cumsum([len(S.kraus) for S in maps])
    return np.array([(a @ a.conj().T).reshape(-1) for a in np.split(R, ends[:-1], axis=1)])

