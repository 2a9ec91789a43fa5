"""Dense operators, Hilbert-Schmidt geometry and superoperators.

Conventions used throughout the package:

* operators are plain ``numpy`` complex matrices,
* superoperator matrices act on column-stacked operators: entry
  a + b*n of the vector of X is X[a, b],
* an operator span is held as one read-only (dim, n, m) array of its
  HS-orthonormal basis, in the dtype it was closed in, and projects
  through the row-major (dim, n m) view of that array; any one order of
  the entries gives the same inner products,
* every superoperator is a CP map ``X -> sum_i K_i X K_i^dag`` held as
  its Kraus list and applied, adjoined and composed through it; a map
  given as a matrix is factored into Kraus operators once, when it is
  built, and refused if it is not CP; the matrix
  ``sum_i conj(K_i) otimes K_i`` on column-stacked vectors is built only
  when something reads it; a map applies in one of three forms, fixed
  when it is built: elementwise when every Kraus operator is square and
  exactly diagonal, else through that matrix when the matvec is cheaper
  than the Kraus products and their overhead, else through the products,
  which for one Kraus operator K are K (X K^dag) with no reshape; the
  products run on the rows R and columns C where some Kraus operator is
  nonzero, X_CC through K_RC, with zeros outside R x R, so U P_k with a
  projector P_k takes them on P_k's range alone; in
  that form one operator takes its products through ``ndarray.dot`` and
  a stack through ``@``: both reach the same BLAS gemm, and
  ``ndarray.dot`` through a lighter dispatch than the matmul gufunc,
  whose own cost is about a quarter of a 16 x 16 complex product; the
  one-row projections of the Gram-Schmidt survivor loop go through
  ``ndarray.dot`` too, except a complex vector-matrix product, which
  stays a matmul for its rounding,
* adjoints of superoperators are taken w.r.t. the Hilbert-Schmidt
  inner product ``<A, B> = tr(A^dag B)``.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-9
# The fixed extra cost of a Kraus-form apply over a dense one, in multiply-adds:
# about the dense matvec of an 8x8 map, so maps that small apply densely
KRAUS_APPLY_OVERHEAD = 64 * 64
# The most entries of a slab of real coordinates turned into Hermitian matrices at once:
# 512 KB of float64, so that the transposed reads stay in cache
REAL_COORDINATES_SLAB = 2**16

__all__ = [
    "DEFAULT_TOL",
    "unvec",
    "eigh_clustered",
    "closure",
    "hermitian_closure",
    "OperatorSubspace",
    "Superoperator",
    "map_coordinates",
]


def unvec(v: np.ndarray, rows: int | None = None) -> np.ndarray:
    """The matrix whose columns, stacked, are ``v``. Square by default, else pass ``rows``."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    if rows is None:
        rows = round(np.sqrt(v.size))
        if rows * rows != v.size:
            raise ValueError(f"cannot unvec length {v.size} into a square matrix")
    return v.reshape((rows, v.size // rows), order="F")


def eigh_clustered(H: np.ndarray, rel_gap: float) -> list[np.ndarray]:
    """Eigendecompose a Hermitian matrix, grouping eigenvalues closer than a relative gap.

    Neighbouring eigenvalues share a cluster when they differ by at most
    ``rel_gap`` times the spread of the spectrum, or times 1e-3 when the
    spread is smaller.  Returns, in ascending order of the eigenvalues, one
    matrix per cluster with one orthonormal column per member.  Eigenvectors
    of a cluster are re-orthonormalized by QR so degenerate eigenspaces stay
    clean: the clusters of one width go through one batched QR, which runs
    LAPACK on each matrix of the stack as on that matrix alone.
    """
    w, V = np.linalg.eigh(H)
    gap = rel_gap * max(float(w[-1] - w[0]), 1e-3)
    starts = np.flatnonzero(np.diff(w, prepend=-np.inf) > gap)
    widths = np.diff(starts, append=len(w))
    clusters = [None] * len(starts)
    for width in set(widths.tolist()):  # np.unique's first call loads 1.6 MB more
        of_width = np.flatnonzero(widths == width)
        # (clusters, n, width): the columns of each cluster of this width
        Q = np.linalg.qr(V[:, starts[of_width, None] + np.arange(width)].transpose(1, 0, 2))[0]
        for i, q in zip(of_width.tolist(), Q):
            clusters[i] = q
    return clusters


@dataclass(frozen=True)
class OperatorSubspace:
    """An operator subspace given by an HS-orthonormal basis.

    The basis is one read-only C-contiguous (dim, n, m) array, with n =
    ``ambient_dim``, real or complex; it is square everywhere except in the
    orbits of :func:`~cereduce.algebra.algebra_closure`.  A sequence of operators
    is stacked into that array once, here.  Every projection goes through
    the (dim, n m) view Q of the same memory, :meth:`stacked`, whose row i
    is B_i flattened row-major, many operators at a time when they are
    passed as flattened columns of one matrix.  A subspace made by
    :func:`closure` carries both sides of its rank decision, ``dropped``
    and ``kept``; one given its basis has dropped none and kept none.
    """

    ambient_dim: int
    basis: np.ndarray
    # the largest residual of a candidate :func:`closure` dropped, 0.0 when it dropped none
    dropped: float = 0.0
    # the smallest residual of a candidate :func:`closure` kept, inf when it kept none
    kept: float = math.inf

    def __post_init__(self):
        basis = np.ascontiguousarray(self.basis)
        if basis.ndim != 3:  # an empty sequence
            basis = basis.reshape(0, self.ambient_dim, self.ambient_dim)
        # a view, so that the caller's array keeps its own flags
        basis = basis.view()
        basis.flags.writeable = False
        object.__setattr__(self, "basis", basis)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def stacked(self) -> np.ndarray:
        """Read-only (dim, n m) view Q of the basis, row i the row-major flattening of B_i."""
        dim, n, m = self.basis.shape
        return self.basis.reshape(dim, n * m)


def closure(
    ops: Sequence[np.ndarray] | np.ndarray,
    expand: Callable[[np.ndarray], np.ndarray] | None = None,
    tol: float = DEFAULT_TOL,
) -> OperatorSubspace:
    """HS-orthonormal basis of the smallest span holding ``ops`` and closed under ``expand``.

    ``ops`` is stacked once into a (k, n, m) array, rectangular allowed.
    The basis has the dtype of ``ops``: real when every op is real, and then
    a complex candidate raises ValueError.  A closure by generations:
    ``expand(new)`` is called once per generation with the read-only
    (j, n, m) stack of the basis elements added since the previous call,
    the first call with those ``ops`` spanned, so that each element is
    expanded exactly once, in order.  It returns one (k, n, m) array of
    candidates, k = 0 allowed, which form one block for
    :func:`_gram_schmidt`; the closure ends when a generation adds nothing.
    The returned basis is the first rows of its buffer itself, not a copy.
    Its ``dropped`` is the largest residual of a dropped candidate, 0.0
    when none was and NaN when a candidate was NaN: measured against part
    of the final basis, it bounds every candidate's distance from the
    span, as a kept one lies in it.  Its ``kept`` is the smallest residual
    of a kept candidate, absolute as ``dropped`` is, read in the same loop:
    the two sides of the rank decision, whose ratio is its margin.
    """
    if len(ops) == 0:
        raise ValueError("need at least one operator")
    if len({np.shape(X) for X in ops}) > 1:
        raise ValueError("operators must share a common shape")
    C = np.asarray(ops)
    n, m = shape = C.shape[1:]
    full = n * m
    dtype = complex if np.iscomplexobj(C) else float
    # row i of Q is B_i flattened row-major (any one order of entries gives the same products)
    Q, dim, scale, dropped, kept, start = np.empty((0, full), dtype=dtype), 0, 0.0, 0.0, math.inf, 0
    while len(C):
        C = np.ascontiguousarray(C, dtype=dtype).reshape(len(C), full)
        Q, dim, scale, lost, least = _gram_schmidt(Q, dim, C, scale, tol)
        dropped = np.maximum(dropped, lost)
        kept = min(kept, least)
        del C  # freed before the next generation's candidates are formed
        if expand is None or start == dim:
            break
        new = Q[start:dim].reshape(dim - start, n, m)
        new.flags.writeable = False
        start = dim
        C = expand(new)
        if not isinstance(C, np.ndarray) or C.shape[1:] != shape:
            raise ValueError("operators must share a common shape")
        if dtype is float and np.iscomplexobj(C):
            raise ValueError("complex candidate in a closure of real operators")
    return OperatorSubspace(n, Q[:dim].reshape(dim, n, m), float(dropped), kept)


def _gram_schmidt(Q: np.ndarray, dim: int, C: np.ndarray, scale: float, tol: float):
    """Add the candidate rows of ``C``, (k, full), to the orthonormal rows ``Q[:dim]``.

    Returns the buffer ``Q`` (grown by doubling), ``dim``, ``scale`` (the
    largest candidate norm seen), the largest residual of a dropped row
    (0.0 if none, NaN for a NaN row) and the smallest of a kept row (inf if
    none).
    Block classical Gram-Schmidt (Stewart 2008): one GEMM pair projects
    the block out of ``Q[:dim]``, and a candidate whose residual is then at
    most ``tol`` times the largest norm seen up to it is dropped.  In order,
    each survivor is projected out of the rows the block has added, then
    out of the whole basis again (CGS2), and kept if its residual still
    exceeds that bound: the rank rule of adding the rows one at a time.
    The survivor loop works on one row at a time, so it takes its products
    through ``ndarray.dot``, past the matmul gufunc's dispatch, and skips
    the projection out of the block's own rows until it has added one.
    The complex row combination c B stays a matmul: ``ndarray.dot``'s
    vector-matrix kernel rounds it differently.
    """
    full = C.shape[1]
    if dim == full or len(C) == 0:  # a full basis spans every row
        return Q, dim, scale, 0.0, math.inf
    scales = np.maximum.accumulate(np.maximum(_row_norms(C), scale))
    scale = float(scales[-1])
    bounds = tol * scales
    # the residuals; every conj below is free on real arrays
    W = C
    if dim:
        W = (C.conj() @ Q[:dim].T).conj() @ Q[:dim]
        np.subtract(C, W, out=W)
    start = dim
    residuals = _row_norms(W)
    kept = residuals > bounds
    # a NaN candidate is dropped, with every later one (its norm makes the bounds NaN)
    dropped = np.max(residuals[~kept], initial=0.0)
    least = math.inf
    real = not np.iscomplexobj(Q)
    for j in np.flatnonzero(kept).tolist():
        if dim == full:
            break
        # the rest of the first projection, then the second against the whole basis; on real
        # rows the conjugates fall away and the norm is np.linalg.norm's sqrt(v . v)
        w, B = W[j], Q[start:dim]
        if real:
            v = w - B.dot(w).dot(B) if dim > start else w.copy()
            B = Q[:dim]
            v -= B.dot(v).dot(B)
            res = math.sqrt(v.dot(v))
        else:
            v = w - B.dot(w.conj()).conj() @ B if dim > start else w.copy()
            B = Q[:dim]
            v -= B.dot(v.conj()).conj() @ B
            res = math.sqrt(v.real.dot(v.real) + v.imag.dot(v.imag))
        if res <= bounds[j]:
            dropped = max(dropped, res)
            continue
        least = min(least, res)
        if dim == len(Q):
            grown = np.empty((min(max(2 * dim, 16), full), full), dtype=Q.dtype)
            grown[:dim] = Q[:dim]
            Q = grown
        Q[dim] = v / res
        dim += 1
    return Q, dim, scale, float(dropped), least


def _row_norms(M: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of a real or complex matrix with contiguous rows."""
    R = M.view(float)
    return np.sqrt(np.einsum("ij,ij->i", R, R))


def _hermitian_parts(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(X + X^dag)/2 and (X - X^dag)/2i, the Hermitian operators with X = real + i imag."""
    X = np.asarray(X, dtype=complex)
    return (X + X.conj().T) / 2, (X - X.conj().T) / 2j


def hermitian_closure(
    generators,
    images: Callable[[np.ndarray], Sequence[np.ndarray]] | None = None,
    tol: float = DEFAULT_TOL,
    blocks: list[np.ndarray] | None = None,
) -> OperatorSubspace:
    """Exactly Hermitian HS-orthonormal basis of the smallest span of Hermitian operators
    holding the Hermitian parts of ``generators`` and invariant under some maps;
    ``images(H)`` gives the sequence of images of a stack H, (j, n, n), one
    stack per map, as ``lambda H: [S(H)]`` does for one map S, or
    :meth:`~cereduce.model.ConditionalEvolution.dual_images` for the duals.

    The maps must take Hermitian operators to Hermitian ones, as CP maps
    and their duals do.  H -> Re H + Im H maps Hermitian operators
    isometrically (HS to Frobenius) onto real matrices X, so the
    :func:`closure` runs on real X: each generator enters through its two
    Hermitian parts, and each generation of new elements X goes through the
    maps in one call, ``images(H)`` of H = (X + X^T)/2 + i (X - X^T)/2,
    exactly Hermitian.  Its candidates are one (j, m, n, n) array of the
    real coordinates of the j elements' images under the m maps, each map's
    stack written into it as it is read.  When ``blocks`` is a list, every
    such array is appended to it, so that the blocks, in order, hold the
    real coordinates of the images of every basis element, as
    :func:`~cereduce.observability.linear_reduce` reads them.  The returned
    basis is these H, written into one complex stack.
    """
    def expand(new):
        ys = images(_from_real_coordinates(new))
        block = np.empty((len(new), len(ys), *new.shape[1:]))
        for k, Y in enumerate(ys):
            np.add(Y.real, Y.imag, out=block[:, k])
        if blocks is not None:
            blocks.append(block)
        # the candidates element by element, each element's images in the maps' order
        return block.reshape(-1, *new.shape[1:])

    parts = [P.real + P.imag for X in generators for P in _hermitian_parts(X)]
    sub = closure(parts, expand if images is not None else None, tol)
    return OperatorSubspace(sub.ambient_dim, _from_real_coordinates(sub.basis), sub.dropped, sub.kept)


def _from_real_coordinates(X: np.ndarray) -> np.ndarray:
    """H = (X + X^T)/2 + i (X - X^T)/2 from its real coordinates X = Re H + Im H,
    for each n x n matrix of a stack (..., n, n).

    The stack goes in slabs of as many matrices as fit in ``REAL_COORDINATES_SLAB``
    entries, at least one: each slab's X^T is read once, into a contiguous
    copy, and both parts are written straight into the complex result.
    """
    H = np.empty(X.shape, dtype=complex)
    n = X.shape[-1]
    Xs, Hs = X.reshape(-1, n, n), H.reshape(-1, n, n)
    step = max(1, REAL_COORDINATES_SLAB // (n * n))
    for i in range(0, len(Xs), step):
        Xi, Hi = Xs[i:i + step], Hs[i:i + step]
        XT = np.ascontiguousarray(np.swapaxes(Xi, -1, -2))
        real, imag = Hi.real, Hi.imag
        np.add(Xi, XT, out=real)
        real /= 2
        np.subtract(Xi, XT, out=imag)
        imag /= 2
    return H


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

    The apply form is fixed at construction, one of three.  A square map
    whose Kraus operators are all exactly diagonal, K_i = diag(d_i), such as
    the effects of a measurement in the computational basis, applies
    elementwise, X -> X o W with the n x n weights W = sum_i d_i d_i^dag,
    held as a real array when it is real: n^2 multiplications, at any
    size.  Its adjoint is
    diagonal too, and :meth:`compose` with it on the right scales columns.
    Otherwise the form follows from (r, in_dim, out_dim): with r Kraus
    operators, X -> sum_i K_i X K_i^dag is two products costing
    r (out_dim in_dim^2 + out_dim^2 in_dim) multiply-adds, plus a fixed
    ``KRAUS_APPLY_OVERHEAD`` for its extra reshapes and calls, which is
    used when that is below the out_dim^2 in_dim^2 of the dense matvec.
    The products are [K_1 ... K_r] @ stack_i(X K_i^dag), the stack formed
    by a reshape; with r = 1, as for every full zoo instrument map U D_k,
    they are K (X K^dag), the same two products with no reshape.  They run
    on the support of the Kraus list, found on the first apply and kept, so
    that a map built and never applied, such as the instrument composed
    for a split model that is only reduced, does not pay for it: the rows
    R and columns C on which some K_i is nonzero.  The image is
    sum_i K_iRC X_CC K_iRC^dag on R x R and zero elsewhere, so no entry of
    X outside C x C is read, NaN included.  A support that is an
    arithmetic progression, such as P_0's range on the last Ising qubit
    (stride 2), is held as a slice, so X_CC is a view, and any other as an
    index array.  A single row or column counts as the whole side, since
    numpy takes a product with a 1 x 1 or one-row operand past gemm.
    U P_k then takes a quarter of the first product and half of the
    second, and its adjoint P_k U^dag the reverse; the form is still
    priced at the full shape.  On the zoo's Ising maps at N = 4-7 the
    image has the bytes of the full-size products.
    Long Kraus lists, and maps of at most 8x8 operators such as the
    reduced Ising maps, apply through the matrix.  :attr:`form` names the
    form chosen.  A stack
    (..., in_dim, in_dim) of operators is mapped in one call, in the same
    form, to the stack (..., out_dim, out_dim) of their images.  In the
    products form one (in_dim, in_dim) operator takes its products through
    ``ndarray.dot``, a stack through ``@``: ``ndarray.dot`` skips the
    gufunc dispatch of ``@``, about 0.6 us a product, a quarter of a
    16 x 16 complex product.  Both call the same BLAS gemm, so one
    operator's image has the bytes of its image in a stack whenever both
    hand BLAS the same data: always for a C- or F-ordered operator, and
    for a strided view where matmul, like ``ndarray.dot``, first copies
    it into contiguous memory, as numpy 2.4 does; a matmul that runs its
    own loop on a strided view may differ in the last bits.
    """

    __slots__ = ("kraus", "in_dim", "out_dim", "_form", "_matrix", "_rows", "_cols", "_in", "_out",
                 "_weights")

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
        self._matrix = self._rows = self._cols = self._in = self._out = self._weights = None
        no, ni = self.out_dim, self.in_dim = kraus[0].shape
        self._form = "matrix"
        if no == ni and all(_is_diagonal(K) for K in kraus):
            # K X K^dag = X o (d d^dag) for K = diag(d)
            d = np.array([np.diagonal(K) for K in kraus])
            W = d.T @ d.conj()
            self._weights = W if W.imag.any() else W.real.copy()
            self._form = "elementwise"
        elif len(kraus) * (no * ni * ni + no * no * ni) + KRAUS_APPLY_OVERHEAD < no * no * ni * ni:
            self._form = "products"

    @property
    def form(self) -> str:
        """The apply form fixed at construction: "elementwise", "products" or "matrix"."""
        return self._form

    def _restrict(self) -> np.ndarray:
        """The products form's support, found on its first apply: sets and returns ``_rows``."""
        # on the rows R and columns C where some K_i is nonzero, sum_i K_i X K_i^dag is
        # [K_1RC ... K_rRC] @ stack_i(X_CC K_iRC^dag) on R x R, and zero elsewhere
        nonzero = functools.reduce(np.logical_or, (K != 0 for K in self.kraus))
        R, self._out = _support(nonzero.any(axis=1))
        C, self._in = _support(nonzero.any(axis=0))
        restricted = [K[R][:, C] for K in self.kraus]
        self._cols = np.hstack([K.conj().T for K in restricted])
        self._rows = np.hstack(restricted)
        return self._rows

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
        ni = self.in_dim
        if X.shape[-2:] != (ni, ni):
            raise ValueError(f"expected {ni}x{ni} operators, got shape {X.shape}")
        rows = self._rows
        if rows is None and self._form == "products":
            rows = self._restrict()
        if rows is not None:
            lead = X.shape[:-2]
            if self._in is not None:
                X = X[self._in]
            # one operator goes through ndarray.dot, a stack through matmul: the same BLAS gemm
            one = X.ndim == 2
            Y = X.dot(self._cols) if one else X @ self._cols
            r = len(self.kraus)
            if r > 1:
                c, m = X.shape[-1], len(rows)
                Y = Y.reshape(*lead, c, r, m).swapaxes(-3, -2).reshape(*lead, r * c, m)
            Y = rows.dot(Y) if one else rows @ Y
            if self._out is None:
                return Y
            no = self.out_dim
            out = np.zeros((*lead, no, no), dtype=complex)
            out[self._out] = Y
            return out
        if self._weights is not None:
            return X * self._weights
        lead, no = X.shape[:-2], self.out_dim
        # column-major flattening of the two last axes gives vec(X) of each operator
        v = X.reshape(*lead, ni * ni, order="F")
        return (v @ self.matrix.T).reshape(*lead, no, no, order="F")

    def adjoint(self) -> "Superoperator":
        """HS adjoint X -> sum_i K_i^dag X K_i."""
        return Superoperator(kraus=[K.conj().T for K in self.kraus])

    def compose(self, other: "Superoperator") -> "Superoperator":
        """self after other, with the Kraus list of all products A_i B_j.

        A diagonal B_j = diag(d) scales the columns of A_i, A_i d, with no matrix product.
        """
        if other.out_dim != self.in_dim:
            raise ValueError("dimension mismatch in composition")
        if other._weights is not None:
            return Superoperator(kraus=[A * np.diagonal(B) for A in self.kraus for B in other.kraus])
        return Superoperator(kraus=[A @ B for A in self.kraus for B in other.kraus])

    def __matmul__(self, other: "Superoperator") -> "Superoperator":
        return self.compose(other)


def _support(nonzero: np.ndarray) -> tuple[slice | np.ndarray, tuple | None]:
    """The indices I at which the mask ``nonzero`` holds, as one selector of an axis, and the
    key of the square I x I of an operator of its size: None when I is all of them, a view
    when I is an arithmetic progression or empty, else the two index arrays of the square.

    A single index counts as all of them: numpy hands a product with a 1 x 1 or one-row
    operand to its scalar or vector kernels, which round otherwise than gemm, so one
    operator's image would part from its image in a stack.
    """
    index = np.flatnonzero(nonzero)
    k = len(index)
    if k in (1, len(nonzero)):
        return slice(None), None
    if k == 0:
        return slice(0, 0), (..., slice(0, 0), slice(0, 0))
    first, last = int(index[0]), int(index[-1])
    step = (last - first) // (k - 1)
    # k indices, all on the k points of this progression, are those points
    if step * (k - 1) == last - first and nonzero[first:last + 1:step].all():
        span = slice(first, last + 1, step)
        return span, (..., span, span)
    return index, (..., index[:, None], index)


def _is_diagonal(K: np.ndarray) -> bool:
    """Whether the square K has no nonzero entry off its diagonal, read in place in any layout."""
    return np.count_nonzero(K) == np.count_nonzero(np.diagonal(K))


def _kraus_from_matrix(matrix: np.ndarray) -> list[np.ndarray]:
    """Kraus operators of the CP map with (out^2, in^2) matrix ``matrix``; see :class:`Superoperator`."""
    M = np.asarray(matrix, dtype=complex)
    if M.ndim != 2 or M.size == 0 or any(round(np.sqrt(s)) ** 2 != s for s in M.shape):
        raise ValueError(f"matrix shape {M.shape} is not (out^2, in^2)")
    no, ni = (round(np.sqrt(s)) for s in M.shape)
    # M[(b, a), (j, i)] = <a|S(|i><j|)|b> is C[(i, a), (j, b)], and conj(M[(a, b), (i, j)]) is
    # C^dag[(i, a), (j, b)]: both are gathered from M in row order, which at a 2048 x 2048 C
    # forms C^dag in a third of the time of transposing C's copy; the Hermitian part is
    # formed in the copy of C^dag, because C itself may be a view of the caller's matrix
    M4 = M.reshape(no, no, ni, ni)
    C = np.einsum("baji->iajb", M4).reshape(ni * no, ni * no)
    Ch = np.conjugate(np.einsum("abij->iajb", M4), order="C").reshape(C.shape)
    bound = DEFAULT_TOL * max(float(np.linalg.norm(C)), 1.0)
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


def map_coordinates(maps) -> np.ndarray:
    """One row x_a per map, linear in the maps and with <x_a, x_b> = <S_a, S_b>_HS.

    One QR of the flattened Kraus operators of all the maps gives
    vec(K_i) = Q R[:, i], of which only R is formed; a map's row is its
    flattened process matrix a a^dag, a its columns of R.
    """
    maps = list(maps)
    R = np.linalg.qr(np.array([K.reshape(-1) for S in maps for K in S.kraus]).T, mode="r")
    ends = np.cumsum([len(S.kraus) for S in maps])
    return np.array([(a @ a.conj().T).reshape(-1) for a in np.split(R, ends[:-1], axis=1)])

