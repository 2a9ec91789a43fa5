"""Matrix *-algebras: closure, commutant, block decomposition, projection.

A unital *-algebra of n x n matrices is unitarily equivalent to a direct
sum of blocks B(C^{d_S}) otimes 1_{d_F}.  The decomposition is computed
numerically from a generic element of the center, which separates the
blocks, and the algebra orbits of eigenvectors of a generic algebra
element, which give each block's aligned multiplicity slices; the unitary
it produces is validated against the block structure of every algebra
basis element before being returned.  The center is the real null space
of the structure constants Im<B_l, B_i B_j> of the algebra's Hermitian
basis, an (m^2, m) matrix for an m-dimensional algebra.  The commutant
is read off the decomposition as the direct sum of blocks
1_{d_S} otimes B(C^{d_F}).

From the decomposition one obtains the unique Hilbert-Schmidt-orthogonal
conditional expectation onto the algebra, factorized into a CPTP
compression (partial trace per block) and a CPTP injection (tensoring
with normalized block identities).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import (
    DEFAULT_TOL,
    OperatorSubspace,
    Superoperator,
    closure,
    eigh_clustered,
    is_hermitian,
    orthonormalize,
    superop_from_kraus,
    unvec,
)

__all__ = [
    "StarAlgebra",
    "DegenerateAlgebraError",
    "algebra_closure",
    "commutant",
    "center",
    "WedderburnDecomposition",
    "wedderburn",
    "CEFactorization",
    "conditional_expectation",
]


class DegenerateAlgebraError(RuntimeError):
    """Random algebra elements failed to separate the block structure."""


def _hermitian_parts(X: np.ndarray) -> np.ndarray:
    """(X + X^dag)/2 and (X - X^dag)/2i of each of k stacked matrices, interleaved: (2k, n, n)."""
    X = np.asarray(X, dtype=complex)
    out = np.empty((*X.shape[:-2], 2, *X.shape[-2:]), dtype=complex)
    re, im = out[..., 0, :, :], out[..., 1, :, :]
    np.conjugate(X.swapaxes(-1, -2), out=im)
    np.add(X, im, out=re)
    np.subtract(X, im, out=im)
    re *= 0.5
    im *= -0.5j
    return out.reshape(-1, *X.shape[-2:])


@dataclass(frozen=True)
class StarAlgebra:
    """Operator span closed under products and adjoints.

    The basis is HS-orthonormal and, in every algebra this module builds,
    Hermitian; :func:`center` requires that.
    """

    space: OperatorSubspace
    unital: bool

    @property
    def ambient_dim(self) -> int:
        return self.space.ambient_dim

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def basis(self) -> tuple[np.ndarray, ...]:
        return self.space.basis

    def closure_residual(self) -> float:
        """Worst projection residual of basis products and adjoints."""
        n = self.ambient_dim
        Bs = np.array(self.basis, dtype=complex).reshape(self.dim, n, n)
        ops = np.concatenate([Bs.conj().transpose(0, 2, 1), (Bs[:, None] @ Bs).reshape(-1, n, n)])
        # column j of the stack is vec(ops[j]), column-stacked like the basis
        cols = ops.transpose(0, 2, 1).reshape(-1, n * n).T
        return float(np.max(self.space.residuals(cols), initial=0.0))


def algebra_closure(
    subspace: OperatorSubspace | list[np.ndarray],
    tol: float = DEFAULT_TOL,
) -> StarAlgebra:
    """Smallest *-algebra containing the given span.

    The :func:`~cereduce.operators.closure` of the Hermitian parts of the
    generators, where basis element i is expanded into the Hermitian parts
    of the products B_i B_j with j <= i, formed as one batched product
    B_i [B_0 ... B_i].  The basis is Hermitian, so it is closed under
    adjoints, and B_j B_i = (B_i B_j)^dag has the same Hermitian parts;
    each product is therefore formed once.
    """
    ops = subspace.basis if isinstance(subspace, OperatorSubspace) else subspace
    if not len(ops):
        raise ValueError("need at least one operator")

    def products(basis, i):
        return _hermitian_parts(basis[i] @ basis[: i + 1])

    space = closure(_hermitian_parts(np.array(ops)), products, tol)
    eye = np.eye(space.ambient_dim, dtype=complex)
    return StarAlgebra(space=space, unital=space.contains(eye, max(tol, 1e-8)))


def commutant(alg: StarAlgebra, tol: float = DEFAULT_TOL) -> StarAlgebra:
    """All operators commuting with every element of the algebra.

    Read off the block decomposition in closed form as
    U ((+) 1_{d_S} otimes B(C^{d_F})) U^dag, with an HS-orthonormal
    Hermitian basis.  A non-unital algebra is decomposed through its
    unitization, which has the same commutant.
    """
    n = alg.ambient_dim
    if not alg.unital:
        unitization = orthonormalize([*alg.basis, np.eye(n, dtype=complex)], tol)
        alg = StarAlgebra(space=unitization, unital=True)
    dec = wedderburn(alg, tol)
    ops = []
    for k, (dS, dF) in enumerate(dec.blocks):
        # column s * d_F + f of the block isometry is Uk[:, s, f]
        Uk = dec.block_isometry(k).reshape(n, dS, dF)
        for f in range(dF):
            for g in range(f, dF):
                # U (1_S otimes |f><g|) U^dag, split into unit-norm Hermitian parts
                X = Uk[:, :, f] @ Uk[:, :, g].conj().T
                real, imag = _hermitian_parts(X)
                if f == g:
                    ops.append(real / np.sqrt(dS))
                else:
                    ops += [real * np.sqrt(2 / dS), imag * np.sqrt(2 / dS)]
    return StarAlgebra(space=OperatorSubspace(n, tuple(ops)), unital=True)


def center(alg: StarAlgebra, tol: float = DEFAULT_TOL) -> OperatorSubspace:
    """The center: elements of the algebra commuting with the whole algebra.

    Requires a Hermitian basis B_i, as every algebra built here has.  Then
    [B_i, B_j] = P - P^dag with P = B_i B_j lies in the algebra with
    coordinates 2i Im<B_l, P>, so the center is the real null space of the
    (m^2, m) structure-constant matrix F[(j, l), i] = Im<B_l, B_i B_j>.
    Orthonormal real null vectors c give the HS-orthonormal Hermitian
    basis sum_i c_i B_i.  F = Im tr(B_l B_i B_j) is totally antisymmetric,
    so only the products with j < i are formed.
    """
    if not all(is_hermitian(B, tol) for B in alg.basis):
        raise ValueError("center needs a Hermitian algebra basis")
    n, m = alg.ambient_dim, alg.dim
    Q = alg.space.stacked()
    Qc = Q.conj()
    T = Q.reshape(m, n, n)  # T[i] = B_i^T, so T[j] @ T[i] = (B_i B_j)^T holds vec(B_i B_j)
    F = np.zeros((m, m, m))  # F[j, l, i]
    for i in range(1, m):
        G = (Qc @ (T[:i] @ T[i]).reshape(i, -1).T).imag  # G[l, j] = F[j, l, i], j < i
        F[:i, :, i] = G.T
        F[i, :, :i] = -G
    F = F.reshape(-1, m)
    _, s, Vh = np.linalg.svd(F, full_matrices=False)
    keep = s <= tol * np.max(s, initial=1.0)
    return OperatorSubspace(n, tuple(unvec(v, n) for v in Vh[keep] @ Q))


@dataclass(frozen=True)
class WedderburnDecomposition:
    """Unitary basis change exposing the block structure of an algebra.

    Columns of ``U`` are grouped per block; within a block of shape
    (d_S, d_F), column ``s * d_F + f`` carries the s-th inner and f-th
    multiplicity index, so conjugated algebra elements look like
    ``X_S otimes 1_F`` on each block.
    """

    U: np.ndarray
    blocks: tuple[tuple[int, int], ...]

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

    def block_isometry(self, k: int) -> np.ndarray:
        """Columns of U spanning the k-th block, shape (n, d_S*d_F)."""
        offs = self.hilbert_offsets()
        return self.U[:, offs[k]:offs[k + 1]]

    def structure_residual(self, B: np.ndarray) -> float:
        """Distance of U^dag B U from the block form (+) X_S otimes 1_F."""
        T = self.U.conj().T @ B @ self.U
        offs = self.hilbert_offsets()
        model = np.zeros_like(T)
        for k, (dS, dF) in enumerate(self.blocks):
            sub = T[offs[k]:offs[k + 1], offs[k]:offs[k + 1]]
            sub4 = sub.reshape(dS, dF, dS, dF)
            XS = np.einsum("sftf->st", sub4) / dF
            model[offs[k]:offs[k + 1], offs[k]:offs[k + 1]] = np.kron(XS, np.eye(dF))
        return float(np.linalg.norm(T - model))


def _random_hermitian_in(space_basis, rng) -> np.ndarray:
    coeffs = rng.standard_normal(len(space_basis))
    X = sum(c * B for c, B in zip(coeffs, space_basis))
    return (X + X.conj().T) / 2


def _eigenspaces(H: np.ndarray, gap_tol: float):
    """Eigenspaces of H, clustering eigenvalues closer than gap_tol times the spread."""
    w = np.linalg.eigvalsh(H)
    return eigh_clustered(H, gap_tol * max(float(w[-1] - w[0]), 1e-3))


def wedderburn(
    alg: StarAlgebra,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
    max_redraws: int = 8,
) -> WedderburnDecomposition:
    """Block decomposition of a unital *-algebra from generic elements.

    A random Hermitian element of the center separates the minimal central
    blocks.  Within a block, a random Hermitian algebra element
    A_S otimes 1_F has d_S eigenspaces of dimension d_F.  The algebra orbit
    {B_i v_1} of one vector of the first eigenspace spans one multiplicity
    slice; the coefficients G that orthonormalize it, applied to the orbit
    {B_i v_f} of every other vector v_f of that eigenspace, give slice f
    already aligned.  The result is accepted only if every algebra basis
    element actually acquires the block structure; otherwise a fresh seed
    is drawn.
    """
    if not alg.unital:
        raise ValueError("Wedderburn decomposition requires a unital algebra")
    Z = center(alg, tol)
    struct_tol = max(np.sqrt(tol), 1e-8)

    last_err = "no attempt made"
    for attempt in range(max_redraws):
        rng = np.random.default_rng([seed, attempt])
        try:
            dec = _wedderburn_attempt(alg, Z, tol, rng)
        except DegenerateAlgebraError as exc:
            last_err = str(exc)
            continue
        res = max(dec.structure_residual(B) for B in alg.basis)
        if res <= struct_tol:
            return dec
        last_err = f"structure residual {res:.3e} exceeds {struct_tol:.1e}"
    raise DegenerateAlgebraError(
        f"failed to separate blocks after {max_redraws} redraws: {last_err}"
    )


def _wedderburn_attempt(alg, Z, tol, rng) -> WedderburnDecomposition:
    gap_tol = np.sqrt(tol)
    blocks = []
    for _, Q in _eigenspaces(_random_hermitian_in(Z.basis, rng), gap_tol):
        nm = Q.shape[1]
        Bs = np.array([Q.conj().T @ B @ Q for B in alg.basis])
        eigenspaces = _eigenspaces(_random_hermitian_in(Bs, rng), gap_tol)
        sizes = {V.shape[1] for _, V in eigenspaces}
        if len(sizes) != 1:
            raise DegenerateAlgebraError(
                f"eigenvalue clusters of an algebra element have unequal sizes {sorted(sizes)}"
            )
        dS, dF = len(eigenspaces), sizes.pop()

        # orbits[i, :, f] = B_i v_f for the vectors v_f of the first eigenspace
        orbits = Bs @ eigenspaces[0][1]
        _, s, Vh = np.linalg.svd(orbits[:, :, 0].T, full_matrices=False)
        rank = int(np.sum(s > gap_tol * s[0]))
        if rank != dS:
            raise DegenerateAlgebraError(f"algebra orbit has rank {rank}, expected {dS}")
        G = Vh[:dS].conj().T / s[:dS]
        # column s * d_F + f holds the s-th orthonormalized orbit vector of slice f
        cols = np.einsum("iaf,is->asf", orbits, G).reshape(nm, nm)
        blocks.append((dS, dF, Q @ cols))

    blocks.sort(key=lambda b: (-b[0], -b[1]))
    U = np.hstack([b[2] for b in blocks])
    return WedderburnDecomposition(U=U, blocks=tuple((b[0], b[1]) for b in blocks))


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

    def blockdiag_projector(self) -> np.ndarray:
        """(D^2, D^2) projector keeping only the diagonal blocks."""
        D = self.reduced_hilbert_dim
        offs = self.decomposition.reduced_offsets()
        mask = np.zeros((D, D))
        for k in range(len(self.decomposition.blocks)):
            mask[offs[k]:offs[k + 1], offs[k]:offs[k + 1]] = 1.0
        return np.diag(mask.reshape(-1, order="F"))


def conditional_expectation(dec: WedderburnDecomposition) -> CEFactorization:
    """Build R and J (E = J o R) as Kraus maps.

    R's operator for block k and multiplicity index f holds (I_S otimes <f|) U_k^dag,
    the columns f::d_F of U_k conjugate-transposed, in block k's rows; J's is its
    adjoint over sqrt(d_F).
    """
    roffs = dec.reduced_offsets()
    r_kraus = []
    j_kraus = []
    for k, (dS, dF) in enumerate(dec.blocks):
        Uk = dec.block_isometry(k)          # (n, dS*dF)
        for f in range(dF):
            A = np.zeros((dec.reduced_total_dim, dec.dim), dtype=complex)
            A[roffs[k]:roffs[k + 1]] = Uk[:, f::dF].conj().T
            r_kraus.append(A)
            j_kraus.append(A.conj().T / np.sqrt(dF))
    return CEFactorization(dec, R=superop_from_kraus(r_kraus), J=superop_from_kraus(j_kraus))
