"""Matrix *-algebras: closure, commutant, block decomposition, projection.

A unital *-algebra of n x n matrices is unitarily equivalent to a direct
sum of blocks B(C^{d_S}) otimes 1_{d_F}.  The decomposition is computed
numerically from one generic Hermitian algebra element: each block holds
d_S of its eigenspaces, each of dimension d_F, and the algebra orbits of
the vectors of one eigenspace give the block's aligned multiplicity
slices.  The unitary it produces is validated against the block structure
of every algebra basis element before being returned.  The center and the
commutant are read off the decomposition, as the span of the block
projections and as the direct sum of blocks 1_{d_S} otimes B(C^{d_F}).

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
    orthonormalize,
    superop_from_kraus,
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


MAX_REDRAWS = 8  # seeded draws of the generic element before giving up


class DegenerateAlgebraError(RuntimeError):
    """A random algebra element failed to separate the block structure."""


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
    Hermitian.
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


def _unitization(alg: StarAlgebra, tol: float) -> StarAlgebra:
    """The algebra if unital, else its span with the identity.

    The unitization adds one block, on the complement of the algebra's unit,
    and has the same commutant.
    """
    if alg.unital:
        return alg
    eye = np.eye(alg.ambient_dim, dtype=complex)
    return StarAlgebra(space=orthonormalize([*alg.basis, eye], tol), unital=True)


def commutant(alg: StarAlgebra, tol: float = DEFAULT_TOL) -> StarAlgebra:
    """All operators commuting with every element of the algebra.

    Read off the block decomposition of the unitization in closed form as
    U ((+) 1_{d_S} otimes B(C^{d_F})) U^dag, with an HS-orthonormal
    Hermitian basis.
    """
    n = alg.ambient_dim
    dec = wedderburn(_unitization(alg, tol), tol)
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

    Read off the block decomposition of the unitization as the span of the
    block projections U_k U_k^dag, HS-normalized by sqrt(d_S d_F); they are
    mutually orthogonal and Hermitian.  For a non-unital algebra only the
    projections lying in the algebra are kept, which drops the block the
    unitization adds: a block projection lies in the algebra or is
    orthogonal to it, so its residual is 0 or 1.
    """
    dec = wedderburn(_unitization(alg, tol), tol)
    ops = []
    for k, (dS, dF) in enumerate(dec.blocks):
        Uk = dec.block_isometry(k)
        P = Uk @ Uk.conj().T / np.sqrt(dS * dF)
        if alg.unital or alg.space.residual(P) < 0.5:
            ops.append(P)
    return OperatorSubspace(alg.ambient_dim, tuple(ops))


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


def wedderburn(alg: StarAlgebra, tol: float = DEFAULT_TOL, seed: int = 0) -> WedderburnDecomposition:
    """Block decomposition of a unital *-algebra from one generic element.

    A random Hermitian algebra element A = (+) A_S otimes 1_F has, in each
    block, d_S eigenspaces of dimension d_F, with distinct eigenvalues
    across all blocks.  The algebra orbit {B_i v_1} of one vector of an
    eigenspace spans one multiplicity slice of its block; the coefficients
    G that orthonormalize it, applied to the orbit {B_i v_f} of every other
    vector v_f of that eigenspace, give slice f already aligned.  The block
    so found must hold d_S whole eigenspaces of dimension d_F, none of them
    claimed by another block.  The result is accepted only if every algebra
    basis element actually acquires the block structure; otherwise a fresh
    seed is drawn, up to ``MAX_REDRAWS`` times.
    """
    if not alg.unital:
        raise ValueError("Wedderburn decomposition requires a unital algebra")
    struct_tol = max(np.sqrt(tol), 1e-8)

    last_err = "no attempt made"
    for attempt in range(MAX_REDRAWS):
        rng = np.random.default_rng([seed, attempt])
        try:
            dec = _wedderburn_attempt(alg, tol, rng)
        except DegenerateAlgebraError as exc:
            last_err = str(exc)
            continue
        res = max(dec.structure_residual(B) for B in alg.basis)
        if res <= struct_tol:
            return dec
        last_err = f"structure residual {res:.3e} exceeds {struct_tol:.1e}"
    raise DegenerateAlgebraError(f"failed to separate blocks after {MAX_REDRAWS} redraws: {last_err}")


def _wedderburn_attempt(alg, tol, rng) -> WedderburnDecomposition:
    gap_tol = np.sqrt(tol)
    n, m = alg.ambient_dim, alg.dim
    T = alg.space.stacked().reshape(m, n, n)  # T[i] = B_i^T
    eigenspaces = [V for _, V in _eigenspaces(_random_hermitian_in(alg.basis, rng), gap_tol)]
    assigned = set()
    blocks = []
    for a, V in enumerate(eigenspaces):
        if a in assigned:
            continue
        dF = V.shape[1]
        # orbits[i, :, f] = B_i v_f for the vectors v_f of this eigenspace
        orbits = (V.T @ T).transpose(0, 2, 1)
        _, s, Vh = np.linalg.svd(orbits[:, :, 0].T, full_matrices=False)
        dS = int(np.sum(s > gap_tol * s[0]))
        G = Vh[:dS].conj().T / s[:dS]
        # column s * d_F + f holds the s-th orthonormalized orbit vector of slice f
        cols = np.einsum("iaf,is->asf", orbits, G).reshape(n, dS * dF)
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
        blocks.append((dS, dF, cols))

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
