import base64
import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from cereduce import algebra
from cereduce.model import ConditionalEvolution, Instrument, OutputMap
from cereduce.operators import DEFAULT_TOL, OperatorSubspace, Superoperator
from cereduce.zoo import PAULI, ising_chain, measured_quantum_walk


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def paulis():
    return {k: v.copy() for k, v in PAULI.items()}


def vec(X):
    """Column-stacking vectorization: entry a + b*n of vec(X) is X[a, b]."""
    return np.asarray(X, dtype=complex).reshape(-1, order="F")


def outputs(ce, X):
    """Output vector tr(O_j X) of an operator X, or of each of a stack (..., n, n), summed entrywise."""
    return np.einsum("jab,...ba->...j", np.array(ce.output.observables), np.asarray(X, dtype=complex))


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def dense_entry(M):
    """M as a dense {"shape", "c16"} entry, holding every entry's row-major little-endian
    complex128 bytes: the form files were written in before zero entries were left out,
    built here from the bytes, not by the writer."""
    M = np.ascontiguousarray(M, "<c16")
    return {"shape": list(M.shape), "c16": base64.b64encode(M.tobytes()).decode("ascii")}


def list_entry(M):
    """M as row-major rows of [re, im] pairs, the form older still."""
    return np.stack([M.real, M.imag], -1).tolist()


def b64(raw: bytes) -> str:
    return base64.b64encode(raw).decode("ascii")


def stored(entry):
    """The decoded "nonzero" bitmap and "c16" entry bytes of a {"shape", "nonzero", "c16"} entry."""
    return base64.b64decode(entry["nonzero"]), base64.b64decode(entry["c16"])


def ket(n, j):
    v = np.zeros(n, dtype=complex)
    v[j] = 1.0
    return v


def proj(n, j):
    return np.outer(ket(n, j), ket(n, j).conj())


def hs_inner(A, B):
    """Hilbert-Schmidt inner product tr(A^dag B)."""
    A, B = np.asarray(A), np.asarray(B)
    if A.shape != B.shape:
        raise ValueError(f"shape mismatch {A.shape} vs {B.shape}")
    return complex(np.vdot(A, B))


def is_hermitian(A, tol=1e-12):
    A = np.asarray(A)
    return np.linalg.norm(A - A.conj().T) <= tol * max(np.linalg.norm(A), 1.0)


# split zoo models by name, built on call: Ising N in {4, 5} x p in {0, 0.5}, walks n = 3..6
SPLIT_MODELS = {
    **{f"ising{N}_p{p}": (lambda N=N, p=p: ising_chain(N, p, 0.3)) for N in (4, 5) for p in (0.0, 0.5)},
    **{f"walk{n}": (lambda n=n: measured_quantum_walk(n, seed=n)) for n in range(3, 7)},
}


# models whose minimal linear realizations (linear_reduce) are checked against
# linear_reduce_oracle and the closure's images: Ising N = 4..7 at both p, walks n = 3..8 and a
# random model with no split
REALIZATION_MODELS = {
    **{f"ising{N}_p{p}": (lambda N=N, p=p: ising_chain(N, p, 0.3)) for N in range(4, 8) for p in (0.0, 0.5)},
    **{f"walk{n}": (lambda n=n: measured_quantum_walk(n, seed=n)) for n in range(3, 9)},
    "random": lambda: random_ce(5, 3, 3, np.random.default_rng(7)),
}


def with_output(ce, output):
    """``ce`` with the output map ``output``, in its own form: a split model stays split."""
    if ce.has_split:
        return ConditionalEvolution(output=output, evolution=ce.evolution, effects=ce.effects)
    return ConditionalEvolution(instrument=ce.instrument, output=output)


def separately_reduced(ce, red):
    """The split model ``ce`` reduced one map at a time through the factorization of its
    reduction ``red``: R o E o J and each R o K_k o J from ``reduce_map``, with ``red``'s
    reduced output."""
    fact = red.factorization
    return ConditionalEvolution(output=red.model.output, evolution=fact.reduce_map(ce.evolution, red.tol)[0],
                                effects={k: fact.reduce_map(ce.effects[k], red.tol)[0] for k in ce.outcomes})


def enumerate_oracle(ce, rho0, T):
    """The table of ``enumerate_distribution`` in operator space: the outcome tree of
    unnormalized states, each level one stack that every instrument map advances in one
    call, and each leaf read off as its trace and its outputs."""
    frontier = np.asarray(rho0, dtype=complex)[None]
    for _ in range(T):
        # word w + (k,) sits at row len(outcomes) * w + k
        frontier = np.stack([ce.instrument.maps[k](frontier) for k in ce.outcomes], axis=1)
        frontier = frontier.reshape(-1, ce.dim, ce.dim)
    words = itertools.product(ce.outcomes, repeat=T)
    return {seq: (float(np.trace(rho).real), outputs(ce, rho)) for seq, rho in zip(words, frontier)}


def random_ce(n, n_outcomes, n_obs, rng):
    """Random Kraus instrument plus random Hermitian observables (with identity)."""
    raw = [random_complex(rng, (n, n)) for _ in range(n_outcomes)]
    w, V = np.linalg.eigh(sum(K.conj().T @ K for K in raw))
    T_inv_sqrt = V @ np.diag(1 / np.sqrt(w)) @ V.conj().T
    labels = tuple(str(k) for k in range(n_outcomes))
    maps = {lab: Superoperator(kraus=[K @ T_inv_sqrt]) for lab, K in zip(labels, raw)}
    names, obs = ["identity"], [np.eye(n, dtype=complex)]
    for j in range(n_obs - 1):
        G = random_complex(rng, (n, n))
        obs.append((G + G.conj().T) / 2)
        names.append(f"obs{j}")
    return ConditionalEvolution(
        instrument=Instrument(outcomes=labels, maps=maps),
        output=OutputMap(names=tuple(names), observables=tuple(obs)),
    )


def swap3_ce():
    """C^3 with outcomes sqrt(1/2) 1 and sqrt(1/2) (the swap of e_1 and e_2), observables 1 and |e_0><e_0|.

    Its blocks are ((1, 2), (1, 1)), so R(1_3/3) = diag(2/3, 1/3) is not 1_2/2.
    Outcome "0" applies elementwise and outcome "1" through its matrix.
    """
    swap = np.eye(3, dtype=complex)[[0, 2, 1]]
    maps = {"0": Superoperator(kraus=[np.sqrt(0.5) * np.eye(3)]), "1": Superoperator(kraus=[np.sqrt(0.5) * swap])}
    return ConditionalEvolution(
        instrument=Instrument(outcomes=("0", "1"), maps=maps),
        output=OutputMap(names=("identity", "P0"), observables=(np.eye(3, dtype=complex), proj(3, 0))),
    )


def choi(S):
    """Choi matrix sum_ij |i><j| otimes S(|i><j|), from S applied to every matrix unit."""
    n, m = S.in_dim, S.out_dim
    images = S(np.eye(n * n, dtype=complex).reshape(n * n, n, n))  # image i * n + j is S(|i><j|)
    return images.reshape(n, n, m, m).transpose(0, 2, 1, 3).reshape(n * m, n * m)


def channel_checks(S, tol=1e-9):
    """CP (a Hermitian Choi matrix with spectrum above -tol), TP and unitality of a square map."""
    n = S.in_dim
    C = choi(S)
    scale = max(np.linalg.norm(C), 1.0)
    min_eig = float(np.linalg.eigvalsh((C + C.conj().T) / 2)[0])
    eye = np.eye(n, dtype=complex)
    return SimpleNamespace(
        cp=np.linalg.norm(C - C.conj().T) <= tol * scale and min_eig >= -tol * scale,
        tp=np.linalg.norm(S.adjoint()(eye) - eye) <= tol * np.sqrt(n),
        unital=np.linalg.norm(S(eye) - eye) <= tol * np.sqrt(n),
        min_choi_eig=min_eig,
    )


def residuals(sub, Y):
    """Distances from the span ``sub`` of the operators flattened row-major in the columns of Y."""
    Q = sub.stacked()
    return np.linalg.norm(Y - Q.T @ (Q @ Y.conj()).conj(), axis=0)


def residual(sub, X):
    """Distance of X from the span ``sub``."""
    return float(residuals(sub, np.reshape(X, (-1, 1)))[0])


def contains(sub, X, tol=DEFAULT_TOL):
    """Whether X lies in the span ``sub``, within ``tol`` times max(||X||, 1)."""
    return residual(sub, X) <= tol * max(np.linalg.norm(X), 1.0)


def projector_matrix(sub):
    """(n^2, n^2) matrix of the HS-orthogonal projector onto the span of a subspace's basis."""
    return sum(np.outer(vec(B), vec(B).conj()) for B in sub.basis)


def closure_residual(alg):
    """Worst distance from the algebra of the adjoints and pairwise products of its basis."""
    ops = [B.conj().T for B in alg.basis] + [A @ B for A in alg.basis for B in alg.basis]
    cols = np.array([vec(X) for X in ops]).T
    return float(np.max(np.linalg.norm(cols - projector_matrix(alg) @ cols, axis=0)))


def structure_residual(dec, B):
    """Reference distance of U^dag B U from its block form (+) X_S otimes 1_F, built by kron.

    X_S is Tr_F / d_F of each diagonal block (``dec.block_parts``), which
    makes (+) X_S otimes 1_F the nearest block-form matrix in Frobenius norm.
    """
    T = dec.U.conj().T @ B @ dec.U
    offs = dec.hilbert_offsets()
    model = np.zeros_like(T)
    for k, (XS, (_, dF)) in enumerate(zip(dec.block_parts(T), dec.blocks)):
        model[offs[k]:offs[k + 1], offs[k]:offs[k + 1]] = np.kron(XS, np.eye(dF))
    return float(np.linalg.norm(T - model))


def blockdiag_projector(fact):
    """(D^2, D^2) projector keeping only the diagonal blocks of the reduced space."""
    D = fact.reduced_hilbert_dim
    offs = fact.decomposition.reduced_offsets()
    mask = np.zeros((D, D))
    for a, b in zip(offs, offs[1:]):
        mask[a:b, a:b] = 1.0
    return np.diag(mask.reshape(-1, order="F"))


def propagate(lm, rho0, seq):
    """Output vector of a linear reduced model driven along ``seq`` from rho0."""
    # the HS coordinates <B_i, rho0>
    x = (lm.subspace.stacked() @ np.conj(rho0).reshape(-1)).conj()
    for k in seq:
        x = lm.A[str(k)] @ x
    return lm.C @ x


def linear_reduce_oracle(ce, sub):
    """(A, C) of a linear reduction in the Schroedinger picture: A_k = conj(Q) M_k(B)^T, each
    map applied to the stacked basis B with rows Q, and C[o, j] = tr(O_o B_j) summed entrywise."""
    Q = sub.stacked()
    A = {k: Q.conj() @ ce.instrument.maps[k](sub.basis).reshape(sub.dim, -1).T for k in ce.outcomes}
    C = np.einsum("oab,jba->oj", np.array(ce.output.observables), sub.basis)
    return A, C


def read_off(alg):
    """The matrix units of a :class:`~cereduce.algebra.BlockAlgebra` over its blocks acted on,
    read off by ``_block_operators`` into an :class:`OperatorSubspace`: the basis path that
    its basis and its leaks are checked against."""
    dec = alg.decomposition
    acted = [k for k, acts in enumerate(alg.acted_on) if acts]
    return OperatorSubspace(dec.dim, algebra._block_operators(dec, acted, axis=1))


def from_real_coordinates_loop(X):
    """H = (X + X^T)/2 + i (X - X^T)/2 of each n x n matrix of a stack, one matrix at a time."""
    H = np.empty(X.shape, dtype=complex)
    n = X.shape[-1]
    for Xi, Hi in zip(X.reshape(-1, n, n), H.reshape(-1, n, n)):
        XT = np.ascontiguousarray(Xi.T)
        real, imag = Hi.real, Hi.imag
        np.add(Xi, XT, out=real)
        real /= 2
        np.subtract(Xi, XT, out=imag)
        imag /= 2
    return H
