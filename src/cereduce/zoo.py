"""Example model families: measured quantum walks and measured Ising chains.

Both families are split models, a unitary evolution after the conditioning
effects of a projective measurement, and carry known exact reduction data
that the test-suite asserts.
"""

from __future__ import annotations

import warnings

import numpy as np

from .model import ConditionalEvolution, OutputMap
from .operators import DEFAULT_TOL, Superoperator, hermitian_closure

__all__ = [
    "haar_unitary",
    "measured_quantum_walk",
    "walk_is_generic",
    "walk_markov_oracle",
    "ising_chain",
]

PAULI = {
    "0": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def haar_unitary(n: int, seed: int) -> np.ndarray:
    """Haar-distributed unitary via QR with phase correction."""
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(G)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def walk_is_generic(U: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True when the conjugation orbit of the site projectors fills B(H)."""
    n = U.shape[0]
    ev = Superoperator(kraus=[U])
    sites = [np.outer(np.eye(n)[:, j], np.eye(n)[j].conj()) for j in range(n)]
    closure = hermitian_closure(sites, lambda H: [ev(H)], tol)
    return closure.dim == n * n


def measured_quantum_walk(
    n: int,
    U: np.ndarray | None = None,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> ConditionalEvolution:
    """Projective site measurement followed by a unitary step.

    Outcome j has effect |j><j| . |j><j| and the state then evolves by
    conjugation with U.  The only observable is the identity, so the
    model tracks outcome-word probabilities.  A U that is not generic (see
    :func:`walk_is_generic`) gives a UserWarning.
    """
    if U is None:
        U = haar_unitary(n, seed)
    U = np.asarray(U, dtype=complex)
    if np.linalg.norm(U @ U.conj().T - np.eye(n)) > 1e-10 * n:
        raise ValueError("U must be unitary")
    if not walk_is_generic(U, tol):
        warnings.warn(
            "non-generic walk unitary: known-answer reduction dimensions may not apply",
            stacklevel=2,
        )
    eye = np.eye(n, dtype=complex)
    effects = {str(j): Superoperator(kraus=[np.outer(eye[:, j], eye[:, j].conj())]) for j in range(n)}
    return ConditionalEvolution(
        output=OutputMap(names=("identity",), observables=(eye,)),
        evolution=Superoperator(kraus=[U]),
        effects=effects,
    )


def walk_markov_oracle(U: np.ndarray) -> np.ndarray:
    """Column-stochastic transition matrix of the reduced classical walk."""
    U = np.asarray(U, dtype=complex)
    if np.linalg.norm(U @ U.conj().T - np.eye(U.shape[0])) > 1e-10 * U.shape[0]:
        raise ValueError("U must be unitary")
    return np.abs(U) ** 2


def _site_operator(N: int, ops: dict[int, np.ndarray]) -> np.ndarray:
    """Tensor product over an N-qubit chain; qubit 1 is the leftmost factor."""
    out = np.ones((1, 1), dtype=complex)
    for site in range(1, N + 1):
        out = np.kron(out, ops.get(site, PAULI["0"]))
    # kron writes -1 * 0 as -0.0, which a model file would store as an entry
    return out + 0.0


def ising_chain(N: int, p: float, delta: float) -> ConditionalEvolution:
    """Ising chain with a (possibly skipped) sigma_z measurement on the last spin.

    With probability 1-p the last qubit is measured projectively in the
    computational basis (outcomes "0"/"1"); with probability p the
    measurement is skipped (outcome "-1", present only for p > 0).  The
    chain then evolves with exp(-i H) for the nearest-neighbor coupling
    H = delta * sum sigma_x sigma_x.  Observables are the four Pauli
    operators on the first qubit, enough to reconstruct its reduced state.
    """
    if N < 4:
        raise ValueError("the chain needs at least 4 qubits")
    if not 0.0 <= p < 1.0:
        raise ValueError("p must lie in [0, 1)")
    if not np.isfinite(delta):
        raise ValueError("delta must be a finite number")
    n = 2**N
    H = np.zeros((n, n), dtype=complex)
    for j in range(1, N):
        H += delta * _site_operator(N, {j: PAULI["x"], j + 1: PAULI["x"]})
    w, V = np.linalg.eigh(H)
    U = V @ np.diag(np.exp(-1j * w)) @ V.conj().T

    ket0 = np.array([[1, 0], [0, 0]], dtype=complex)
    ket1 = np.array([[0, 0], [0, 1]], dtype=complex)
    P0 = np.kron(np.eye(2 ** (N - 1), dtype=complex), ket0)
    P1 = np.kron(np.eye(2 ** (N - 1), dtype=complex), ket1)

    effect_kraus = {}
    if p > 0:
        effect_kraus["-1"] = np.sqrt(p) * np.eye(n, dtype=complex)
    effect_kraus["0"] = np.sqrt(1 - p) * P0
    effect_kraus["1"] = np.sqrt(1 - p) * P1

    effects = {k: Superoperator(kraus=[K]) for k, K in effect_kraus.items()}
    names = tuple(f"sigma_{q}^(1)" for q in ("0", "x", "y", "z"))
    obs = tuple(_site_operator(N, {1: PAULI[q]}) for q in ("0", "x", "y", "z"))
    return ConditionalEvolution(
        output=OutputMap(names=names, observables=obs),
        evolution=Superoperator(kraus=[U]),
        effects=effects,
    )
