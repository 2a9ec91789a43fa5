"""Sampling and exhaustive enumeration of measurement records.

Sampling runs the quantum filter on the normalized state.  At every step
one outcome is drawn, only its map is applied and the result is divided
by the drawn probability; one product of the model's readout matrix with
that state gives both this step's outputs and the next step's outcome
probabilities tr[E_k rho].  Probabilities never underflow on long
records; the product of the per-step conditional probabilities recovers
the joint probability of the record.  Enumeration propagates
unnormalized states over the outcome tree, reads the last step off
pulled-back observables, and is the brute-force oracle the rest of the
package is verified against.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .model import ConditionalEvolution
from .operators import DEFAULT_TOL

__all__ = [
    "TrajectoryRecord",
    "StateEscapedError",
    "WORD_CAP",
    "sample_trajectory",
    "enumerate_distribution",
    "total_variation",
]


WORD_CAP = 10**6  # bound on enumerate_distribution's words and equivalence_check's nodes


class StateEscapedError(RuntimeError):
    """Total outcome probability vanished; the instrument is not normalized."""


@dataclass(frozen=True)
class TrajectoryRecord:
    outcomes: tuple[str, ...]
    probabilities: tuple[float, ...]         # per-step conditional probabilities
    states: tuple[np.ndarray, ...]           # per-step normalized densities
    outputs: tuple[np.ndarray, ...]          # per-step conditioned outputs
    clamped_steps: tuple[int, ...]           # steps where roundoff went negative

    @property
    def joint_probability(self) -> float:
        return float(np.prod(self.probabilities))


def _numpy_sum(p: list[float]) -> float:
    """``np.sum`` of the float64 array of ``p``, bit for bit.

    numpy adds fewer than 8 terms in turn, up to 128 in 8 running sums,
    and more by halves.
    """
    n = len(p)
    if n < 8:
        total = 0.0
        for x in p:
            total += x
        return total
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _numpy_sum(p[:half]) + _numpy_sum(p[half:])
    stop = n - n % 8
    r = p[:8]
    for i in range(8, stop, 8):
        r = [a + b for a, b in zip(r, p[i:i + 8])]
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for x in p[stop:]:
        total += x
    return total


def sample_trajectory(
    ce: ConditionalEvolution,
    rho0: np.ndarray,
    T: int,
    rng_seed,
    tol: float = DEFAULT_TOL,
) -> TrajectoryRecord:
    """Draw one length-T measurement record, deterministic given the seed.

    ``rng_seed`` may be an integer or a ``numpy.random.SeedSequence`` /
    ``Generator``; trajectory batches should spawn child seeds so streams
    stay independent.  A step makes one map apply and one product with
    :meth:`ConditionalEvolution.readout`; the draw runs on Python floats
    with the operations of ``Generator.choice``, in its order, from one
    ``random()`` per step, so a seed gives the same record as
    ``rng.choice(len(p), p=p / p.sum())`` on the same probabilities.
    Probabilities that are not finite raise ValueError; negative ones are
    set to zero, and the step is recorded in ``clamped_steps`` when one is
    below ``-tol``.
    """
    if T < 1:
        raise ValueError("T must be at least 1")
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) else np.random.default_rng(rng_seed)
    rho = np.asarray(rho0, dtype=complex)
    maps = [ce.instrument.maps[k] for k in ce.outcomes]
    readout = ce.readout()
    m = len(maps)
    q = readout @ rho.reshape(-1)
    outcomes, probs, states, outputs, clamped = [], [], [], [], []
    for t in range(T):
        p = q.real[:m].tolist()
        if not all(map(math.isfinite, p)):
            raise ValueError(f"outcome probabilities are not finite at step {t}")
        if min(p) < 0.0:
            if min(p) < -tol:
                clamped.append(t)
            p = [max(x, 0.0) for x in p]
        mass = _numpy_sum(p)
        if mass < tol:
            raise StateEscapedError(f"outcome probabilities sum to {mass:.3e} at step {t}")
        cdf = list(itertools.accumulate(x / mass for x in p))
        last = cdf[-1]
        idx = bisect_right([c / last for c in cdf], rng.random())
        pk = p[idx]
        rho = maps[idx](rho) / pk
        q = readout @ rho.reshape(-1)
        outcomes.append(ce.outcomes[idx])
        probs.append(pk)
        states.append(rho)
        outputs.append(q[m:])
    return TrajectoryRecord(
        outcomes=tuple(outcomes),
        probabilities=tuple(probs),
        states=tuple(states),
        outputs=tuple(outputs),
        clamped_steps=tuple(clamped),
    )


def enumerate_distribution(
    ce: ConditionalEvolution,
    rho0: np.ndarray,
    T: int,
) -> dict[tuple[str, ...], tuple[float, np.ndarray]]:
    """Probability and output vector of every length-T outcome word.

    Propagates the outcome tree of unnormalized states to depth T-1, so
    the returned probabilities sum to one for any valid instrument.  Each
    level's states are one stack in the word order of
    ``itertools.product(ce.outcomes, repeat=t)``, which every outcome's
    map advances in one call; the table keeps that order.  The last level
    is read off, not applied: tr[O M_k(rho)] = tr[M_k^dag(O) rho], so for
    each outcome k the stack [1, O_1, ..., O_m] is pulled back once
    through M_k's adjoint, and one product with the depth-(T-1) stack
    gives every leaf's probability and outputs.  The peak is about that
    stack.
    """
    n_words = len(ce.outcomes) ** T
    if n_words > WORD_CAP:
        raise ValueError(f"{n_words} sequences exceed WORD_CAP = {WORD_CAP}")
    frontier = np.asarray(rho0, dtype=complex)[None]
    for _ in range(T - 1):
        # word w + (k,) sits at row len(outcomes) * w + k
        nxt = np.empty((len(frontier), len(ce.outcomes), *frontier.shape[1:]), dtype=complex)
        for i, k in enumerate(ce.outcomes):
            nxt[:, i] = ce.instrument.map_for(k)(frontier)
        frontier = nxt.reshape(-1, *frontier.shape[1:])
    n = ce.dim
    read = np.array([np.eye(n), *ce.output.observables], dtype=complex)
    pulled = [ce.instrument.map_for(k).adjoint()(read) for k in ce.outcomes] if T else [read]
    # tr[A rho] pairs A^T and rho entry by entry; leaf w + (k,) sits at row len(outcomes) * w + k
    rows = np.array(pulled).transpose(0, 1, 3, 2).reshape(-1, n * n)
    table = frontier.reshape(len(frontier), n * n) @ rows.T
    words = itertools.product(ce.outcomes, repeat=T)
    return {
        seq: (float(row[0].real), row[1:])
        for seq, row in zip(words, table.reshape(n_words, len(read)))
    }


def total_variation(full_table: dict, reduced_table: dict) -> float:
    """Half the L1 distance between two distributions over outcome words."""
    if set(full_table) != set(reduced_table):
        raise ValueError("distribution tables index different sequence sets")
    return 0.5 * sum(
        abs(full_table[s][0] - reduced_table[s][0]) for s in full_table
    )
