"""Sampling and exhaustive enumeration of measurement records.

Sampling runs the quantum filter on the normalized state.  At every step
one outcome is drawn, only its map is applied and the result is scaled
by the inverse of the drawn probability; the model's readout matrix then
gives both this step's outputs and the next step's outcome probabilities
tr[E_k rho].  For an outcome whose map applies through its matrix, the
map and the readout are one product with its step matrix, which reads
and writes only the state's entries on the steps' support I: on a
reduced model the block positions of its output algebra, dim A of the
n^2 entries.  Probabilities
never underflow on long records; the product of the per-step conditional
probabilities recovers the joint probability of the record.  Enumeration
walks the outcome tree on the model's minimal linear realization, built
once and kept on the model, and applies no map to a state.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .model import ConditionalEvolution
from .operators import DEFAULT_TOL
from .observability import linear_reduce

__all__ = [
    "TrajectoryRecord",
    "StateEscapedError",
    "WORD_CAP",
    "sample_trajectory",
    "enumerate_distribution",
    "table_nodes",
    "total_variation",
]


class StateEscapedError(RuntimeError):
    """Total outcome probability vanished; the instrument is not normalized."""


@dataclass(frozen=True)
class TrajectoryRecord:
    outcomes: tuple[str, ...]
    probabilities: tuple[float, ...]         # per-step conditional probabilities
    states: tuple[np.ndarray, ...]           # per-step normalized densities
    outputs: tuple[np.ndarray, ...]          # per-step conditioned outputs
    clamped_steps: tuple[int, ...]           # steps where roundoff went negative


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


def _checked_state(rho0, n: int) -> np.ndarray:
    """``rho0`` as a complex array, refused with ValueError unless it is one n x n operator."""
    rho = np.asarray(rho0, dtype=complex)
    if rho.shape != (n, n):
        raise ValueError(f"start state has shape {rho.shape}, expected ({n}, {n})")
    return rho


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
    stay independent.  ``rho0`` must be one n x n operator: any other shape
    raises ValueError naming it.  The loop holds the state also flattened
    row-major, x, on the support I of
    :meth:`~cereduce.model.ConditionalEvolution.step_matrices`, taken from
    ``rho0`` once: its entries outside I are never read, so a NaN there
    leaves the record finite.  A step of an outcome whose map applies
    through its matrix is one product ``F_k.dot(x)`` with its step matrix
    on I, |I| + 1 + r rows by |I| columns with r the readout's rows, which
    yields the new x and its readout at once; when I is not every entry,
    one gather of that product then forms the step's n x n state, zero
    outside I, followed by its readout.  On a reduced model |I| = dim A,
    the dimension of its output algebra, so a step costs about
    (dim A + r) dim A multiply-adds and not (n^2 + r) n^2.  When some
    outcome has no step matrix, I is every entry, and that outcome's step
    is one map apply and one product ``readout.dot(x)`` with
    :meth:`~cereduce.model.ConditionalEvolution.readout`.  Either way the
    result is scaled in place by 1 / p_k, and ``rho0`` is never written to.
    A step's state and outputs share at most one buffer, of n^2 + r
    entries, so no array of the record keeps another step's alive.
    The draw runs on Python floats with the operations of
    ``Generator.choice``, in its order, from one uniform u per step, so a
    seed gives the same record as ``rng.choice(len(p), p=p / p.sum())`` on
    the same probabilities: the sum of p as ``np.sum`` adds it, one plain
    loop for the running sums of p / sum, and a search for the first of
    them that, divided by the last, is above u.  The T uniforms come from
    one ``rng.random(T)``, the stream of T ``rng.random()`` calls: a passed
    Generator advances by T draws when the call returns and when a step
    raises, and by none when the call raises before its first step (T < 1
    or a start state of the wrong shape).  Probabilities that are not
    finite, or whose sum overflows, raise ValueError naming the step;
    negative ones are set to zero, and the step is recorded in
    ``clamped_steps`` when one is below ``-tol``.  Each check runs only
    when the step's probabilities are not all finite and non-negative with
    a finite sum.
    """
    if T < 1:
        raise ValueError("T must be at least 1")
    labels = ce.outcomes
    maps = [ce.instrument.maps[k] for k in labels]
    m, n = len(maps), maps[0].in_dim
    rho = _checked_state(rho0, n)
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) else np.random.default_rng(rng_seed)
    readout = ce.readout()
    held = ce.step_matrices()
    steps, gather, k = held.steps, held.gather, len(held.support)
    # x is the state flattened row-major, on the support the step matrices read
    x = rho.ravel() if gather is None else rho.take(held.support)
    q = held.readout.dot(x)
    outcomes, probs, states, outputs, clamped = [], [], [], [], []
    for t, u in enumerate(rng.random(T).tolist()):
        p = q[:m].real.tolist()
        mass = _numpy_sum(p)
        # true iff every p is finite and non-negative and so is their sum: a NaN that min skips
        # makes the sum NaN
        if not (min(p) >= 0.0 and math.isfinite(mass)):
            if not all(map(math.isfinite, p)):
                raise ValueError(f"outcome probabilities are not finite at step {t}")
            if min(p) < -tol:
                clamped.append(t)
            p = [max(v, 0.0) for v in p]
            mass = _numpy_sum(p)
            if not math.isfinite(mass):
                raise ValueError(f"outcome probabilities overflow in their sum at step {t}")
        if mass < tol:
            raise StateEscapedError(f"outcome probabilities sum to {mass:.3e} at step {t}")
        # Generator.choice: the running sums of p / mass, each divided by the last; the first
        # above u is the one searchsorted finds, and the last, exactly 1, ends the search
        acc, cdf = 0.0, []
        for v in p:
            acc += v / mass
            cdf.append(acc)
        idx = 0
        while cdf[idx] / acc <= u:
            idx += 1
        pk = p[idx]
        F = steps[idx]
        if F is None:
            # numpy's rho / pk is rho * (1 / pk) but for the sign of a zero entry
            rho = maps[idx](rho)
            rho *= 1.0 / pk
            x = rho.ravel()
            q = readout.dot(x)
        else:
            q = F.dot(x)
            q *= 1.0 / pk
            x = q[:k]
            if gather is None:
                rho = x.reshape(n, n)
            else:
                # the whole state, each entry outside the support from the product's zero
                q = q[gather]
                rho = q[:n * n].reshape(n, n)
            q = q[n * n:]
        outcomes.append(labels[idx])
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


WORD_CAP = 10**6  # bound on the nodes of enumerate_distribution's outcome tree


def table_nodes(r: int, T: int) -> int:
    """The nodes sum_{t <= T} r^t of the tree of r outcomes to depth T, counted level by level
    up to the first count above ``WORD_CAP``, so that no large power of r is formed."""
    nodes, width = 0, 1
    for _ in range(T + 1):
        nodes += width
        if nodes > WORD_CAP:
            break
        width *= r
    return nodes


def enumerate_distribution(
    ce: ConditionalEvolution, rho0: np.ndarray, T: int
) -> dict[tuple[str, ...], tuple[float, np.ndarray]]:
    """Probability and output vector of every length-T outcome word.

    Runs on the model's minimal linear realization (see
    :func:`~cereduce.observability.linear_reduce`): its basis B_i, its real maps
    A_k, read off the dual images its closure formed, and its output rows
    C, built once per model, in its own outcome order, and kept on it; a
    reduced model's is the span
    :func:`~cereduce.reduction.equivalence_check` certifies on.  The state
    enters once, as its coordinates x = <B_i, rho0>, and no map is applied
    to it.  Each
    level of the outcome tree, down to depth T-1, is one product of the
    stacked A_k with the level above, in the word order of
    ``itertools.product(ce.outcomes, repeat=t)``, which the table keeps.
    One product of the stacked [tr B; C] A_k with the depth-(T-1) level
    reads every leaf's probability and outputs, so the probabilities sum to
    one for any valid instrument.  The peak is about that level: r^(T-1)
    coordinate vectors.  A tree of more than ``WORD_CAP`` nodes (see
    :func:`table_nodes`), or a ``rho0`` that is not one n x n operator,
    raises ValueError before the realization is built.
    """
    r = len(ce.outcomes)
    if table_nodes(r, T) > WORD_CAP:
        raise ValueError(f"the outcome tree to length {T} over {r} outcomes has more than "
                         f"WORD_CAP = {WORD_CAP} nodes")
    rho = _checked_state(rho0, ce.dim)
    lm = linear_reduce(ce)
    # the A_k stacked by outcome, and the coordinates <B_i, rho0> as one column
    A = np.concatenate([lm.A[k] for k in ce.outcomes])
    x = lm.subspace.stacked().conj() @ rho.reshape(-1, 1)
    for _ in range(T - 1):
        # word w + (k,) sits at column r w + k
        x = (A @ x).reshape(r, lm.q, -1).transpose(1, 2, 0).reshape(lm.q, -1)
    read = np.vstack([np.trace(lm.subspace.basis, axis1=1, axis2=2), lm.C])
    rows = read @ A.reshape(r, lm.q, lm.q) if T else read[None]
    # leaf w + (k,) sits at row r w + k
    table = (rows @ x).transpose(2, 0, 1).reshape(-1, len(read))
    words = itertools.product(ce.outcomes, repeat=T)
    return {seq: (float(row[0].real), row[1:]) for seq, row in zip(words, table)}


def total_variation(full_table: dict, reduced_table: dict) -> float:
    """Half the L1 distance between two distributions over outcome words."""
    if set(full_table) != set(reduced_table):
        raise ValueError("distribution tables index different sequence sets")
    return 0.5 * sum(
        abs(full_table[s][0] - reduced_table[s][0]) for s in full_table
    )
