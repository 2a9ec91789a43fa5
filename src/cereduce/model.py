"""Conditional evolutions: instruments, output maps and their readout.

A conditional evolution couples a quantum instrument (one CP map per
measurement outcome, normalized in the dual) with a linear output map
reading out expectation values of a fixed set of observables.  Its
readout matrix stacks the instrument's POVM on the output map, so one
product with a state gives every outcome probability and every output.
A split model is given as "measure, then evolve": an evolution map and one
effect per outcome, from which its instrument is composed once.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .operators import DEFAULT_TOL, Superoperator

__all__ = [
    "Instrument",
    "OutputMap",
    "ConditionalEvolution",
    "ValidationReport",
    "validate_ce",
]


@dataclass(frozen=True)
class Instrument:
    """A quantum instrument: one CP map per outcome, declaration-ordered."""

    outcomes: tuple[str, ...]
    maps: dict[str, Superoperator]

    def __post_init__(self):
        object.__setattr__(self, "outcomes", tuple(str(k) for k in self.outcomes))
        if not self.outcomes:
            raise ValueError("an instrument needs at least one outcome")
        if len(set(self.outcomes)) != len(self.outcomes):
            raise ValueError(f"duplicate outcome labels in {list(self.outcomes)}")
        if set(self.outcomes) != set(self.maps):
            raise ValueError("outcome labels and map keys differ")
        dims = {S.in_dim for S in self.maps.values()} | {S.out_dim for S in self.maps.values()}
        if len(dims) != 1:
            raise ValueError("all instrument maps must share one dimension")

    @property
    def dim(self) -> int:
        return next(iter(self.maps.values())).in_dim

    def povm(self) -> np.ndarray:
        """Read-only (m, n^2) matrix of the POVM elements E_k = M_k^dag(1), built once.

        E_k = sum_i K_i^dag K_i comes from the Kraus list, with no dense map.
        Row k is E_k^T flattened, so ``povm() @ rho.reshape(-1)`` gives
        tr[E_k rho] = tr[M_k(rho)] for every outcome k in declaration order.
        """
        rows = self.__dict__.get("_povm")
        if rows is None:
            n = self.dim
            # the Kraus operators stacked vertically, K, give E^T = K^T conj(K)
            stacked = [np.array(self.maps[k].kraus).reshape(-1, n) for k in self.outcomes]
            rows = np.array([K.T @ K.conj() for K in stacked]).reshape(len(stacked), n * n)
            rows.flags.writeable = False
            object.__setattr__(self, "_povm", rows)
        return rows

    def normalization_residual(self) -> float:
        """||sum_k E_k - 1||, read off :meth:`povm`."""
        n = self.dim
        return float(np.linalg.norm(self.povm().sum(axis=0).reshape(n, n) - np.eye(n)))


@dataclass(frozen=True)
class OutputMap:
    """Named observables {O_j}; the identity must be among them.

    The output vector tr[O_j X] of an operator X is read by
    :meth:`ConditionalEvolution.readout`.
    """

    names: tuple[str, ...]
    observables: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not self.observables:
            raise ValueError("an output map needs at least one observable")
        if len(self.names) != len(self.observables):
            raise ValueError("one name per observable required")
        object.__setattr__(
            self, "observables", tuple(np.asarray(O, dtype=complex) for O in self.observables)
        )

    @property
    def dim(self) -> int:
        return self.observables[0].shape[0]

    def identity_index(self, tol: float = DEFAULT_TOL) -> int | None:
        eye = np.eye(self.dim, dtype=complex)
        for j, O in enumerate(self.observables):
            if np.linalg.norm(O - eye) <= tol * np.sqrt(self.dim):
                return j
        return None


@dataclass(frozen=True, kw_only=True)
class ConditionalEvolution:
    """An instrument + output map, or a split model: an evolution after the effects.

    A split model is given by its evolution E and its effects K_k, never
    beside an instrument: its instrument is composed here, once, as
    M_k = E o K_k, one outcome per effect in the effects' order.  Its duals
    M_k^dag = K_k^dag o E^dag then share one E^dag(X) among all outcomes
    (see :meth:`dual_images`).  Giving both forms, or neither, raises
    ValueError.
    """

    instrument: Instrument | None = None
    output: OutputMap
    evolution: Superoperator | None = None
    effects: dict[str, Superoperator] | None = None

    def __post_init__(self):
        if (self.evolution is None) != (self.effects is None):
            raise ValueError("split requires both an evolution map and effects")
        if (self.instrument is None) == (self.evolution is None):
            raise ValueError("give either an instrument or a split (evolution and effects), not "
                             + ("both" if self.has_split else "neither"))
        if self.has_split:
            maps = {k: self.evolution @ K for k, K in self.effects.items()}
            object.__setattr__(self, "instrument", Instrument(outcomes=tuple(self.effects), maps=maps))
        if self.instrument.dim != self.output.dim:
            raise ValueError("instrument and output map dimensions differ")

    @property
    def dim(self) -> int:
        return self.instrument.dim

    @property
    def outcomes(self) -> tuple[str, ...]:
        return self.instrument.outcomes

    @property
    def has_split(self) -> bool:
        return self.evolution is not None

    def readout(self) -> np.ndarray:
        """Read-only (m + n_obs, n^2) matrix of the POVM rows, then the output rows, built once.

        ``readout() @ rho.reshape(-1)`` gives tr[E_k rho] for every outcome k
        in declaration order, then tr[O_j rho] for every observable: one
        product reads a state's outcome probabilities and its outputs.
        """
        rows = self.__dict__.get("_readout")
        if rows is None:
            # tr[O X] is O^T flattened row-major against X flattened row-major
            out = np.array([O.T.reshape(-1) for O in self.output.observables])
            rows = np.vstack([self.instrument.povm(), out])
            rows.flags.writeable = False
            object.__setattr__(self, "_readout", rows)
        return rows

    def step_matrices(self) -> tuple[np.ndarray | None, ...]:
        """Per outcome in declaration order, its read-only filter step matrix F_k, or None; built once.

        An outcome whose map applies through its matrix (see
        :class:`~cereduce.operators.Superoperator`) gets
        F_k = [A_k; readout() A_k], with A_k = conj(M_k.matrix) the map on the
        row-major vec that :meth:`readout` reads: vec_r(K X K^dag) =
        (K otimes conj(K)) vec_r(X).  So ``F_k @ rho.reshape(-1)`` holds
        M_k(rho) flattened in its first n^2 entries, then the readout of
        M_k(rho).  Outcomes in the elementwise or products form get None.
        """
        steps = self.__dict__.get("_steps")
        if steps is None:
            readout = self.readout()
            steps = []
            for k in self.outcomes:
                S = self.instrument.maps[k]
                F = None
                if S.form == "matrix":
                    A = S.matrix.conj()
                    F = np.vstack([A, readout @ A])
                    F.flags.writeable = False
                steps.append(F)
            steps = tuple(steps)
            object.__setattr__(self, "_steps", steps)
        return steps

    def dual_images(self) -> Callable[[np.ndarray], Sequence[np.ndarray]]:
        """The function X -> the images M_k^dag(X) of every outcome k, in declaration order.

        On a split model M_k^dag = effect_k^dag o evolution^dag: the function
        computes E^dag(X) once, when called, and returns a sequence, one item
        per outcome, that applies each effect's dual to it as the item is
        read, elementwise for diagonal effects.  Without a split it applies
        the instrument maps' adjoints to X.  X is one operator or a stack, and
        the sequence holds only E^dag(X), or X, so iterating it keeps one
        image alive at a time.  The dual maps are built here, once per
        returned function, and not kept on the model.
        """
        shared = self.evolution.adjoint() if self.has_split else None
        maps = self.effects if self.has_split else self.instrument.maps
        duals = [maps[k].adjoint() for k in self.outcomes]

        def images(X: np.ndarray) -> Sequence[np.ndarray]:
            return _Images(duals, X if shared is None else shared(X))

        return images


class _Images(Sequence):
    """The images D(S) of one operator or stack S under each map D, each formed when read."""

    def __init__(self, maps: list[Superoperator], S: np.ndarray):
        self._maps, self._S = maps, S

    def __len__(self) -> int:
        return len(self._maps)

    def __getitem__(self, k: int) -> np.ndarray:
        return self._maps[k](self._S)


@dataclass(frozen=True)
class ValidationReport:
    normalization_residual: float
    hermiticity_residuals: tuple[float, ...]
    identity_present: bool
    tol: float

    @property
    def ok(self) -> bool:
        return (
            self.normalization_residual <= self.tol * 10
            and all(r <= self.tol for r in self.hermiticity_residuals)
            and self.identity_present
        )


def validate_ce(ce: ConditionalEvolution, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Check dual normalization and observable sanity.

    A split model's instrument is composed from its split, so the split needs
    no check of its own.  Complete positivity needs none either: every
    :class:`Superoperator` is a Kraus map, and one given as a matrix was
    refused when built unless CP.
    """
    herm = tuple(float(np.linalg.norm(O - O.conj().T)) for O in ce.output.observables)
    return ValidationReport(
        normalization_residual=ce.instrument.normalization_residual(),
        hermiticity_residuals=herm,
        identity_present=ce.output.identity_index(tol) is not None,
        tol=tol,
    )
