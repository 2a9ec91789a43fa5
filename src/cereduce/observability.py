"""Observable subspace of a conditional evolution and its linear reduction.

The orthocomplement of the non-observable subspace is the smallest
operator subspace that contains every observable of interest and is
invariant under the dual of every instrument map.  It is computed by a
closure by generations: each generation of new basis directions is pushed
through every dual map in one call, each direction exactly once, and an
image is kept when its Gram-Schmidt residual
exceeds the tolerance times the largest operator norm seen so far.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ConditionalEvolution
from .operators import (
    DEFAULT_TOL,
    OperatorSubspace,
    Superoperator,
    hermitian_closure,
)

__all__ = [
    "nonobservable_complement",
    "check_invariance",
    "LinearReducedModel",
    "linear_reduce",
]


def nonobservable_complement(
    ce: ConditionalEvolution, tol: float = DEFAULT_TOL
) -> OperatorSubspace:
    """Span of the observables and all their dual-map orbits.

    Their :func:`~cereduce.operators.hermitian_closure` under the duals,
    each basis element expanded by
    :meth:`~cereduce.model.ConditionalEvolution.dual_images`, so a split
    model pays one evolution conjugation per element, not one per outcome.
    The basis is exactly Hermitian, and a non-Hermitian observable enters
    through its two Hermitian parts.
    """
    return hermitian_closure(list(ce.output.observables), ce.dual_images(), tol)


def _images(S: Superoperator, subspace: OperatorSubspace) -> np.ndarray:
    """(n^2, dim) matrix whose column i is S(B_i) flattened row-major, for the basis element B_i."""
    return S(subspace.basis).reshape(subspace.dim, S.out_dim**2).T


def check_invariance(
    subspace: OperatorSubspace,
    S: Superoperator,
    dual: bool = False,
) -> float:
    """Max over unit elements B of the subspace of ||op(B) - Pi op(B)||, op = S or its HS adjoint.

    The stacked basis goes through the map (or its adjoint) in the form the
    map chose at construction; the residuals of the images are the columns of
    one matrix E, and the largest leak is its spectral norm, the square root
    of the largest eigenvalue of the dim x dim Gram matrix E^dag E.  It
    belongs to the pair (subspace, map), not to the basis; 0.0 for an empty
    subspace.
    """
    Y = _images(S.adjoint() if dual else S, subspace)
    Q = subspace.stacked()
    E = Y - Q.T @ (Q @ Y.conj()).conj()
    return float(np.sqrt(np.max(np.linalg.eigvalsh(E.conj().T @ E), initial=0.0)))


@dataclass(frozen=True)
class LinearReducedModel:
    """Minimal linear (not necessarily CPTP) realization on coordinates.

    The coordinates of an operator X are its HS inner products <B_i, X> with
    the subspace basis; A[k] maps them as outcome k's map does, and C reads
    the outputs off them.  A[k] is real when it was read off real
    coordinates (see :func:`linear_reduce`).
    """

    subspace: OperatorSubspace
    A: dict[str, np.ndarray]
    C: np.ndarray

    @property
    def q(self) -> int:
        return self.subspace.dim


def linear_reduce(
    ce: ConditionalEvolution,
    subspace: OperatorSubspace,
    images: list[np.ndarray] | None = None,
) -> LinearReducedModel:
    """Compress every instrument map and the output map onto the subspace.

    A_k[i, j] = <B_i, M_k(B_j)> = <M_k^dag(B_i), B_j> is one product per
    outcome of the rows of the images Y_ki = M_k^dag(B_i) with the basis
    rows, in coordinates whose plain dot product is the HS one:

    * by default conj(Y) against B, both flattened row-major, with the
      images read off one
      :meth:`~cereduce.model.ConditionalEvolution.dual_images` call on the
      stacked basis, so a split model conjugates the basis by its evolution
      once for all outcomes;
    * for a Hermitian basis, ``images`` may instead hold the real
      coordinates Re Y + Im Y, as the blocks (j, m, n, n) of consecutive
      basis elements that :func:`~cereduce.operators.hermitian_closure`
      hands out when it closes the subspace.  They are read against
      Re B + Im B, which for Hermitian operators gives the HS products
      exactly, so A is real and no map is applied here.

    C[o, j] = tr(O_o B_j), one product of the observables' rows with the
    basis rows.  Exact output reproduction for all outcome words
    requires the subspace to contain the full dual-map orbit of the
    observables; the caller is responsible for passing such a subspace
    (typically the result of :func:`nonobservable_complement`).
    """
    if subspace.dim == 0:
        raise ValueError("cannot reduce onto a zero-dimensional subspace")
    Q = subspace.stacked()
    if images is None:
        # one block of the conjugated images of every element, one outcome's written at a time
        block = np.empty((subspace.dim, len(ce.outcomes), *subspace.basis.shape[1:]), dtype=complex)
        for k, Y in enumerate(ce.dual_images()(subspace.basis)):
            np.conjugate(Y, out=block[:, k])
        images, W = [block], Q
    else:
        W = Q.real + Q.imag
    A = {k: np.concatenate([X[:, i].reshape(len(X), -1) @ W.T for X in images])
         for i, k in enumerate(ce.outcomes)}
    # tr(O B) is O^T flattened row-major against B flattened row-major; the rows are formed
    # here, not read off the model's readout, which would then be built and kept
    C = np.array([O.T.reshape(-1) for O in ce.output.observables]) @ Q.T
    return LinearReducedModel(subspace=subspace, A=A, C=C)
