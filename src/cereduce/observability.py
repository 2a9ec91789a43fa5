"""Observable subspace of a conditional evolution and its minimal linear realization.

The orthocomplement of the non-observable subspace is the smallest
operator subspace that contains every observable of interest and is
invariant under the dual of every instrument map.  It is computed by a
closure by generations: each generation of new basis directions is pushed
through every dual map in one call, each direction exactly once, and an
image is kept when its Gram-Schmidt residual
exceeds the tolerance times the largest operator norm seen so far.  The
same closure of 1 and the observables gives the model's minimal linear
realization, read off the images it formed, built once per model and kept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ConditionalEvolution
from .operators import DEFAULT_TOL, OperatorSubspace, Superoperator, hermitian_closure

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


# The relative tolerance of the realizations' closures: far above the rounding of a dual
# apply (the closures of Ising N=4..9 and of walks n=3..10 drop residuals of at most 1e-14)
# and far below any deviation a check is asked to see.
REALIZATION_TOL = 1e-12


@dataclass(frozen=True)
class LinearReducedModel:
    """Minimal linear (not necessarily CPTP) realization on coordinates.

    The coordinates of an operator X are its HS inner products <B_i, X> with
    the subspace basis, the smallest dual-invariant span of 1 and the
    observables; A[k] maps them as outcome k's map does, and C reads the
    outputs off them.  A[k] is real (see :func:`linear_reduce`).
    """

    subspace: OperatorSubspace
    A: dict[str, np.ndarray]
    C: np.ndarray

    @property
    def q(self) -> int:
        return self.subspace.dim


def linear_reduce(ce: ConditionalEvolution) -> LinearReducedModel:
    """The model's minimal linear realization, built on the first call and kept on the model.

    Its span is the :func:`~cereduce.operators.hermitian_closure` of 1 and
    the observables under
    :meth:`~cereduce.model.ConditionalEvolution.dual_images`, at relative
    tolerance ``REALIZATION_TOL``, so each basis element goes through the
    duals once and a split model conjugates by its evolution once per
    generation.  A_k[i, j] = <B_i, M_k(B_j)> = <M_k^dag(B_i), B_j> is one
    product per outcome of the real coordinates Re Y + Im Y of the images
    Y_ki = M_k^dag(B_i), the blocks the closure formed, against Re B + Im B:
    for Hermitian operators these give the HS products exactly, so A_k is
    real and no map is applied here.  The images, m n^2 floats per element,
    live until then.  C[o, j] = tr(O_o B_j), one product of the observables'
    rows with the basis rows.
    """
    lm = ce.__dict__.get("_realization")
    if lm is not None:
        return lm
    blocks = []
    span = hermitian_closure([np.eye(ce.dim, dtype=complex), *ce.output.observables],
                             ce.dual_images(), REALIZATION_TOL, blocks)
    Q = span.stacked()
    W = Q.real + Q.imag
    A = {k: np.concatenate([X[:, i].reshape(len(X), -1) @ W.T for X in blocks])
         for i, k in enumerate(ce.outcomes)}
    # tr(O B) is O^T flattened row-major against B flattened row-major; the rows are formed
    # here, not read off the model's readout, which would then be built and kept
    C = np.array([O.T.reshape(-1) for O in ce.output.observables]) @ Q.T
    lm = LinearReducedModel(subspace=span, A=A, C=C)
    object.__setattr__(ce, "_realization", lm)
    return lm
