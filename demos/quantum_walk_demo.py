"""Reduce a measured quantum walk to a classical Markov chain.

A particle hops on n sites by a Haar-random unitary U; after each hop its
position is measured projectively.  Conditioned on the outcome record,
the only retained output is the record's probability.  The algebraic
reduction discovers that the n^2-dimensional quantum model collapses to
an n-state classical chain with transition probabilities |U_jk|^2 --
while the *unconditional* (measurement-averaged) dynamics admits no
reduction at all.
"""

import numpy as np

from cereduce import (
    Superoperator,
    enumerate_distribution,
    equivalence_check,
    hermitian_closure,
    measured_quantum_walk,
    reduce_ce,
    total_variation,
    walk_markov_oracle,
)

N = 4
SEED = 7


def main():
    ce = measured_quantum_walk(N, seed=SEED)
    print(f"measured quantum walk on {N} sites (operator dimension {N * N})")

    red = reduce_ce(ce, seed=0)
    print(f"reduced operator dimension: {red.reduced_dim}")
    print(f"Wedderburn blocks (d_S, d_F): {list(red.blocks)}")
    print("=> the model is abelian: a classical hidden Markov chain.")

    # the reduced one-step map, summed over outcomes, is column-stochastic
    D = red.factorization.reduced_hilbert_dim
    Ssum = Superoperator(sum(red.model.instrument.maps[k].matrix for k in ce.outcomes))
    Q = np.zeros((D, D))
    for j in range(D):
        e = np.zeros((D, D), dtype=complex)
        e[j, j] = 1.0
        Q[:, j] = np.diag(Ssum(e)).real
    print("\nreduced transition matrix (columns sum to 1):")
    print(np.round(Q, 4))
    print("\n|U|^2 oracle:")
    print(np.round(walk_markov_oracle(ce.evolution.kraus[0]), 4))
    print("(equal up to a relabeling of the classical states)")

    rep = equivalence_check(ce, red, tol=1e-8)
    print(
        f"\nequivalence over every outcome word of every length, at every state: root "
        f"deviation {rep.max_dev:.2e}, step defect {rep.step_defect:.2e} "
        f"({'PASS' if rep.passed else 'FAIL'})"
    )

    rho0 = np.eye(N, dtype=complex) / N
    tv = total_variation(
        enumerate_distribution(ce, rho0, 3),
        enumerate_distribution(red.model, red.reduction_map(rho0), 3),
    )
    print(f"total variation between record distributions at T=3: {tv:.2e}")

    # contrast: without conditioning there is nothing to throw away
    eye = np.eye(N)
    sites = [np.outer(eye[:, j], eye[j]).astype(complex) for j in range(N)]
    closure = hermitian_closure(sites, lambda H: [ce.evolution(H)])
    print(
        f"\nunconditional orbit of the site projectors spans {closure.dim} of "
        f"{N * N} dimensions: no unconditional reduction exists."
    )


if __name__ == "__main__":
    main()
