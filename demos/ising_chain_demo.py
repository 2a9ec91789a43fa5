"""Track one spin of a monitored Ising chain with a fixed-size model.

An N-qubit chain evolves under a nearest-neighbor sigma_x sigma_x
coupling; the last qubit is measured each step in the computational
basis, but the measurement is skipped with probability p.  We only care
about the state of the *first* qubit, conditioned on the record.

The full model lives on a 4^N-dimensional operator space.  The algebraic
reduction compresses it to dimension 16 (p = 0) or 32 (p > 0) --
independent of N.  When p > 0 the measurement and the evolution can even
be reduced separately, because the skip outcome is proportional to the
identity map.
"""

import numpy as np

from cereduce import ConditionalEvolution, check_assumptions, equivalence_check, ising_chain, reduce_ce


def reduce_and_report(N, p):
    ce = ising_chain(N, p, delta=0.3)
    red = reduce_ce(ce, seed=0)
    print(f"\nN={N}, skip probability p={p}:")
    print(f"  full operator dimension : {4**N}")
    print(f"  non-observable complement: {red.nperp.dim}")
    print(f"  output algebra dimension : {red.output_algebra.dim}")
    print(f"  reduced model dimension  : {red.reduced_dim}, blocks {list(red.blocks)}")
    return ce, red


def main():
    for N in (4, 5):
        for p in (0.0, 0.5):
            reduce_and_report(N, p)
    print("\n=> the reduced dimension does not grow with the chain length.")

    ce, red = ising_chain(4, 0.5, 0.3), None
    red = reduce_ce(ce, seed=0)
    rep = check_assumptions(ce, red.nperp, red.output_algebra)
    print("\nseparability assumptions at N=4, p=0.5:")
    for name in ("a1", "a2", "a3", "a4"):
        chk = getattr(rep, name)
        print(f"  {name}: holds={chk.holds} (residual {chk.residual:.2e})")
    lam = rep.lambdas["-1"].real
    print(f"  skip outcome enters the evolution with weight 1/p = {lam:.6f}")

    # the evolution and each effect reduced on their own, R o E o J and R o K_k o J
    fact = red.factorization
    sep = ConditionalEvolution(output=red.model.output, evolution=fact.reduce_map(ce.evolution)[0],
                               effects={k: fact.reduce_map(ce.effects[k])[0] for k in ce.outcomes})
    dev = max(
        np.linalg.norm(sep.instrument.maps[k].matrix - red.model.instrument.maps[k].matrix)
        for k in ce.outcomes
    )
    print(f"  recomposed separate reduction matches the joint one: {dev:.2e}")

    eq = equivalence_check(ce, red, tol=1e-8)
    print(
        f"\nfirst-qubit outputs agree on every record of every length, at every state: "
        f"root deviation {eq.max_dev:.2e}, step defect {eq.step_defect:.2e} "
        f"({'PASS' if eq.passed else 'FAIL'})"
    )


if __name__ == "__main__":
    main()
