"""Command-line front end.

Subcommands:

* ``zoo``       emit an example model (walk or Ising chain) as JSON
* ``reduce``    run the reduction pipeline on a model file
* ``verify``    check a (full, reduced) pair for exact equivalence
* ``simulate``  sample measurement records from a model

Exit codes: 0 success / verification pass, 1 verification fail,
2 input or validation error, 3 numerical degeneracy.  The default
tolerance can be overridden with the ``CEREDUCE_TOL`` environment
variable or per-command with ``--tol``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from types import SimpleNamespace

import numpy as np

from . import serialize
from .algebra import DegenerateAlgebraError
from .model import ConditionalEvolution, validate_ce
from .operators import DEFAULT_TOL
from .reduction import STEP_DEFECT_CUT, equivalence_check, random_density, reduce_ce
from .trajectories import (
    WORD_CAP,
    StateEscapedError,
    enumerate_distribution,
    sample_trajectory,
    table_nodes,
    total_variation,
)
from .zoo import ising_chain, measured_quantum_walk

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT = 2
EXIT_DEGENERATE = 3


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_INPUT):
        super().__init__(message)
        self.code = code


def _tol(text: str) -> float:
    """A tolerance from --tol or CEREDUCE_TOL: a positive finite number."""
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not (np.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"tolerance (--tol or CEREDUCE_TOL) must be a positive finite number, got {text!r}"
        )
    return value


def _default_tol(fallback: float = DEFAULT_TOL) -> str:
    # a string default goes through the type function, so CEREDUCE_TOL is checked by _tol
    return os.environ.get("CEREDUCE_TOL", repr(fallback))


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be non-negative, got {value}")
    return value


def _load_model(path: str) -> tuple[ConditionalEvolution, dict]:
    try:
        doc = serialize.load_json(path)
    except FileNotFoundError:
        raise CliError(f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}")
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}")
    except RecursionError:
        raise CliError(f"{path}: JSON nested too deeply to read")
    try:
        return serialize.ce_from_json(doc), doc
    except (ValueError, KeyError) as exc:
        raise CliError(f"{path}: invalid model document: {exc}")


def cmd_zoo(args) -> int:
    if args.family == "walk":
        U = None
        if args.hadamard:
            if args.n != 2:
                raise CliError("--hadamard requires --n 2")
            U = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        ce = measured_quantum_walk(args.n, U=U, seed=args.seed, tol=args.tol)
    else:
        if args.n < 4:
            raise CliError("N >= 4 required for the Ising chain")
        try:
            ce = ising_chain(args.n, args.p, args.delta)
        except ValueError as exc:
            raise CliError(str(exc))
    serialize.save_json(serialize.ce_to_json(ce), args.output)
    print(f"wrote {args.family} model (dim {ce.dim}, {len(ce.outcomes)} outcomes) to {args.output}")
    return EXIT_OK


def _text_report(doc: dict) -> str:
    """The report that ``reduce --report json`` prints, as lines of text."""
    return "\n".join([
        f"reduced dim {doc['reduced_operator_dim']} / original {doc['original_operator_dim']}",
        f"observable subspace dim {doc['nperp_dim']}, output algebra dim {doc['algebra_dim']}",
        f"blocks {doc['blocks']}",
        f"tol {doc['tol']:g}, seed {doc['seed']}",
        f"structure bound {doc['structure_bound']:.3e}",
        "observable subspace margin: smallest kept residual {kept:.3e}, largest dropped {dropped:.3e}"
        .format(**doc["nperp_margin"]),
    ])


def _check_valid(ce: ConditionalEvolution, tol: float) -> None:
    """Refuse a model that fails :func:`validate_ce`, naming every residual (exit 2)."""
    report = validate_ce(ce, tol)
    if not report.ok:
        raise CliError(
            "model validation failed: "
            f"normalization residual {report.normalization_residual:.3e}, "
            f"hermiticity residuals [{', '.join(f'{r:.3e}' for r in report.hermiticity_residuals)}], "
            f"identity present: {report.identity_present}"
        )


def cmd_reduce(args) -> int:
    ce, _ = _load_model(args.model)
    _check_valid(ce, args.tol)
    try:
        red = reduce_ce(ce, tol=args.tol, seed=args.seed)
    except DegenerateAlgebraError as exc:
        raise CliError(f"numerical degeneracy: {exc}", EXIT_DEGENERATE)
    doc = red.provenance()
    # both sides of the observable subspace's rank decision; reported, not stored in the file
    doc["nperp_margin"] = {"kept": red.nperp.kept, "dropped": red.nperp.dropped}
    out = args.output or (os.path.splitext(args.model)[0] + ".red.json")
    serialize.save_json(serialize.reduced_ce_to_json(red), out)
    print(json.dumps(doc, indent=1) if args.report == "json" else _text_report(doc))
    print(f"wrote reduced model to {out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    full, _ = _load_model(args.full)
    red_model, doc = _load_model(args.reduced)
    if "reduction" not in doc:
        raise CliError(f"{args.reduced} carries no reduction map; cannot verify")
    try:
        R = serialize.reduction_map_from_json(doc["reduction"]["R"], (red_model.dim ** 2, full.dim ** 2))
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise CliError(f"{args.reduced}: invalid reduction map: {exc!r}")
    del doc  # not used again, and held through the realizations it would raise the peak
    if set(full.outcomes) != set(red_model.outcomes) or full.output.names != red_model.output.names:
        raise CliError("the two models differ in their outcome labels or observables")
    if args.tv is not None and table_nodes(len(full.outcomes), args.tv) > WORD_CAP:
        raise CliError(f"--tv {args.tv}: the outcome tree to length {args.tv} over {len(full.outcomes)} "
                       f"outcomes has more than WORD_CAP = {WORD_CAP} nodes")
    # just enough of a reduced model to drive the check
    rep = equivalence_check(full, SimpleNamespace(model=red_model, reduction_map=R), tol=args.tol)
    print(f"root: max deviation {rep.max_dev:.3e}, max probability deviation {rep.max_prob_dev:.3e}, "
          "at every state before any step")
    print(f"step: defect {rep.step_defect:.3e}, cut {STEP_DEFECT_CUT:.0e}, "
          f"over {rep.n_sequences} pairs of basis element and outcome")
    print(f"reduced realization: largest dropped residual {rep.realization_dropped:.3e}")
    if args.tv is not None:
        rho0 = random_density(full.dim, np.random.default_rng(args.seed))
        t_full = enumerate_distribution(full, rho0, args.tv)
        t_red = enumerate_distribution(red_model, R(rho0), args.tv)
        tv = total_variation(t_full, t_red)
        print(f"total variation at T={args.tv}: {tv:.3e}")
        if tv > args.tol:
            print("verification FAILED (total variation)")
            return EXIT_VERIFY_FAIL
    if not rep.passed:
        print("verification FAILED")
        return EXIT_VERIFY_FAIL
    print("verification passed")
    return EXIT_OK


def _start_state(ce: ConditionalEvolution, doc: dict, path: str) -> np.ndarray:
    """The maximally mixed state 1_n/n of the full model, as the model in ``doc`` holds it.

    A full model starts at 1_n/n itself.  A reduced one starts at
    R(1_n/n) = sum_k (d_F,k / n) 1_{d_S,k}, read off the ``blocks`` (d_S, d_F)
    of its ``reduction`` block and the n^2 of its ``original_operator_dim``;
    a map R that holds its own ``blocks`` must hold these.
    """
    if "reduction" not in doc:
        return np.eye(ce.dim, dtype=complex) / ce.dim
    try:
        blocks = [(dS, dF) for dS, dF in doc["reduction"]["blocks"]]
        n2 = doc["reduction"]["original_operator_dim"]
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"{path}: invalid reduction block: {exc!r}")
    if not all(type(d) is int and d > 0 for d in (n2, *(d for block in blocks for d in block))):
        raise CliError(f"{path}: reduction blocks {blocks} and original_operator_dim {n2!r} "
                       "must be positive integers")
    n = math.isqrt(n2)
    if n * n != n2 or sum(dS for dS, _ in blocks) != ce.dim or sum(dS * dF for dS, dF in blocks) != n:
        raise CliError(f"{path}: reduction blocks {blocks} do not split a reduced dimension "
                       f"{ce.dim} from an original operator dimension {n2}")
    R = doc["reduction"].get("R")
    if isinstance(R, dict) and "blocks" in R and R["blocks"] != doc["reduction"]["blocks"]:
        raise CliError(f"{path}: reduction blocks {doc['reduction']['blocks']} differ from "
                       f"the blocks {R['blocks']} of its reduction map R")
    weights = [dF / n for dS, dF in blocks for _ in range(dS)]
    return np.diag(weights).astype(complex)


def cmd_simulate(args) -> int:
    ce, doc = _load_model(args.model)
    _check_valid(ce, args.tol)
    rho0 = _start_state(ce, doc, args.model)
    root = np.random.SeedSequence(args.seed)
    out = open(args.output, "w") if args.output else sys.stdout
    counts: dict[tuple[str, ...], int] = {}
    try:
        for _ in range(args.samples):
            # one child at a time: spawn(1) gives the children of spawn(samples) in turn
            child, = root.spawn(1)
            rec = sample_trajectory(ce, rho0, args.steps, np.random.default_rng(child))
            counts[rec.outcomes] = counts.get(rec.outcomes, 0) + 1
            # each output as [re, im], the record's outputs read into Python floats at once
            Y = np.array(rec.outputs)
            out.write(
                json.dumps(
                    {
                        "outcomes": list(rec.outcomes),
                        "probabilities": list(rec.probabilities),
                        "outputs": Y.view(float).reshape(*Y.shape, 2).tolist(),
                    }
                )
                + "\n"
            )
    except StateEscapedError as exc:
        raise CliError(f"{args.model}: {exc}")
    finally:
        if args.output:
            out.close()
    top = sorted(counts.items(), key=lambda kv: -kv[1])[:10]
    print(f"{args.samples} trajectories of {args.steps} steps; most frequent records:", file=sys.stderr)
    for seq, c in top:
        print(f"  {''.join(seq) if all(len(s)==1 for s in seq) else seq}: {c / args.samples:.4f}", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cereduce", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--tol", type=_tol, default=_default_tol())
        p.add_argument("--seed", type=_seed, default=0)

    p = sub.add_parser("zoo", help="emit an example model as JSON")
    fam = p.add_subparsers(dest="family", required=True)
    w = fam.add_parser("walk")
    w.add_argument("--n", type=_positive_int, required=True)
    w.add_argument("--hadamard", action="store_true")
    w.add_argument("-o", "--output", required=True)
    add_common(w)
    w.set_defaults(func=cmd_zoo)
    i = fam.add_parser("ising")
    i.add_argument("--n", type=int, required=True, help="number of qubits, N >= 4")
    i.add_argument("--p", type=float, required=True, help="skip probability in [0, 1)")
    i.add_argument("--delta", type=float, required=True, help="coupling strength")
    i.add_argument("-o", "--output", required=True)
    i.set_defaults(func=cmd_zoo)

    p = sub.add_parser("reduce", help="reduce a model file")
    p.add_argument("model")
    p.add_argument("-o", "--output")
    p.add_argument("--report", choices=("json", "text"), default="text")
    add_common(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("verify", help="verify a (full, reduced) pair")
    p.add_argument("full")
    p.add_argument("reduced")
    p.add_argument("--tv", type=_positive_int, default=None, metavar="T",
                   help="also compare enumerated distributions at length T")
    add_common(p)
    p.set_defaults(func=cmd_verify, tol=_default_tol(1e-8))

    p = sub.add_parser("simulate", help="sample measurement records")
    p.add_argument("model")
    p.add_argument("--steps", type=_positive_int, default=10)
    p.add_argument("--samples", type=_positive_int, default=1000)
    p.add_argument("-o", "--output")
    add_common(p)
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (OSError, MemoryError) as exc:  # MemoryError: an input too large to allocate
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
