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
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import serialize
from .algebra import DegenerateAlgebraError
from .model import ConditionalEvolution, validate_ce
from .operators import DEFAULT_TOL, Superoperator
from .reduction import check_assumptions, equivalence_check, random_density, reduce_ce
from .trajectories import (
    WORD_CAP,
    StateEscapedError,
    enumerate_distribution,
    sample_trajectory,
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
    try:
        return serialize.ce_from_json(doc), doc
    except (ValueError, KeyError) as exc:
        raise CliError(f"{path}: invalid model document: {exc}")


@dataclass(frozen=True)
class _LoadedReduction:
    """Just enough of a reduced model to drive verification."""

    model: ConditionalEvolution
    reduction_map: Superoperator


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


def _text_report(red, assumptions) -> str:
    prov = red.provenance()
    lines = [
        f"reduced dim {prov['reduced_operator_dim']} / original {prov['original_operator_dim']}",
        f"observable subspace dim {prov['nperp_dim']}, output algebra dim {prov['algebra_dim']}",
        f"blocks {prov['blocks']}",
        f"tol {prov['tol']:g}, seed {prov['seed']}",
    ]
    if assumptions is not None:
        for name in ("a1", "a2", "a3", "a4"):
            chk = getattr(assumptions, name)
            lines.append(f"assumption {name.upper()}: holds={chk.holds} residual={chk.residual:.3e}")
        lines.append(
            "lambdas: " + ", ".join(f"{k}={v.real:.6g}" for k, v in assumptions.lambdas.items())
        )
    return "\n".join(lines)


def _check_valid(ce: ConditionalEvolution, tol: float) -> None:
    """Refuse a model that fails :func:`validate_ce`, naming every residual (exit 2)."""
    report = validate_ce(ce, tol)
    if not report.ok:
        split = "none" if report.split_residual is None else f"{report.split_residual:.3e}"
        raise CliError(
            "model validation failed: "
            f"normalization residual {report.normalization_residual:.3e}, "
            f"hermiticity residuals [{', '.join(f'{r:.3e}' for r in report.hermiticity_residuals)}], "
            f"split residual {split}, identity present: {report.identity_present}"
        )


def cmd_reduce(args) -> int:
    ce, _ = _load_model(args.model)
    _check_valid(ce, args.tol)
    try:
        red = reduce_ce(ce, tol=args.tol, seed=args.seed)
    except DegenerateAlgebraError as exc:
        raise CliError(f"numerical degeneracy: {exc}", EXIT_DEGENERATE)
    assumptions = None
    if ce.has_split:
        assumptions = check_assumptions(ce, red.nperp, red.output_algebra, args.tol)
    out = args.output or (os.path.splitext(args.model)[0] + ".red.json")
    serialize.save_json(serialize.reduced_ce_to_json(red), out)
    if args.report == "json":
        doc = red.provenance()
        if assumptions is not None:
            doc["assumptions"] = {
                name: {
                    "holds": bool(getattr(assumptions, name).holds),
                    "residual": getattr(assumptions, name).residual,
                }
                for name in ("a1", "a2", "a3", "a4")
            }
            doc["lambdas"] = {
                k: [v.real, v.imag] for k, v in assumptions.lambdas.items()
            }
        print(json.dumps(doc, indent=1))
    else:
        print(_text_report(red, assumptions))
    print(f"wrote reduced model to {out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    full, _ = _load_model(args.full)
    red_model, doc = _load_model(args.reduced)
    if "reduction" not in doc:
        raise CliError(f"{args.reduced} carries no reduction map; cannot verify")
    try:
        M = serialize.matrix_from_json(doc["reduction"]["R"])
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise CliError(f"{args.reduced}: invalid reduction map: {exc!r}")
    # checked before the factorization, which a mismatched pair would pay in full
    if M.shape != (red_model.dim ** 2, full.dim ** 2):
        raise CliError("reduction map dimensions do not match the model pair")
    try:
        R = Superoperator(M)
    except ValueError as exc:
        raise CliError(f"{args.reduced}: invalid reduction map: {exc!r}")
    if set(full.outcomes) != set(red_model.outcomes) or full.output.names != red_model.output.names:
        raise CliError("the two models differ in their outcome labels or observables")
    # with 2+ outcomes, T >= bit_length(cap) is past the cap; the min keeps the power small
    if args.tv is not None and len(full.outcomes) ** min(args.tv, WORD_CAP.bit_length()) > WORD_CAP:
        raise CliError(f"--tv {args.tv}: more outcome words than the cap of {WORD_CAP}")
    reduced = _LoadedReduction(model=red_model, reduction_map=R)
    try:
        rep = equivalence_check(
            full,
            reduced,
            max_len=args.max_len,
            n_states=args.n_states,
            tol=args.tol,
            seed=args.seed,
        )
    except ValueError as exc:  # an outcome tree above WORD_CAP nodes, refused before the walk
        raise CliError(f"--max-len {args.max_len}: {exc}")
    print(
        f"equivalence: max output deviation {rep.max_dev:.3e}, "
        f"max probability deviation {rep.max_prob_dev:.3e} "
        f"over {rep.n_sequences // args.n_states} words and {args.n_states} states"
    )
    if args.tv is not None:
        rng = np.random.default_rng(args.seed)
        rho0 = random_density(full.dim, rng)
        t_full = enumerate_distribution(full, rho0, args.tv)
        t_red = enumerate_distribution(red_model, R(rho0), args.tv)
        tv = total_variation(t_full, t_red)
        print(f"total variation at T={args.tv}: {tv:.3e}")
        if tv > args.tol:
            print("verification FAILED (total variation)")
            return EXIT_VERIFY_FAIL
    if not rep.passed:
        print(f"verification FAILED; worst case: state {rep.worst_case[0]}, sequence {list(rep.worst_case[1])}")
        return EXIT_VERIFY_FAIL
    print("verification passed")
    return EXIT_OK


def cmd_simulate(args) -> int:
    ce, _ = _load_model(args.model)
    _check_valid(ce, args.tol)
    rho0 = np.eye(ce.dim, dtype=complex) / ce.dim
    root = np.random.SeedSequence(args.seed)
    out = open(args.output, "w") if args.output else sys.stdout
    counts: dict[tuple[str, ...], int] = {}
    try:
        for child in root.spawn(args.samples):
            rec = sample_trajectory(ce, rho0, args.steps, np.random.default_rng(child))
            counts[rec.outcomes] = counts.get(rec.outcomes, 0) + 1
            out.write(
                json.dumps(
                    {
                        "outcomes": list(rec.outcomes),
                        "probabilities": list(rec.probabilities),
                        "outputs": [[[v.real, v.imag] for v in y] for y in rec.outputs],
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
    w.add_argument("--seed", type=_seed, default=0)
    w.add_argument("--hadamard", action="store_true")
    w.add_argument("-o", "--output", required=True)
    w.add_argument("--tol", type=_tol, default=_default_tol())
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
    p.add_argument("--max-len", type=_positive_int, default=4)
    p.add_argument("--n-states", type=_positive_int, default=25)
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
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
