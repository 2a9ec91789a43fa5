"""Run one workload of the cereduce benchmark and print its metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload reduce-ising --seed 1 --seconds 8 --trace 0

Workloads: reduce-ising, records-ising (see harness.py).
``--seed`` sets the reduce_ce seed, the random states of the equivalence
check and the total-variation check, and the trajectory seeds (and the
unitary of a walk model, which only the smoke test uses).  ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` makes a traced run and
prints the per-layer metrics.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the line before it
is the run record (environment, sample counts, error rate).  Model files,
traces and records go to ``.bench_out/<workload>/``.

The program is imported from ``src/`` of the same checkout.  BLAS runs on
one thread: with two threads on a two-core shared host, thread hand-offs
made repeated timings spread several times wider.  Times are reported at
a fixed speed of the host (see speed.py).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cereduce" / "__init__.py").is_file():
        print(f"error: no cereduce sources under {SRC}", file=sys.stderr)
        return 2
    # the cap must be in place before numpy loads its BLAS
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import harness

    workload = harness.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    outdir = ROOT / ".bench_out" / workload.name
    result, record = harness.run(workload, args.seed, args.seconds, bool(args.trace), outdir)

    for name, m in result["metrics"].items():
        n = record["samples"][name]
        print(f"{name:42s} {m['value']:14.6g} {m['unit']:6s} (median of {n})")
    print(f"{'error_rate':42s} {record['error_rate']:14.6g} {'':6s} "
          f"({result['failed']} failed / {result['attempted']} ops)")
    if args.trace:
        untraced = result["metrics"]["trace.reduce_untraced_s"]["value"]
        replay = result["metrics"]["trace.reduce_replay_s"]["value"]
        print(f"tracing overhead on reduce_ce: {replay - untraced:+.4f} s "
              f"({100 * (replay - untraced) / untraced:+.1f}% of {untraced:.4f} s)")
    stem = f"{'trace' if args.trace else 'result'}-seed{args.seed}"
    (outdir / f"{stem}.json").write_text(json.dumps({**record, "result": result}, indent=1))
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
