"""Workloads, timed loops, correctness gate and traced run of the cereduce benchmark.

Every workload is a closed loop with one caller: each call into cereduce
waits for the previous one to return, and nothing runs concurrently.
The harness drives the same public functions, in the same order, as the
``cereduce reduce``, ``verify`` and ``simulate`` commands, and measures
each layer from outside by timing its calls.

Times are read from the clocks in speed.py, which run at a fixed speed
of the host: trajectory samples from the ``calls`` clock, everything else
from the ``dense`` clock.  The record of a run summarizes the speed
factors each clock applied.

A run with tracing off gives the end-to-end metrics.  A run with tracing
on repeats rounds of set-up, reduce pass and records pass, records a span
around every layer call (replaying ``reduce_ce`` stage by stage) and
reports each layer's self time per round.  Each replay is followed by an
untraced ``reduce_ce`` on the same model; the difference between the two
is the tracing overhead.
"""

from __future__ import annotations

import json
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import cereduce
from cereduce import (
    ConditionalEvolution,
    Instrument,
    OutputMap,
    ReducedCE,
    Superoperator,
    algebra_closure,
    check_assumptions,
    commutant,
    conditional_expectation,
    enumerate_distribution,
    equivalence_check,
    ising_chain,
    measured_quantum_walk,
    nonobservable_complement,
    random_density,
    reduce_ce,
    sample_trajectory,
    serialize,
    total_variation,
    validate_ce,
    wedderburn,
)
from cereduce.algebra import center

from spans import Tracer
from speed import SpeedProbe

REDUCE_TOL = 1e-9        # `cereduce reduce` default tolerance
VERIFY_TOL = 1e-8        # `cereduce verify` default tolerance
MAX_LEN, N_STATES = 4, 25  # `cereduce verify` defaults: 25 states, words up to length 4
DELTA = 0.3              # Ising coupling of every chain
STEPS = 10               # steps per simulated trajectory
BATCH = 10               # full-model trajectories per simulate op
SETUP_REPS = 9           # set-ups per run; setup_s is their median
APPLY_SECONDS = 0.2      # minimum length of each traced apply measurement
REDUCE_KEYS = ("reduce_cli_s", "reduced_file_mb")   # per pass of the reduce path
# reduce_s is a median of at least this many samples; a workload whose
# reduce passes are too slow to loop adds reduce_ce-only passes.  A single
# N=5 reduction varies by about 10% from call to call on a shared host.
MIN_REDUCE_SAMPLES = 3


@dataclass(frozen=True)
class ModelSpec:
    family: str          # "ising" or "walk"
    size: int            # qubits N of an Ising chain, sites n of a walk
    p: float = 0.0       # Ising skip probability

    @property
    def name(self) -> str:
        if self.family == "ising":
            return f"ising-N{self.size}-p{self.p:g}"
        return f"walk-n{self.size}"

    def build(self, seed: int) -> ConditionalEvolution:
        if self.family == "ising":
            return ising_chain(self.size, self.p, DELTA)
        return measured_quantum_walk(self.size, seed=seed)

    def pinned(self) -> tuple:
        """Known (nperp dim, algebra dim, reduced dim, blocks) of the model."""
        if self.family == "walk":
            return self.size, self.size, self.size, ((1, 1),) * self.size
        mult = 2 ** (self.size - 3)
        if self.p == 0:
            return 12, 16, 16, ((2, mult),) * 4
        return 18, 32, 32, ((4, mult),) * 2


@dataclass(frozen=True)
class Workload:
    name: str
    models: tuple[ModelSpec, ...]
    main: str            # the path the workload is for: "reduce" or "records"
    tv: int              # T of `cereduce verify --tv T`
    # Reduced-model trajectories per simulate op, at least BATCH: about as
    # long in time as the full batch.  Ten reduced N=5 trajectories last
    # less than one speed-probe period, and the first after a full batch
    # runs about 20% slower on caches the full batch left cold.
    reduced_batch: int = BATCH


WORKLOADS = {
    w.name: w
    for w in (
        # The `cereduce reduce` path (load, validate_ce, reduce_ce,
        # check_assumptions, write) repeated on the headline Ising family.
        # Its two p values load the pipeline differently: p=0.5 spends
        # more in algebra closure, p=0 relatively more in decomposition.
        # It is the only workload where validate_ce and check_assumptions
        # take a large share of a run; check_assumptions is most of a pass.
        # Left out: N=5, whose check_assumptions alone takes 17-18 s per
        # model, too slow to repeat in every run (its p=0.5 reduction is
        # timed in every records-ising run), and N=6, whose wedderburn
        # step alone takes about 94 s.  Its reduced models carry 64 Kraus
        # operators per map, so its reduced simulation also shows what a
        # Kraus-first apply costs where Kraus lists are long.
        Workload("reduce-ising", (ModelSpec("ising", 4, 0.0), ModelSpec("ising", 4, 0.5)),
                 main="reduce", tv=5, reduced_batch=25),
        # The record paths users repeat after reducing once: `cereduce
        # verify --tv 5` (3025 equivalence nodes at the CLI defaults) and
        # simulate batches on the full and the reduced model.  Time goes
        # into dense 1024x1024 Superoperator applies, and reduced simulation
        # is much faster than full.  The reduce path (about 28 s, most of it
        # check_assumptions) runs once per run, before the record loops,
        # and reduce_ce twice more, so that reduce_s is a median of three.
        Workload("records-ising", (ModelSpec("ising", 5, 0.5),),
                 main="records", tv=5, reduced_batch=250),
        # Left out: the same record paths on walk n=8, where 64x64 maps make
        # per-call overhead dominate.  Its one verify per run (117,025 nodes,
        # about 10 s) spread 0.2 from run to run on a shared host, and two
        # per run did not fit the time the whole benchmark may take.  Walk
        # n=16 is out as well: its verify takes about 85 s at the CLI
        # defaults and its reduced file is 45 MB.
    )
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "reduce_s": "s",
    "reduce_cli_s": "s",
    "peak_mb": "MB",
    "reduced_file_mb": "MB",
    "verify_s": "s",
    "simulate_full_traj_per_s": "1/s",
    "simulate_reduced_traj_per_s": "1/s",
}

# layers whose per-layer metric is the summed self time of their spans
SELF_TIME_LAYERS = (
    "zoo.build",
    "serialize.load",
    "serialize.write",
    "model.validate_ce",
    "observability.nonobservable_complement",
    "algebra.algebra_closure",
    "algebra.center",
    "algebra.commutant",
    "algebra.wedderburn",
    "algebra.conditional_expectation",
    "reduction.conjugation",
    "reduction.check_assumptions",
    "reduction.equivalence_check",
    "trajectories.enumerate_distribution",
)

PER_LAYER_UNITS = {
    **{f"{name}_s": "s" for name in SELF_TIME_LAYERS},
    "reduction.equivalence_nodes": "count",
    "trajectories.sample_full_ms": "ms",
    "trajectories.sample_reduced_ms": "ms",
    "operators.apply_full_us": "us",
    "operators.apply_reduced_us": "us",
    "operators.dense_map_mb": "MB",
    "algebra.commutant_gram_mb": "MB",
    "operators.reduced_kraus_ops": "count",
    "trace.reduce_replay_s": "s",
    "trace.reduce_untraced_s": "s",
}


def replay_reduce_ce(ce: ConditionalEvolution, seed: int, tr: Tracer) -> ReducedCE:
    """``reduce_ce`` stage by stage, one span per stage."""
    with tr.span("reduction.reduce_ce"):
        with tr.span("observability.nonobservable_complement"):
            nperp = nonobservable_complement(ce, REDUCE_TOL)
        with tr.span("algebra.algebra_closure"):
            alg = algebra_closure(nperp, REDUCE_TOL)
        with tr.span("algebra.wedderburn"):
            dec = wedderburn(alg, REDUCE_TOL, seed)
        with tr.span("algebra.conditional_expectation"):
            fact = conditional_expectation(dec)
        with tr.span("reduction.conjugation"):
            maps = {k: fact.R @ ce.instrument.maps[k] @ fact.J for k in ce.outcomes}
            Jd = fact.J.adjoint()
            output = OutputMap(
                names=ce.output.names,
                observables=tuple(Jd(O) for O in ce.output.observables),
            )
            model = ConditionalEvolution(
                instrument=Instrument(outcomes=ce.outcomes, maps=maps), output=output
            )
    # wedderburn computes both internally; timed apart so their share shows
    with tr.span("algebra.center"):
        center(alg, REDUCE_TOL)
    with tr.span("algebra.commutant"):
        commutant(alg, REDUCE_TOL)
    return ReducedCE(
        model=model,
        reduction_map=fact.R,
        factorization=fact,
        nperp=nperp,
        output_algebra=alg,
        original_dim=ce.dim,
        tol=REDUCE_TOL,
        seed=seed,
    )


def _dims(red: ReducedCE) -> tuple:
    return red.nperp.dim, red.output_algebra.dim, red.reduced_dim, tuple(red.blocks)


def _dense_bytes(ce: ConditionalEvolution) -> int:
    maps = list(ce.instrument.maps.values())
    if ce.has_split:
        maps += [ce.evolution, *ce.effects.values()]
    return sum(S.matrix.nbytes for S in maps)


class Run:
    """One run of one workload: its files, ops, failures and spans."""

    def __init__(self, workload: Workload, seed: int, trace: bool, outdir: Path):
        self.w = workload
        self.seed = seed
        self.probe = SpeedProbe()
        self.now = self.probe.now
        self.tr = Tracer(trace, clock=self.now)
        self.outdir = outdir
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.inputs: dict[ModelSpec, ConditionalEvolution] = {}
        self.reduced: dict[ModelSpec, ReducedCE] = {}
        self.loaded: dict[ModelSpec, tuple] = {}      # (full, reduced, R) as verify read them

    def path(self, m: ModelSpec, suffix: str = ".json") -> str:
        return str(self.outdir / (m.name + suffix))

    def op(self, label: str, fn) -> dict:
        """Run one operation; returns its timings.

        ``fn`` returns (timings, problems).  The op fails if it raises or
        reports a problem; the checks behind the problems run outside the
        timed calls.
        """
        self.attempted += 1
        with self.tr.op(f"{label}#{self.attempted}"):
            try:
                timings, problems = fn()
            except Exception:
                timings, problems = {}, [traceback.format_exc()]
        self.failed += bool(problems)
        for msg in problems:
            self.failures.append(f"{label}: {msg}")
            print(f"FAILED {label}: {msg}", file=sys.stderr)
        return timings

    # -- set-up -----------------------------------------------------------

    def setup(self, _index: int = 0) -> list:
        return [self.op("setup", self._setup)]

    def _setup(self):
        """Import cereduce afresh, build the zoo models, write the model files."""
        t0 = self.now()
        env = {**os.environ, "PYTHONPATH": str(Path(cereduce.__file__).parents[1])}
        subprocess.run([sys.executable, "-c", "import cereduce"], env=env, check=True)
        for m in self.w.models:
            with self.tr.span("zoo.build"):
                ce = m.build(self.seed)
            with self.tr.span("serialize.write"):
                serialize.save_json(serialize.ce_to_json(ce), self.path(m))
            self.inputs[m] = ce
        return {"setup_s": self.now() - t0}, []

    # -- `cereduce reduce` ------------------------------------------------

    def reduce_ce_pass(self, _index: int = 0) -> list:
        """``reduce_ce`` alone on each built model."""
        return [self.op(f"reduce_ce {m.name}", lambda: self._reduce_ce_one(m))
                for m in self.w.models]

    def _reduce_ce_one(self, m: ModelSpec):
        t0 = self.now()
        red = reduce_ce(self.inputs[m], REDUCE_TOL, self.seed)
        elapsed = self.now() - t0
        if _dims(red) != m.pinned():
            return {}, [f"dims/blocks {_dims(red)}, pinned {m.pinned()}"]
        return {"reduce_s": elapsed}, []

    def reduce_pass(self, _index: int = 0) -> list:
        return [self.op(f"reduce {m.name}", lambda: self._reduce_one(m)) for m in self.w.models]

    def _reduce_one(self, m: ModelSpec):
        tr = self.tr
        out = self.path(m, ".red.json")
        t0 = self.now()
        with tr.span("serialize.load"):
            ce = serialize.ce_from_json(serialize.load_json(self.path(m)))
        with tr.span("model.validate_ce"):
            report = validate_ce(ce, REDUCE_TOL)
        if not report.ok:
            return {}, [f"validate_ce rejected the model: {report}"]
        t1 = self.now()
        if tr.enabled:
            red = replay_reduce_ce(ce, self.seed, tr)
        else:
            red = reduce_ce(ce, REDUCE_TOL, self.seed)
        t2 = self.now()
        if ce.has_split:
            with tr.span("reduction.check_assumptions"):
                check_assumptions(ce, red.nperp, red.output_algebra, REDUCE_TOL)
        with tr.span("serialize.write"):
            serialize.save_json(serialize.reduced_ce_to_json(red), out)
        t3 = self.now()

        timings = {
            "reduce_s": t2 - t1,
            "reduce_cli_s": t3 - t0,
            "reduced_file_mb": os.path.getsize(out) / 1e6,
        }
        self.reduced[m] = red
        problems = []
        if _dims(red) != m.pinned():
            problems.append(f"dims/blocks {_dims(red)}, pinned {m.pinned()}")
        if tr.enabled:
            # the replay must reach what reduce_ce itself reaches
            t = self.now()
            direct = reduce_ce(ce, REDUCE_TOL, self.seed)
            timings["untraced_reduce_s"] = self.now() - t
            if _dims(direct) != _dims(red):
                problems.append(f"replay reached {_dims(red)}, reduce_ce {_dims(direct)}")
        return timings, problems

    # -- `cereduce verify --tv T` and `cereduce simulate` -----------------

    def records_pass(self, index: int) -> list:
        return self.verify_pass() + self.simulate_pass(index)

    def verify_pass(self, _index: int = 0) -> list:
        return [self.op(f"verify {m.name}", lambda: self._verify_one(m)) for m in self.w.models]

    def simulate_pass(self, index: int) -> list:
        """One batch per model, on the models the last verify pass loaded."""
        return [self.op(f"simulate {m.name}", lambda: self._simulate_one(m, index))
                for m in self.w.models]

    def _verify_one(self, m: ModelSpec):
        tr = self.tr
        t0 = self.now()
        with tr.span("serialize.load"):
            full = serialize.ce_from_json(serialize.load_json(self.path(m)))
            doc = serialize.load_json(self.path(m, ".red.json"))
            red = serialize.ce_from_json(doc)
            R = Superoperator(serialize.matrix_from_json(doc["reduction"]["R"]))
        with tr.span("reduction.equivalence_check") as sp:
            rep = equivalence_check(
                full,
                SimpleNamespace(model=red, reduction_map=R),
                max_len=MAX_LEN,
                n_states=N_STATES,
                tol=VERIFY_TOL,
                seed=self.seed,
            )
        if sp is not None:
            sp.attrs["nodes"] = rep.n_sequences
        rho0 = random_density(full.dim, np.random.default_rng(self.seed))
        with tr.span("trajectories.enumerate_distribution"):
            t_full = enumerate_distribution(full, rho0, self.w.tv)
        with tr.span("trajectories.enumerate_distribution"):
            t_red = enumerate_distribution(red, R(rho0), self.w.tv)
        tv = total_variation(t_full, t_red)
        elapsed = self.now() - t0

        self.loaded[m] = full, red, R
        problems = []
        if not rep.passed:
            problems.append(
                f"equivalence_check failed: max_dev {rep.max_dev:.3e}, "
                f"max_prob_dev {rep.max_prob_dev:.3e}"
            )
        if tv > VERIFY_TOL:
            problems.append(f"total variation {tv:.3e} at T={self.w.tv}")
        return {"verify_s": elapsed}, problems

    def _simulate_one(self, m: ModelSpec, index: int):
        full, red, R = self.loaded[m]
        rho0 = np.eye(full.dim, dtype=complex) / full.dim
        tau0 = R(rho0)
        # the full batch uses the first BATCH seeds of the reduced batch;
        # those pairs are compared below
        children = np.random.SeedSequence([self.seed, index]).spawn(self.w.reduced_batch)

        def batch(ce, state, name, seeds):
            # trajectories are timed on the clock whose kernel is their kind of work
            recs, times = [], []
            for child in seeds:
                with self.tr.span(name):
                    t0 = self.probe.now("calls")
                    recs.append(sample_trajectory(ce, state, STEPS, np.random.default_rng(child)))
                    times.append(self.probe.now("calls") - t0)
            return recs, times

        full_recs, full_s = batch(full, rho0, "trajectories.sample_full", children[:BATCH])
        red_recs, red_s = batch(red, tau0, "trajectories.sample_reduced", children)

        problems = []
        for i, (a, b) in enumerate(zip(full_recs, red_recs)):
            if a.outcomes != b.outcomes:
                problems.append(f"trajectory {i}: records {a.outcomes} vs {b.outcomes}")
                continue
            dev = max(float(np.max(np.abs(x - y))) for x, y in zip(a.outputs, b.outputs))
            if dev > VERIFY_TOL:
                problems.append(f"trajectory {i}: output deviation {dev:.3e}")
        # the rest have no full partner; check that each is a well-formed record
        for i, b in enumerate(red_recs[BATCH:], start=BATCH):
            if (len(b.outcomes) != STEPS or not set(b.outcomes) <= set(red.outcomes)
                    or not all(np.all(np.isfinite(y)) for y in b.outputs)):
                problems.append(f"reduced trajectory {i}: malformed record {b.outcomes}")
        return {"full_traj_s": full_s, "reduced_traj_s": red_s}, problems

    # -- traced run -------------------------------------------------------

    def time_applies(self) -> None:
        self.op("apply", self._time_applies)

    def _time_applies(self):
        """Time single instrument applies on the full and the reduced models."""
        rng = np.random.default_rng(self.seed)
        for m, red in self.reduced.items():
            for name, ce in (("operators.apply_full", self.inputs[m]),
                             ("operators.apply_reduced", red.model)):
                rho = random_density(ce.dim, rng)
                maps = [ce.instrument.maps[k] for k in ce.outcomes]
                calls = 0
                with self.tr.span(name) as sp:
                    t0 = self.now()
                    while self.now() - t0 < APPLY_SECONDS:
                        for S in maps:
                            S(rho)
                        calls += len(maps)
                sp.attrs["calls"] = calls
        return {}, []

    def layer_metrics(self, untraced_reduce_s: list[float]) -> dict:
        """Per-layer metrics from the spans.

        Sums are taken per round and reported as the median over rounds.
        """
        spans = self.tr.spans
        selfs = self.tr.self_times()
        rounds = sorted({sp.round for sp in spans})
        by_name: dict[str, list] = {}
        for sp in spans:
            by_name.setdefault(sp.name, []).append(sp)

        def per_round(name, value):
            sums = dict.fromkeys(rounds, 0)
            for sp in by_name.get(name, []):
                sums[sp.round] += value(sp)
            return statistics.median(sums.values())

        def self_sum(name):
            return per_round(name, lambda sp: selfs[sp.id])

        def per_call(name):
            group = by_name.get(name, [])
            calls = sum(sp.attrs["calls"] for sp in group)
            return sum(selfs[sp.id] for sp in group) / calls if calls else 0.0

        def median_self(name):
            group = by_name.get(name, [])
            return statistics.median(selfs[sp.id] for sp in group) if group else 0.0

        values = {f"{name}_s": self_sum(name) for name in SELF_TIME_LAYERS}
        values.update({
            "reduction.equivalence_nodes": per_round(
                "reduction.equivalence_check", lambda sp: sp.attrs.get("nodes", 0)),
            "trajectories.sample_full_ms": 1e3 * median_self("trajectories.sample_full"),
            "trajectories.sample_reduced_ms": 1e3 * median_self("trajectories.sample_reduced"),
            "operators.apply_full_us": 1e6 * per_call("operators.apply_full"),
            "operators.apply_reduced_us": 1e6 * per_call("operators.apply_reduced"),
            "operators.dense_map_mb": sum(_dense_bytes(ce) for ce in self.inputs.values()) / 1e6,
            "algebra.commutant_gram_mb": sum(16 * ce.dim**4 for ce in self.inputs.values()) / 1e6,
            "operators.reduced_kraus_ops": sum(
                len(S.kraus) for red in self.reduced.values()
                for S in red.model.instrument.maps.values()),
            "trace.reduce_replay_s": per_round(
                "reduction.reduce_ce", lambda sp: sp.duration),
            "trace.reduce_untraced_s": statistics.median(untraced_reduce_s),
        })
        return {k: (v, PER_LAYER_UNITS[k], len(rounds)) for k, v in values.items()}


def _totals(ops: list[dict], keys) -> dict:
    return {k: sum(timings.get(k, 0) for timings in ops) for k in keys}


def _loop(step, seconds: float) -> list:
    """Repeat ``step`` until ``seconds`` have passed; at least once."""
    samples = []
    start = time.perf_counter()
    while True:
        samples.append(step(len(samples) + 1))
        if time.perf_counter() - start >= seconds:
            return samples


def _main_pass_peak(workload: Workload, seed: int, outdir: Path) -> tuple:
    """In a fresh process: one pass of the workload's main path on the
    files already written; returns its peak resident size in MB and the
    op counts."""
    r = Run(workload, seed, False, outdir)
    (r.reduce_pass if workload.main == "reduce" else r.records_pass)(0)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss   # KiB on Linux
    return peak_kb * 1024 / 1e6, r.attempted, r.failed, r.failures


# Run in a child interpreter by peak_mb(): reads (workload, seed, outdir)
# pickled on stdin and prints the pass's result as its last stdout line.
_PEAK_CHILD = """
import json, pickle, sys
from pathlib import Path
import harness
w, seed, outdir = pickle.load(sys.stdin.buffer)
print(json.dumps(harness._main_pass_peak(w, seed, Path(outdir))))
"""
PEAK_TIMEOUT_S = 150


def peak_mb(run: Run) -> float:
    """Peak resident size of a process that imports cereduce and makes one
    pass of the main path; its ops count toward the run's.

    A child process keeps the parent's earlier allocations out of the
    peak and, unlike allocation tracing, runs the pass at full speed.
    It is a plain child interpreter, waited for (and killed on timeout or
    error) by subprocess.run, so no process outlives the run.
    """
    bench = Path(__file__).resolve().parent
    src = Path(cereduce.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((str(bench), str(src)))}
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_CHILD],
        input=pickle.dumps((run.w, run.seed, str(run.outdir))),
        stdout=subprocess.PIPE, env=env, check=True, timeout=PEAK_TIMEOUT_S,
    )
    peak, attempted, failed, failures = json.loads(proc.stdout.decode().splitlines()[-1])
    run.attempted += attempted
    run.failed += failed
    run.failures += failures
    return peak


def _medians(samples: list[dict]) -> dict:
    return {
        key: (statistics.median(s[key] for s in samples), END_TO_END_UNITS[key], len(samples))
        for key in samples[0]
    }


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        vendor = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": vendor,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
        "loop": "closed, one caller",
    }


def run(workload: Workload, seed: int, seconds: float, trace: bool, outdir: Path) -> tuple[dict, dict]:
    """Run one workload; returns the result object and the run record."""
    outdir.mkdir(parents=True, exist_ok=True)
    r = Run(workload, seed, trace, outdir)
    if trace:
        def session(index):
            r.tr.round = index
            r.setup()
            reduces = r.reduce_pass()
            r.records_pass(index)
            r.time_applies()
            return reduces

        with r.probe.running():
            reduces = _loop(session, seconds)
        untraced = [_totals(ops, ("untraced_reduce_s",))["untraced_reduce_s"] for ops in reduces]
        metrics = r.layer_metrics(untraced)
        r.tr.write_jsonl(outdir / f"trace-seed{seed}.jsonl")
    else:
        with r.probe.running():
            setups = [r.setup() for _ in range(SETUP_REPS)]
            reduces = _loop(r.reduce_pass, seconds)
            reduce_ces = [_totals(ops, ("reduce_s",)) for ops in reduces]
            while len(reduce_ces) < MIN_REDUCE_SAMPLES:
                reduce_ces.append(_totals(r.reduce_ce_pass(), ("reduce_s",)))
            peak = peak_mb(r)
            verifies = _loop(r.verify_pass, seconds)
            simulates = _loop(r.simulate_pass, seconds)
        metrics = {
            **_medians([_totals(ops, ("setup_s",)) for ops in setups]),
            **_medians(reduce_ces),
            **_medians([_totals(ops, REDUCE_KEYS) for ops in reduces]),
            "peak_mb": (peak, "MB", 1),
            **_medians([_totals(ops, ("verify_s",)) for ops in verifies]),
        }
        # many short batches spread over the loop; the median over single
        # trajectories skips those a burst of host load slowed
        for path in ("full", "reduced"):
            times = [t for ops in simulates for timings in ops
                     for t in timings.get(f"{path}_traj_s", [])]
            metrics[f"simulate_{path}_traj_per_s"] = (
                1 / statistics.median(times) if times else 0.0, "1/s", len(times))
    result = {
        "correct": r.failed == 0,
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }
    record = {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "env": environment(),
        "samples": {k: n for k, (_, _, n) in metrics.items()},
        "speed_factor": {
            clock: {"median": statistics.median(f), "min": min(f), "max": max(f), "ticks": len(f)}
            for clock, f in r.probe.factors.items()
        },
        "error_rate": r.failed / r.attempted,
        "failures": r.failures,
    }
    return result, record
