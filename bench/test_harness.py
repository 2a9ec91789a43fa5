"""Smoke test of the benchmark harness on tiny inputs.

    python3 -m pytest bench/test_harness.py
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
from harness import ModelSpec  # noqa: E402
from spans import Span, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "reduce-ising": replace(harness.WORKLOADS["reduce-ising"], models=(ModelSpec("ising", 4, 0.0),)),
    "records-ising": replace(harness.WORKLOADS["records-ising"], models=(ModelSpec("ising", 4, 0.0),)),
    "records-walk": replace(harness.WORKLOADS["records-ising"], name="records-walk",
                            models=(ModelSpec("walk", 4),), tv=3),
}


def test_benchmark_lists_the_harness_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_reports_every_metric(name, trace, tmp_path):
    result, record = harness.run(TINY[name], seed=3, seconds=0, trace=trace, outdir=tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert record["error_rate"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    for key in ("python", "numpy", "blas", "blas_threads", "nproc"):
        assert key in record["env"]
    assert set(record["samples"]) == set(result["metrics"])


def test_self_time_subtracts_children():
    tr = Tracer(True)
    tr.spans = [
        Span(id=0, name="outer", op="a", round=0, parent=None, start=0.0, end=10.0),
        Span(id=1, name="child", op="a", round=0, parent=0, start=1.0, end=4.0),
        Span(id=2, name="child", op="a", round=0, parent=0, start=5.0, end=7.0),
        Span(id=3, name="leaf", op="a", round=0, parent=1, start=2.0, end=3.0),
    ]
    assert tr.self_times() == {0: 5.0, 1: 2.0, 2: 2.0, 3: 1.0}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "reduce-ising", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
