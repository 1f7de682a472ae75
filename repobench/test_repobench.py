"""Tests of the repo benchmark itself, at smoke size.

    PYTHONPATH=src python -m pytest repobench -q
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E_UNITS = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
LAYER_NAMES = {m["name"] for m in DECLARED["per_layer"]}


def bench(workload: str, trace: int) -> tuple[subprocess.CompletedProcess, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_smoke_run_prints_every_end_to_end_metric_with_its_unit(workload):
    proc, result = bench(workload, trace=0)
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert {k: v["unit"] for k, v in result["metrics"].items()} == E2E_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_self_times_sum_to_traced_wall():
    proc, result = bench("sweep-warm", trace=1)
    assert proc.returncode == 0, proc.stderr
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(values) == LAYER_NAMES
    self_total = sum(v for k, v in values.items() if k.startswith("self_s."))
    assert self_total == pytest.approx(values["trace.wall_s"], rel=1e-9)
    # Worker time reached the layers the cells ran in.
    assert values["self_s.timing"] > 0 and values["trace_cache.hits"] > 0


@pytest.fixture
def inprocess(monkeypatch, tmp_path):
    """Run the report-exact loop inside this process (no workers)."""
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    from repro.experiments import runner, trace_cache

    runner.clear_trace_cache()  # nothing left warm by an earlier test
    import run

    def go():
        args = argparse.Namespace(workload="report-exact", seed=7, seconds=1.0, trace=0, size="smoke")
        return run.run(args, tmp_path, time.perf_counter())

    yield go
    trace_cache.configure(None, None)


def test_perturbed_output_fails_its_check_and_counts_as_failed(inprocess, monkeypatch):
    import ops

    real_op = ops.ReportExact.op

    def perturbed(self):
        out = real_op(self)
        out["stats"][0].cycles += 1
        return out

    monkeypatch.setattr(ops.ReportExact, "op", perturbed)
    result = inprocess()
    ops_run = len(result["op_s"])
    assert result["failed"] == ops_run >= 2
    assert all("digest differs" in p for p in result["problems"])


def test_work_identity_check_fires_when_a_cache_is_left_warm(inprocess, monkeypatch):
    from repro.experiments import runner

    # Leave the in-process trace cache warm between operations: later
    # operations then emulate nothing and their outputs still pass.
    monkeypatch.setattr(runner, "clear_trace_cache", lambda: None)
    result = inprocess()
    assert result["failed"] == 0
    assert any("work counts differ" in p for p in result["problems"])
