"""The benchmark's three workloads: set-up, one operation, checks, work counts.

Each workload is a closed loop with one client running a fixed number of
operations: ``reset`` (untimed) returns the process to the state right
after set-up, ``op`` is one timed operation, ``work`` counts what the
operation did (every operation of a run must count the same), and
``check`` verifies its outputs against the committed ``reference.json``.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

#: Input sizes, set-ups and operations per run.  ``full`` is what the
#: benchmark measures; ``smoke`` keeps the benchmark's own tests fast.
#: Both counts are fixed, so every run does the same work whatever the
#: host's speed.  ``full`` is sized so that every run fits the run budget
#: on a 2-core host in its slow phases: ``sweep-warm`` sets up once, since
#: its set-up (calibrating 11 guests and filling the trace cache) is its
#: longest step.  The sampled guests are three of the sampling gate set
#: (``scripts/bench_sampling.py``) at its full 2.4M-instruction horizon.
SIZES = {
    "full": {
        "report-exact": {"setups": 3, "ops": 2, "instructions": 8_000, "warmup": 2_000},
        "sweep-warm": {"setups": 1, "ops": 3, "benchmarks": None, "instructions": 12_000, "warmup": 4_000},
        "sweep-sampled": {"setups": 3, "ops": 3, "benchmarks": ("mcf", "vpr", "go"), "horizon": 2_400_000},
    },
    "smoke": {
        "report-exact": {"setups": 2, "ops": 2, "instructions": 4_000, "warmup": 1_000},
        "sweep-warm": {"setups": 2, "ops": 2, "benchmarks": ("go", "li", "mcf"), "instructions": 2_000, "warmup": 500},
        "sweep-sampled": {"setups": 2, "ops": 2, "benchmarks": ("go",), "horizon": 2_400_000},
    },
}

#: A sampled cell passes when its IPC is within this share of the exact
#: IPC for the same inputs and its 95% CI covers the exact value.
SAMPLED_IPC_TOLERANCE = 0.02


def digest(obj) -> str:
    """SHA-256 over canonical JSON (sorted keys, float repr)."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def forget_setup(workdir: Path) -> None:
    """Return the process to its state before set-up, so that set-up can
    be timed again: drop the calibration and program caches, the
    in-process trace cache and the persistent trace-cache directory."""
    from repro.experiments import runner
    from repro.workloads import suite

    suite._iter_costs_cached.cache_clear()
    suite._build_cached.cache_clear()
    runner.clear_trace_cache()
    shutil.rmtree(workdir / "trace-cache", ignore_errors=True)


def load_reference() -> dict:
    try:
        return json.loads(REFERENCE.read_text())
    except (OSError, ValueError):
        return {}


class ReportExact:
    """``run_fidelity`` over its default guests, from an empty trace cache."""

    name = "report-exact"
    uses_workers = False

    def __init__(self, size: dict, seed: int, workdir: Path, acct) -> None:
        # run_fidelity's output depends on guest order (means over floats),
        # so the seed has nothing order-independent to permute here.
        self.setups = size["setups"]
        self.ops = size["ops"]
        self.instructions = size["instructions"]
        self.warmup = size["warmup"]
        self.workdir = workdir
        self.acct = acct

    def prepare(self) -> None:
        from repro.experiments import (  # noqa: F401  (run_fidelity's lazy imports)
            figure1, figure2, figure4, figure6, figure11, figure12, report, table1,
        )
        from repro.workloads import get_workload

        self.guests = sorted(set(report.FIDELITY_BENCHMARKS) | {b for b, _, _ in figure4.FIGURE4_PANELS})
        # Guest modules are imported here, once, so that every timed
        # set-up does the same work.
        for name in self.guests:
            get_workload(name)

    def size_key(self) -> str:
        return f"{self.instructions}+{self.warmup}"

    def describe(self) -> str:
        from repro.experiments.report import FIDELITY_BENCHMARKS

        return (f"run_fidelity on {', '.join(FIDELITY_BENCHMARKS)} (+twolf for Figure 4) at "
                f"{self.instructions} measured + {self.warmup} warm-up instructions")

    def setup(self) -> None:
        from repro.workloads import suite

        for name in self.guests:
            suite.skip_hint(name)

    def reset(self) -> None:
        from repro.experiments import runner, trace_cache
        from repro.workloads import suite

        cache = self.workdir / "trace-cache"
        shutil.rmtree(cache, ignore_errors=True)
        trace_cache.configure(cache, True)
        runner.clear_trace_cache()
        suite._build_cached.cache_clear()
        self.acct.sim_stats.clear()

    def op(self) -> dict:
        from repro.experiments import report

        rep = report.run_fidelity(instructions=self.instructions, warmup=self.warmup)
        rendered = len(rep.render_markdown()) + len(rep.render_html())
        return {"report": rep, "stats": list(self.acct.sim_stats), "rendered": rendered}

    def work(self, out: dict, counts: dict) -> dict:
        import layers
        from repro.experiments import trace_cache

        cache = trace_cache.stats()
        return {
            "programs_assembled": counts.get("isa.programs", 0),
            "guest_instructions": layers.guest_instructions(counts),
            "simulations": counts.get("timing.runs", 0),
            "simulated_instructions": counts.get("timing.measured_inst", 0),
            "trace_cache_hits": cache["hits"],
            "trace_cache_misses": cache["misses"],
        }

    def output_digest(self, out: dict) -> str:
        d = out["report"].to_dict()
        return digest({
            "stats": [s.to_dict() for s in out["stats"]],
            "stacks": d["stacks"],
            "report": {k: d[k] for k in ("run", "benchmarks", "instructions", "warmup", "ok", "checks")},
        })

    def check(self, out: dict, reference: dict) -> tuple[int, list[str]]:
        rep = out["report"]
        failures = []
        if len(rep.checks) != 23 or not rep.ok:
            failures.append(f"{len(rep.checks) - len(rep.failed)}/{len(rep.checks)} paper claims pass")
        expected = reference.get(self.name, {}).get(self.size_key())
        if self.output_digest(out) != expected:
            failures.append("SimStats / CPI-stack / report digest differs from reference.json")
        if not out["rendered"]:
            failures.append("report rendered empty")
        return 3, failures


class _Sweep:
    """Shared plumbing of the two ``run_sweep`` workloads."""

    name = ""
    uses_workers = True

    def __init__(self, size: dict, seed: int, workdir: Path, acct) -> None:
        from repro.workloads.suite import BENCHMARK_NAMES

        self.setups = size["setups"]
        self.ops = size["ops"]
        self.benchmarks = tuple(size["benchmarks"] or BENCHMARK_NAMES)
        # Cells are independent, so their dispatch order is free to vary.
        self.order = list(self.benchmarks)
        random.Random(seed).shuffle(self.order)
        self.workdir = workdir

    def prepare(self) -> None:
        from repro.experiments import supervisor  # noqa: F401
        from repro.workloads import get_workload

        for name in self.benchmarks:
            get_workload(name)

    def journal(self) -> Path:
        return self.workdir / "journal" / "sweep.json"

    def reset(self) -> None:
        shutil.rmtree(self.journal().parent, ignore_errors=True)

    def sweep(self, configs, max_steps: int, warmup: int, **kwargs):
        from repro.experiments import supervisor

        grid, failures, degraded, report = supervisor.run_sweep(
            self.order, configs, max_steps, warmup, jobs=1,
            journal_path=self.journal(), keep_going=True, **kwargs,
        )
        return {"grid": grid, "failures": failures, "degraded": degraded, "supervisor": report}

    def cells(self) -> list[tuple[str, tuple]]:
        """(label, payload) per cell, in dispatch order, for the
        in-process split of the traced run."""
        raise NotImplementedError

    def _common_checks(self, out: dict) -> list[str]:
        failures = [f.describe() for f in out["failures"]]
        failures += [f"degraded: {d.describe()}" for d in out["degraded"]]
        got, want = sum(len(per) for per in out["grid"].values()), len(self.cells())
        if got != want:
            failures.append(f"{got} of {want} cells returned")
        return failures


class SweepWarm(_Sweep):
    """Exact cells over every guest and the default configs, cache warm."""

    name = "sweep-warm"

    def __init__(self, size: dict, seed: int, workdir: Path, acct) -> None:
        super().__init__(size, seed, workdir, acct)
        self.instructions = size["instructions"]
        self.warmup = size["warmup"]

    def size_key(self) -> str:
        return f"{','.join(self.benchmarks)}|{self.instructions}+{self.warmup}"

    def describe(self) -> str:
        return (f"run_sweep of {len(self.benchmarks)} guests x ideal/pipe4/bitslice4 at "
                f"{self.instructions} + {self.warmup} instructions, jobs=1, journaled, warm trace cache")

    def setup(self) -> None:
        from repro.experiments import runner, trace_cache
        from repro.experiments.sweep import DEFAULT_CONFIGS, parse_configs

        trace_cache.configure(self.workdir / "trace-cache", True)
        for name in self.benchmarks:
            runner.collect_trace(name, self.instructions + self.warmup)
        runner.clear_trace_cache()
        self.configs = parse_configs(DEFAULT_CONFIGS)

    def cache_entries(self) -> int:
        return sum(1 for _ in (self.workdir / "trace-cache").glob("*.npz"))

    def reset(self) -> None:
        super().reset()
        self.entries_before = self.cache_entries()

    def op(self) -> dict:
        return self.sweep(self.configs, self.instructions, self.warmup)

    def cells(self):
        return [
            (f"{name}/{config.name}",
             (name, config, self.instructions, self.warmup, None, None, "ref"))
            for name in self.order for config in self.configs
        ]

    def work(self, out: dict, counts: dict) -> dict:
        grid = out["grid"]
        return {
            "cells_executed": out["supervisor"].cells_executed,
            "simulated_instructions": sum(s.instructions for per in grid.values() for s in per.values()),
            "trace_cache_new_entries": self.cache_entries() - self.entries_before,
        }

    def output_digest(self, out: dict) -> str:
        return digest({
            f"{name}/{config}": stats.to_dict()
            for name, per in out["grid"].items() for config, stats in per.items()
        })

    def check(self, out: dict, reference: dict) -> tuple[int, list[str]]:
        failures = self._common_checks(out)
        expected = reference.get(self.name, {}).get(self.size_key())
        if self.output_digest(out) != expected:
            failures.append("sweep SimStats digest differs from reference.json")
        return 2, failures


class SweepSampled(_Sweep):
    """Sampled cells over gate-set guests on ``ideal``, past a fixed horizon."""

    name = "sweep-sampled"

    def __init__(self, size: dict, seed: int, workdir: Path, acct) -> None:
        super().__init__(size, seed, workdir, acct)
        self.horizon = size["horizon"]

    def describe(self) -> str:
        return (f"sampled run_sweep of {', '.join(self.benchmarks)} on ideal over a "
                f"{self.horizon}-instruction horizon, iters={self.iters}, jobs=1, journaled")

    def ref_key(self) -> str:
        return f"{self.horizon}|{self.iters}"

    def setup(self) -> None:
        from repro.core.config import baseline_config
        from repro.experiments import trace_cache
        from repro.timing.sampling import SamplingPlan
        from repro.workloads import get_workload

        trace_cache.configure(self.workdir / "trace-cache", True)
        # One iteration count that outlives the horizon for every guest:
        # at default iterations every gate guest halts early.
        self.iters = max(get_workload(n).iters_for_budget(self.horizon) for n in self.benchmarks)
        # run_sweep hashes each program image; assembling them here keeps
        # that cost in set-up instead of the first operation.
        for name in self.benchmarks:
            get_workload(name).build(self.iters)
        self.plan = SamplingPlan()
        self.configs = [baseline_config()]
        self.scheduled = min(max(1, self.horizon // self.plan.interval), self.plan.max_windows)

    def op(self) -> dict:
        return self.sweep(self.configs, self.horizon, 0, iters=self.iters, sampling=self.plan)

    def cells(self):
        config = self.configs[0]
        return [
            (f"{name}/{config.name}",
             (name, config, self.horizon, 0, self.iters, None, "ref", self.plan))
            for name in self.order
        ]

    def work(self, out: dict, counts: dict) -> dict:
        stats = [s for per in out["grid"].values() for s in per.values()]

        def total(field: str) -> int:
            return int(sum(s.extra.get(f"sampling.{field}", 0.0) for s in stats))

        return {
            "cells_executed": out["supervisor"].cells_executed,
            "windows": total("windows"),
            "guest_instructions": sum(
                total(f) for f in ("instructions_skipped", "instructions_warmed",
                                   "instructions_detail_warmup", "instructions_measured")),
            "simulated_instructions": sum(s.instructions for s in stats),
        }

    def check(self, out: dict, reference: dict) -> tuple[int, list[str]]:
        failures = self._common_checks(out)
        exact = reference.get(self.name, {}).get(self.ref_key(), {})
        for name, per in sorted(out["grid"].items()):
            for stats in per.values():
                failures += self.check_cell(name, stats, exact.get(name))
        return 1 + len(self.benchmarks), failures

    def check_cell(self, name: str, stats, exact: float | None) -> list[str]:
        windows = int(stats.extra.get("sampling.windows", 0))
        if windows < self.scheduled:
            return [f"{name}: ran {windows} of {self.scheduled} scheduled windows"]
        if exact is None:
            return [f"{name}: no exact IPC in reference.json for {self.ref_key()}"]
        lo = stats.extra.get("sampling.ipc_ci_lo", 0.0)
        hi = stats.extra.get("sampling.ipc_ci_hi", 0.0)
        error = (stats.ipc - exact) / exact
        out = []
        if abs(error) > SAMPLED_IPC_TOLERANCE:
            out.append(f"{name}: sampled IPC {stats.ipc:.4f} is {error:+.2%} off exact {exact:.4f}")
        if not lo <= exact <= hi:
            out.append(f"{name}: 95% CI [{lo:.4f}, {hi:.4f}] misses exact {exact:.4f}")
        return out


WORKLOADS = {cls.name: cls for cls in (ReportExact, SweepSampled, SweepWarm)}


def make(name: str, size: str, seed: int, workdir: Path, acct):
    """Workload *name* at *size*; *acct* is the ``layers.Accountant``
    whose counts the workload reads."""
    return WORKLOADS[name](SIZES[size][name], seed, workdir, acct)
