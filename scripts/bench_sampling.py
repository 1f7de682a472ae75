#!/usr/bin/env python
"""Benchmark the statistical-sampling engine against full detailed simulation.

For every benchmark in the long-horizon gate set, runs the same
steady-state region twice on the baseline machine:

* **exact** — full detailed simulation of the whole horizon (the slow
  truth the sampling engine is replacing), and
* **sampled** — SMARTS-style systematic sampling
  (:func:`repro.timing.sampling.sample_benchmark`) at the default plan,

then reports per-benchmark wall-clock speedup, IPC error, and whether
the bootstrap 95% CI covers the exact IPC.  Speedups are
host-normalised (both modes run in the same process on the same
machine), so ``--check-speedup`` is meaningful on shared CI runners.

Writes a ``BENCH_<run>.json`` snapshot (same schema as the CLI's perf
snapshots, plus ``sampling_*`` sections) for trend reporting and the CI
gate::

    python scripts/bench_sampling.py --out benchmarks/BENCH_sampling_baseline.json
    python scripts/bench_sampling.py --check-speedup

``--check-speedup`` enforces the repo floors: geomean wall-clock
reduction >= 8x at <= 2% IPC error with every CI covering its exact
value.  The committed ``benchmarks/BENCH_sampling_baseline.json`` is
the reference snapshot those floors were set from.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.config import baseline_config  # noqa: E402
from repro.harness.atomicio import atomic_write_json  # noqa: E402
from repro.obs.manifest import bench_snapshot, build_manifest  # noqa: E402
from repro.timing.sampling import SamplingPlan, sample_benchmark  # noqa: E402
from repro.timing.simulator import TimingSimulator  # noqa: E402
from repro.workloads.suite import get_workload  # noqa: E402

#: The long-horizon gate set.  Chosen for steady sampling behaviour at
#: the gate budget; strongly bimodal guests (ijpeg: ~1% of instructions
#: in a ~6x-slower stratum) are excluded because rare-stratum coverage
#: is a sample-size question, not an engine property.
GATE_BENCHMARKS: tuple[str, ...] = ("gzip", "mcf", "parser", "bzip", "vpr", "go")

#: Instruction horizon both modes cover per benchmark.
DEFAULT_BUDGET = 2_400_000

#: ``--check-speedup`` floors (mirrored by the CI perf-smoke job).
SPEEDUP_FLOOR = 8.0
ERROR_CEILING = 0.02


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 0.0


def bench_one(name: str, budget: int, plan: SamplingPlan, verbose=print) -> dict:
    """Exact-vs-sampled row for one benchmark."""
    from repro.emulator.machine import Machine

    config = baseline_config()
    workload = get_workload(name)
    iters = workload.iters_for_budget(budget)
    skip = workload.skip_hint

    machine = Machine(workload.build(iters), dispatch="fast")
    machine.run(skip)
    t0 = time.perf_counter()
    exact = TimingSimulator(config).run(machine.trace(budget))
    exact_wall = time.perf_counter() - t0

    t0 = time.perf_counter()
    sampled = sample_benchmark(name, config, plan, budget=budget, iters=iters)
    sampled_wall = time.perf_counter() - t0

    error = (sampled.ipc_point - exact.ipc) / exact.ipc if exact.ipc else float("inf")
    covered = sampled.ipc_lo <= exact.ipc <= sampled.ipc_hi
    speedup = exact_wall / sampled_wall if sampled_wall else float("inf")
    row = {
        "exact_ipc": exact.ipc,
        "sampled_ipc": sampled.ipc_point,
        "ipc_ci": [sampled.ipc_lo, sampled.ipc_hi],
        "ipc_error": error,
        "ci_covers_exact": covered,
        "windows": len(sampled.windows),
        "instructions_measured": sampled.measured,
        "instructions_exact": exact.instructions,
        "exact_wall_seconds": exact_wall,
        "sampled_wall_seconds": sampled_wall,
        "speedup": speedup,
    }
    verbose(
        f"  {name:<8s} exact {exact.ipc:6.4f} ({exact_wall:6.1f}s)"
        f"  sampled {sampled.ipc_point:6.4f}"
        f" [{sampled.ipc_lo:.4f}, {sampled.ipc_hi:.4f}]"
        f" ({sampled_wall:5.1f}s)  err {error:+6.2%}"
        f"  {'cover' if covered else 'MISS '}  {speedup:5.2f}x"
    )
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument(
        "-b", "--benchmarks", nargs="+", default=list(GATE_BENCHMARKS),
        help="gate benchmarks (default: %(default)s)",
    )
    parser.add_argument(
        "-n", "--budget", type=int, default=DEFAULT_BUDGET, metavar="N",
        help="instruction horizon per benchmark (default %(default)s)",
    )
    parser.add_argument(
        "--sample-window", type=int, default=None, metavar="N",
        help="measured instructions per window (default: plan default)",
    )
    parser.add_argument(
        "--sample-interval", type=int, default=None, metavar="N",
        help="systematic-sampling period (default: plan default)",
    )
    parser.add_argument(
        "--sample-seed", type=int, default=None, metavar="SEED",
        help="window-placement + bootstrap seed (default: plan default)",
    )
    parser.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the BENCH-schema snapshot JSON here",
    )
    parser.add_argument(
        "--check-speedup", action="store_true",
        help=f"fail unless geomean speedup >= {SPEEDUP_FLOOR}x, every "
             f"|IPC error| <= {ERROR_CEILING:.0%}, and every CI covers "
             "its exact IPC",
    )
    args = parser.parse_args(argv)

    import dataclasses

    overrides = {
        key: value
        for key, value in (
            ("window", args.sample_window),
            ("interval", args.sample_interval),
            ("seed", args.sample_seed),
        )
        if value is not None
    }
    plan = dataclasses.replace(SamplingPlan(), **overrides).validate()

    print(
        f"sampling gate: {len(args.benchmarks)} benchmarks, horizon "
        f"{args.budget} instructions, plan window={plan.window} "
        f"interval={plan.interval} seed={plan.seed}"
    )
    rows = {}
    for name in args.benchmarks:
        rows[name] = bench_one(name, args.budget, plan)

    gm = geomean(r["speedup"] for r in rows.values())
    worst_err = max(abs(r["ipc_error"]) for r in rows.values())
    misses = [name for name, r in rows.items() if not r["ci_covers_exact"]]
    print(
        f"geomean speedup {gm:.2f}x, worst |IPC error| {worst_err:.2%}, "
        f"CI misses: {', '.join(misses) if misses else 'none'}"
    )

    if args.out:
        record_per_bench = {
            name: {
                "ipc": r["sampled_ipc"],
                "wall_seconds": r["sampled_wall_seconds"],
                # The sampled run covers the whole horizon; the
                # detailed windows measure only a small share of it.
                "instructions": r["instructions_exact"],
                "instructions_per_second": (
                    r["instructions_exact"] / r["sampled_wall_seconds"]
                    if r["sampled_wall_seconds"] else 0.0
                ),
                "sampling_instructions_measured": r["instructions_measured"],
                "sampling_exact_ipc": r["exact_ipc"],
                "sampling_ipc_ci": r["ipc_ci"],
                "sampling_ipc_error": r["ipc_error"],
                "sampling_ci_covers_exact": r["ci_covers_exact"],
                "sampling_windows": r["windows"],
                "sampling_speedup": r["speedup"],
                "sampling_exact_wall_seconds": r["exact_wall_seconds"],
            }
            for name, r in rows.items()
        }
        manifest = build_manifest(
            config={
                "benchmarks": list(args.benchmarks),
                "budget": args.budget,
                "plan": plan.canonical(),
            },
            argv=list(argv) if argv is not None else None,
            extra={"bench": "sampling-engine"},
        )
        payload = bench_snapshot(
            f"sampling-{time.strftime('%Y%m%dT%H%M%SZ', time.gmtime())}",
            record_per_bench,
            manifest,
        )
        payload["sampling_speedup_geomean"] = gm
        payload["sampling_worst_error"] = worst_err
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_json(out, payload)
        print(f"sampling snapshot written to {out}")

    if args.check_speedup:
        failed = []
        if gm < SPEEDUP_FLOOR:
            failed.append(f"geomean speedup {gm:.2f}x < {SPEEDUP_FLOOR}x floor")
        if worst_err > ERROR_CEILING:
            failed.append(
                f"worst |IPC error| {worst_err:.2%} > {ERROR_CEILING:.0%} ceiling"
            )
        if misses:
            failed.append(f"CI misses exact IPC on: {', '.join(misses)}")
        if failed:
            for line in failed:
                print(f"error: {line}", file=sys.stderr)
            return 1
        print(
            f"sampling floors cleared (>= {SPEEDUP_FLOOR}x geomean, "
            f"<= {ERROR_CEILING:.0%} error, all CIs cover)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
