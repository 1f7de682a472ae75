#!/usr/bin/env python
"""Benchmark the emulator's execution tiers and gate the blocks floor.

Measures, per workload, full runs to the halt point (bounded by
``--steps``) under each interpreter tier:

* ``fast`` — pre-bound per-instruction dispatch;
* ``blocks`` — the block-compiling tier (``repro.emulator.blocks``,
  the default tier);
* ``reference`` — the golden ``if``/``elif`` interpreter
  (``--with-reference``; slow, measured once).

Every workload is first lockstep cross-checked against the golden
reference on a trace slice (fast *and* blocks), so a snapshot can never
record throughput for a tier that diverged from the model.  Runs are
timed with ``time.process_time`` (wall clock is noisy on shared
runners), best of ``--repeats``, over a *shared* Program object so the
per-program code cache keeps compiled blocks warm across repeats —
exactly how a sweep reuses them across machines.

Writes a ``BENCH_<run>.json`` snapshot (same schema as the CLI's perf
snapshots, plus ``emulator_*`` / ``blocks_speedup`` sections) for
``scripts/bench_compare.py``'s regression gate::

    python scripts/bench_emulator.py --out benchmarks/BENCH_blocks.json
    python scripts/bench_emulator.py --assert-blocks-default --check-speedup

``blocks_speedup`` ratios are host-normalised (both tiers run in the
same process on the same machine), so ``--check-speedup`` is meaningful
on shared CI runners where raw inst/s would not be.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.emulator.blocks import cross_check_blocks, stats as block_stats  # noqa: E402
from repro.emulator.dispatch import cross_check  # noqa: E402
from repro.emulator.machine import Machine, default_dispatch  # noqa: E402
from repro.harness.atomicio import atomic_write_json  # noqa: E402
from repro.obs.manifest import bench_snapshot, build_manifest  # noqa: E402
from repro.workloads import BENCHMARK_NAMES, get_workload  # noqa: E402

#: Instruction cap per run; every workload halts well below this, so
#: measurements are deterministic full runs, never mid-phase windows.
DEFAULT_STEPS = 2_000_000

#: ALU-heavy gate set (the blocks tier's target workloads; the floor in
#: ``--check-speedup`` is the geomean over these).
DEFAULT_BENCHMARKS = ("bzip", "gzip", "li", "mcf", "vortex")

#: Trace slice used for the pre-measurement lockstep parity checks.
PARITY_SLICE = 3_000

#: Geomean blocks-vs-fast floor enforced by ``--check-speedup``.
SPEEDUP_FLOOR = 3.0

#: Blocks-tier guest-profiler overhead ceiling enforced by
#: ``--profile-overhead`` (the documented budget is <10%).
PROFILE_OVERHEAD_BUDGET = 0.10


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 0.0


def _best_run(program, mode: str, steps: int, repeats: int):
    """Best-of-*repeats* process seconds for a full run; fresh machine
    per repeat, shared Program (warm per-program block-code cache)."""
    best = math.inf
    retired = None
    for _ in range(repeats):
        machine = Machine(program, dispatch=mode)
        t0 = time.process_time()
        n = machine.run(steps)
        dt = time.process_time() - t0
        if retired is None:
            retired = n
        elif n != retired:
            raise RuntimeError(
                f"nondeterministic run under {mode!r}: {n} != {retired} instructions"
            )
        if dt < best:
            best = dt
    return best, retired


def bench_benchmark(name: str, steps: int, repeats: int, with_reference: bool,
                    verbose=print) -> dict:
    """Parity-check then measure one workload across the tiers."""
    program = get_workload(name).build(iters=None, profile="ref")
    # Parity before measurement: both fast tiers in lockstep vs the
    # golden reference on a slice of this exact program.
    cross_check(program, max_steps=PARITY_SLICE)
    cross_check_blocks(program, max_steps=PARITY_SLICE, threshold=0)

    fast_wall, retired = _best_run(program, "fast", steps, repeats)
    blocks_wall, blocks_retired = _best_run(program, "blocks", steps, repeats)
    if blocks_retired != retired:
        raise RuntimeError(
            f"{name}: blocks tier retired {blocks_retired} instructions, "
            f"fast retired {retired}"
        )
    row = {
        "instructions": retired,
        "fast_wall_seconds": fast_wall,
        "blocks_wall_seconds": blocks_wall,
        "fast_instructions_per_second": retired / fast_wall,
        "blocks_instructions_per_second": retired / blocks_wall,
        "blocks_speedup": fast_wall / blocks_wall,
    }
    line = (
        f"  {name:<8s} {retired:>9,d} inst   fast {retired / fast_wall:>10,.0f} inst/s"
        f"   blocks {retired / blocks_wall:>10,.0f} inst/s   {fast_wall / blocks_wall:5.2f}x"
    )
    if with_reference:
        ref_wall, ref_retired = _best_run(program, "reference", steps, 1)
        if ref_retired != retired:
            raise RuntimeError(
                f"{name}: reference retired {ref_retired} instructions, "
                f"fast retired {retired}"
            )
        row["reference_wall_seconds"] = ref_wall
        row["reference_instructions_per_second"] = retired / ref_wall
        row["fast_speedup"] = ref_wall / fast_wall
        line += f"   (ref {retired / ref_wall:,.0f} inst/s)"
    verbose(line)
    return row


def measure_profile_overhead(benchmarks, steps: int, repeats: int,
                             verbose=print) -> float:
    """Geomean blocks-tier slowdown with the exact guest profiler on.

    Interleaves profiler-off and profiler-on repeats over a shared warm
    Program so code-cache state and host frequency drift hit both arms
    equally — the methodology behind the documented overhead number.
    """
    from repro.obs.guestprof import end_guest_profile, start_guest_profile

    ratios = []
    for name in benchmarks:
        program = get_workload(name).build(iters=None, profile="ref")
        Machine(program, dispatch="blocks").run(steps)  # warm the code cache
        off = on = math.inf
        for _ in range(repeats):
            machine = Machine(program, dispatch="blocks")
            t0 = time.process_time()
            machine.run(steps)
            off = min(off, time.process_time() - t0)
            machine = Machine(program, dispatch="blocks")
            start_guest_profile()
            try:
                t0 = time.process_time()
                machine.run(steps)
                on = min(on, time.process_time() - t0)
            finally:
                end_guest_profile()
        ratios.append(on / off)
        verbose(f"  {name:<8s} profiler off {off:6.3f}s  on {on:6.3f}s  "
                f"overhead {on / off - 1:+6.1%}")
    return geomean(ratios) - 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument(
        "-b", "--benchmarks", nargs="+", default=list(DEFAULT_BENCHMARKS),
        choices=BENCHMARK_NAMES, metavar="NAME",
        help=f"workloads to measure (default {' '.join(DEFAULT_BENCHMARKS)})",
    )
    parser.add_argument(
        "-n", "--steps", type=int, default=DEFAULT_STEPS, metavar="N",
        help=f"instruction cap per run; all workloads halt below the "
             f"default ({DEFAULT_STEPS})",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, metavar="R",
        help="process-time repeats per (workload, tier); best is kept (default 3)",
    )
    parser.add_argument(
        "--with-reference", action="store_true",
        help="also measure the golden reference interpreter (slow; one repeat)",
    )
    parser.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the BENCH-schema snapshot JSON here",
    )
    parser.add_argument(
        "--assert-blocks-default", action="store_true",
        help="fail unless the blocks tier is the session default and a "
             "default-tier machine compiles blocks (guards CI against "
             "benching a misconfigured tier)",
    )
    parser.add_argument(
        "--check-speedup", action="store_true",
        help=f"fail unless the geomean blocks-vs-fast speedup clears the "
             f"repo floor ({SPEEDUP_FLOOR}x)",
    )
    parser.add_argument(
        "--speedup-floor", type=float, default=SPEEDUP_FLOOR, metavar="X",
        help=f"geomean floor used by --check-speedup (default {SPEEDUP_FLOOR})",
    )
    parser.add_argument(
        "--profile-overhead", action="store_true",
        help="measure the blocks tier with the exact guest profiler enabled "
             f"and fail above the {PROFILE_OVERHEAD_BUDGET:.0%} overhead budget",
    )
    args = parser.parse_args(argv)

    if args.profile_overhead:
        print(
            f"guest-profiler overhead on the blocks tier "
            f"(cap {args.steps:,d}, best of {args.repeats}):"
        )
        overhead = measure_profile_overhead(args.benchmarks, args.steps, args.repeats)
        print(f"geomean enabled-mode overhead: {overhead:+.1%} "
              f"(budget <{PROFILE_OVERHEAD_BUDGET:.0%})")
        if overhead >= PROFILE_OVERHEAD_BUDGET:
            print(
                f"error: guest-profiler overhead {overhead:.1%} >= "
                f"{PROFILE_OVERHEAD_BUDGET:.0%} budget",
                file=sys.stderr,
            )
            return 1
        return 0

    if args.assert_blocks_default:
        mode = default_dispatch()
        if mode != "blocks":
            print(
                f"error: the blocks tier is not the session default "
                f"(default={mode!r}); is $REPRO_DISPATCH forcing another tier?",
                file=sys.stderr,
            )
            return 1
        probe = Machine(get_workload("li").build(iters=1), block_threshold=0)
        probe.run(2_000)
        engaged = probe._engine is not None and block_stats()["blocks_compiled"] > 0
        if not engaged:
            print("error: the default-tier probe compiled no blocks", file=sys.stderr)
            return 1
        print("blocks tier is the default (default 'blocks') and compiles")

    print(
        f"benching {len(args.benchmarks)} workload(s), full runs to halt "
        f"(cap {args.steps:,d}), best of {args.repeats} by process time:"
    )
    rows = {}
    for name in args.benchmarks:
        rows[name] = bench_benchmark(
            name, args.steps, args.repeats, args.with_reference
        )
    blocks_gm = geomean(r["blocks_speedup"] for r in rows.values())
    print(f"geomean blocks speedup vs fast dispatch: {blocks_gm:.2f}x")
    if args.with_reference:
        fast_gm = geomean(r["fast_speedup"] for r in rows.values())
        print(f"geomean fast speedup vs reference: {fast_gm:.2f}x")

    if args.out:
        records = {}
        for name, r in rows.items():
            tiers = {
                "fast": r["fast_instructions_per_second"],
                "blocks": r["blocks_instructions_per_second"],
            }
            if "reference_instructions_per_second" in r:
                tiers["reference"] = r["reference_instructions_per_second"]
            records[name] = {
                # BENCH-schema required keys (no timing sim here: ipc empty).
                "ipc": {},
                "wall_seconds": r["fast_wall_seconds"] + r["blocks_wall_seconds"]
                + r.get("reference_wall_seconds", 0.0),
                "instructions": r["instructions"],
                "instructions_per_second": r["blocks_instructions_per_second"],
                # Emulator sections consumed by bench_compare.py.
                "emulator_instructions_per_second": tiers,
                "blocks_speedup": r["blocks_speedup"],
            }
            if "fast_speedup" in r:
                records[name]["fast_speedup_vs_reference"] = r["fast_speedup"]
        manifest = build_manifest(
            config={
                "benchmarks": list(args.benchmarks),
                "steps": args.steps,
                "repeats": args.repeats,
                "with_reference": args.with_reference,
            },
            argv=list(argv) if argv is not None else None,
            extra={
                "dispatch": default_dispatch(),
                "blocks": block_stats(),
                "bench": "emulator-tiers",
                "blocks_speedup_geomean": blocks_gm,
            },
        )
        run = f"emulator-{time.strftime('%Y%m%dT%H%M%SZ', time.gmtime())}"
        payload = bench_snapshot(run, records, manifest)
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_json(out, payload)
        print(f"emulator snapshot written to {out}")

    if args.check_speedup:
        if blocks_gm < args.speedup_floor:
            print(
                f"error: blocks geomean {blocks_gm:.2f}x < "
                f"{args.speedup_floor}x floor",
                file=sys.stderr,
            )
            return 1
        print(f"speedup floor cleared (blocks >= {args.speedup_floor}x geomean)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
