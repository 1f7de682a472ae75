"""Repo benchmark: one closed-loop workload per run, end to end or traced.

    python3 repobench/run.py --workload report-exact --seed 1 --seconds 40 --trace 0

One client runs one operation at a time.  Set-up (imports, program
assembly, guest calibration and, for ``sweep-warm``, the trace-cache
fill) is timed from process start, the workload's part of it as the
median of a fixed number of set-ups; then a fixed number of operations
per workload run back to back, so every run does the same work (at least
two, so the work-identity check always compares).  ``--seconds`` is the
measuring time that number was sized for; a run that measures longer
says so on stderr.  The last stdout line is the result JSON; the line
before it records host conditions.

``--trace 1`` runs the same workload with the layer accounting of
``layers.py`` and prints the per-layer metrics instead (its end-to-end
numbers are not used).  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def process_age() -> float:
    """Seconds since this process started (0 where /proc is missing)."""
    try:
        start_ticks = int(Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()[19])
        uptime = float(Path("/proc/uptime").read_text().split()[0])
        return max(0.0, uptime - start_ticks / os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, IndexError):
        return 0.0


def cpu_ticks() -> dict:
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()
        return {"iowait": int(fields[5]), "steal": int(fields[8])}
    except (OSError, ValueError, IndexError):
        return {"iowait": 0, "steal": 0}


def host_record(ticks_before: dict) -> dict:
    import platform

    import numpy

    after = cpu_ticks()
    try:
        load = [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except (OSError, ValueError):
        load = []
    return {
        "loadavg": load,
        "steal_ticks": after["steal"] - ticks_before["steal"],
        "iowait_ticks": after["iowait"] - ticks_before["iowait"],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest sweep worker."""
    import resource

    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def isolate(workdir: Path) -> None:
    """Keep temporary files, including multiprocessing's shared-memory
    arenas, inside the checkout."""
    import multiprocessing.heap
    import tempfile

    tmp = workdir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    multiprocessing.heap.Arena._dir_candidates = [str(tmp)]


def stop_children() -> None:
    """Stop the resource tracker that spawning sweep workers started."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def run(args, workdir: Path, t0: float) -> dict:
    import layers
    import ops

    acct = layers.Accountant()
    wl = ops.make(args.workload, args.size, args.seed, workdir, acct)
    wl.prepare()
    patches = layers.install(acct)
    try:
        return measure(args, wl, acct, patches, t0)
    finally:
        patches.undo()


def measure(args, wl, acct, patches, t0: float) -> dict:
    import layers
    import ops
    from repro.obs import tracing

    reference = ops.load_reference()
    if args.trace:
        acct.start()
    # Imports and the rest of process start-up happen once; the
    # workload's own set-up is repeated and its median counted.  A traced
    # run sets up once, so that set-up's layer times are one set-up's.
    setup_samples: list[float] = []
    for i in range(1 if args.trace else wl.setups):
        if i:
            ops.forget_setup(wl.workdir)
        start = time.perf_counter()
        if not i:
            started = start - t0
        wl.setup()
        setup_samples.append(time.perf_counter() - start)
    setup_s = started + statistics.median(setup_samples)
    if args.trace:
        acct.stop()
        setup_snapshot = (dict(acct.self_s), dict(acct.counts), len(acct.spans))

    op_s: list[float] = []
    traced_s: list[float] = []
    works: list[dict] = []
    health: list[dict] = []
    problems: list[str] = []
    attempted = failed = 0
    for i in range(wl.ops):
        # In a traced run the first operation runs untraced: it is the
        # base the tracing overhead is measured against.
        traced = bool(args.trace) and i > 0
        wl.reset()
        if traced:
            if wl.uses_workers and tracing.active_tracer() is None:
                tracing.start_tracing()
            acct.start()
        counts_before = dict(acct.counts)
        attempted += 1
        t = time.perf_counter()
        try:
            out = wl.op()
        except Exception as exc:  # report the failure instead of crashing
            failed += 1
            problems.append(f"operation {i + 1} raised {type(exc).__name__}: {exc}")
            break
        finally:
            if traced:
                acct.stop()
        (traced_s if traced else op_s).append(time.perf_counter() - t)
        counts = {k: v - counts_before.get(k, 0.0) for k, v in acct.counts.items()}
        n_checks, failures = wl.check(out, reference)
        attempted += n_checks
        failed += len(failures)
        problems += failures
        works.append(wl.work(out, counts))
        if "supervisor" in out:
            health.append({"retries": out["supervisor"].retries, "respawns": out["supervisor"].respawns})

    if any(w != works[0] for w in works):
        problems.append(f"work counts differ between operations: {works}")
    result = {
        "describe": wl.describe(),
        "setup_s": setup_s,
        "setup_samples": setup_samples,
        "op_s": op_s,
        "traced_s": traced_s,
        "work": works[0] if works else {},
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }
    if args.trace:
        tracer = tracing.end_tracing()
        repro_spans = list(tracer) if tracer is not None else []
        patches.undo()
        split, split_counts = inprocess_split(wl) if repro_spans else ({}, {})
        if repro_spans:
            layers.attribute_workers(acct, repro_spans, split)
        result["layers"] = layer_metrics(
            acct, setup_snapshot, len(works), op_s, traced_s, repro_spans, split_counts, health)
        layers.write_spans(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl", acct, repro_spans)
    return result


def inprocess_split(wl):
    """Time every sweep cell's public calls once in-process, starting
    from the state a fresh worker starts in.  Returns per-cell self times
    and the work counts of one operation's cells."""
    import layers
    from repro.experiments import runner, supervisor
    from repro.workloads import suite

    acct = layers.Accountant()
    patches = layers.install(acct)
    try:
        runner.clear_trace_cache()
        suite._build_cached.cache_clear()
        suite._iter_costs_cached.cache_clear()
        split = {}
        for label, payload in wl.cells():
            before = dict(acct.self_s)
            acct.start()
            supervisor._execute_cell(payload)
            acct.stop()
            split[label] = {k: v - before.get(k, 0.0) for k, v in acct.self_s.items()}
        counts = dict(acct.counts)
        counts["workloads.calibrate_incl_s"] = _span_total(acct.spans, "workloads.calibrate")
    finally:
        patches.undo()
        runner.clear_trace_cache()
    return split, counts


def _span_total(spans, name: str) -> float:
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name and s["end"] is not None)


def layer_metrics(acct, setup_snapshot, n_ops, op_s, traced_s, repro_spans, split_counts, health) -> dict:
    """Per-layer metrics of a traced run (see README.md for definitions).

    Times cover the traced operations only; counts cover every operation
    (the wrappers count with tracing off too), which all did the same work.
    """
    import layers

    setup_self, setup_counts, setup_spans = setup_snapshot
    n = max(1, len(traced_s))

    def setup_time(key: str) -> float:
        return sum(v for k, v in setup_self.items() if k == key or k.startswith(key + "."))

    def per_op(key: str) -> float:
        return (acct.key_total(key) - setup_time(key)) / n

    def count(key: str) -> float:
        return ((acct.counts.get(key, 0.0) - setup_counts.get(key, 0.0)) / max(1, n_ops)
                + split_counts.get(key, 0.0))

    def rate(work: float, seconds: float) -> float:
        return work / seconds if seconds > 0 else 0.0

    sup = layers.supervisor_metrics(repro_spans)
    sampled_s = sum(s.end - s.start for s in repro_spans if s.name.startswith("sample.") and s.end)
    windows = count("sampling.windows")
    horizon = count("sampling.horizon")
    m = {
        "isa.build_s": setup_time("isa") + per_op("isa"),
        "isa.programs": setup_counts.get("isa.programs", 0.0) + count("isa.programs"),
        "workloads.calibrate_s": (_span_total(acct.spans[:setup_spans], "workloads.calibrate")
                                  + _span_total(acct.spans[setup_spans:], "workloads.calibrate") / n
                                  + split_counts.get("workloads.calibrate_incl_s", 0.0)),
        "workloads.calibrated": setup_counts.get("workloads.calibrated", 0.0) + count("workloads.calibrated"),
        "emulator.trace_rec_per_s": rate(count("emulator.trace_rec"), per_op("emulator.trace")),
        "emulator.ff_inst_per_s": rate(count("emulator.ff_inst"), per_op("emulator.ff")),
        "emulator.warm_inst_per_s": rate(count("emulator.warm_inst"), per_op("emulator.warm")),
        "tracefile.pack_rec_per_s": rate(count("tracefile.pack_rec"), per_op("tracefile.pack")),
        "tracefile.unpack_rec_per_s": rate(count("tracefile.unpack_rec"), per_op("tracefile.unpack")),
        "timing.self_s": per_op("timing"),
    }
    for fam in layers.TIMING_FAMILIES:
        m[f"timing.inst_per_s.{fam}"] = rate(count(f"timing.inst.{fam}"), per_op(f"timing.{fam}"))
    spans_seen = bool(repro_spans)
    m.update({
        "sampling.windows": windows,
        "sampling.window_s": rate(per_op("timing") + per_op("emulator.trace"), windows),
        "sampling.horizon_inst_per_s": rate(horizon * n, sampled_s),
        "sampling.measured_frac": rate(count("sampling.measured"), horizon),
        "sampling.bootstrap_s": per_op("sampling.bootstrap"),
        "characterization.self_s": per_op("characterization"),
        "characterization.rec_per_s": rate(count("characterization.rec"), per_op("characterization")),
        # Worker-side hits and misses are the sweep tracer's cache spans.
        "trace_cache.hits": (sum(1 for s in repro_spans if s.name.startswith("cache.hit.")) / n
                             if spans_seen else count("trace_cache.hits")),
        "trace_cache.misses": (sum(1 for s in repro_spans if s.name.startswith("cache.miss.")) / n
                               if spans_seen else count("trace_cache.misses")),
        "trace_cache.load_s": per_op("trace_cache.load"),
        "trace_cache.store_s": per_op("trace_cache.store"),
        "trace_cache.bytes": count("trace_cache.bytes"),
        "journal.flushes": count("journal.flushes"),
        "journal.flush_s": per_op("journal"),
        "supervisor.spawn_s": sup["spawn_s"] / n,
        "supervisor.queue_wait_s": sup["queue_wait_s"] / n,
        "supervisor.worker_busy_frac": sup["worker_busy_frac"],
        "supervisor.cells_per_s": sup["cells_per_s"],
        "supervisor.cell_s.p50": sup["cell_s.p50"],
        "supervisor.cell_s.tail": sup["cell_s.tail"],
        "supervisor.retries": sum(h["retries"] for h in health) / max(1, len(health)),
        "supervisor.respawns": sum(h["respawns"] for h in health) / max(1, len(health)),
        "report.render_s": per_op("report.render"),
    })
    for name, value in acct.layer_self().items():
        m[f"self_s.{name}"] = value
    m["trace.wall_s"] = acct.wall
    base = statistics.median(op_s) if op_s else 0.0
    m["trace.overhead_frac"] = statistics.median(traced_s) / base - 1.0 if base and traced_s else 0.0
    return m


def main(argv=None) -> int:
    t0 = time.perf_counter() - process_age()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("report-exact", "sweep-sampled", "sweep-warm"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="measuring time the fixed operation count is sized for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="input size (smoke: the benchmark's own tests)")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    ticks = cpu_ticks()
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    isolate(workdir)
    sys.path[:0] = [str(SRC), str(HERE)]
    try:
        result = run(args, workdir, t0)
        peak = peak_rss_mb()
    finally:
        stop_children()
        shutil.rmtree(workdir, ignore_errors=True)
    host = host_record(ticks)

    op_s = result["op_s"]
    attempted, failed = result["attempted"], result["failed"]
    correct = failed == 0 and not result["problems"]
    if args.trace:
        values = result["layers"]
    else:
        values = {
            "setup_s": result["setup_s"],
            "wall_s": statistics.median(op_s) if op_s else 0.0,
            "peak_rss_mb": peak,
            "ok_pct": 100.0 * (attempted - failed) / max(1, attempted),
        }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for problem in result["problems"]:
        print(f"FAILED: {problem}", file=sys.stderr)
    measured = sum(op_s) + sum(result["traced_s"])
    if measured > args.seconds:
        print(f"note: operations took {measured:.1f} s, more than --seconds {args.seconds:g}",
              file=sys.stderr)
    samples = ", ".join(f"{s:.3f}" for s in op_s)
    print(f"{args.workload}: {result['describe']}")
    setups = ", ".join(f"{s:.3f}" for s in result["setup_samples"])
    print(f"wall_s median over {len(op_s)} untraced operations: [{samples}]; "
          f"workload set-up samples: [{setups}]; "
          f"work per operation {json.dumps(result['work'], sort_keys=True)}")
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "host": host,
              "setup_s": result["setup_s"], "setup_samples": result["setup_samples"],
              "op_s": op_s, "traced_s": result["traced_s"], "work": result["work"]}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    print("host " + json.dumps(host, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
