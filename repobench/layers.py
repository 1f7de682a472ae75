"""Work counts and host-time accounting per layer, measured from outside
the program.

The benchmark wraps the public entry points of each ``repro`` module in
its own process (nothing under ``src/`` is instrumented).  The wrappers
always count work (the work-identity check reads these counts); they
time calls only while tracing is on.  A
stack of active layers charges every elapsed interval to exactly one
layer, so the per-layer self times sum to the traced wall time by
construction.  Sweep workers run in other processes: their time comes
from the spans the sweep tracer already ships home (``worker.execute``
per cell, ``simulate.*`` inside it) and is carved out of the
orchestrator's time spent waiting in the supervisor.  Where one worker
span covers several layers, the same cell is timed once in-process and
its layer shares split the worker span.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import statistics
import sys
import time
from collections import defaultdict

#: Layers in report order; ``unattributed`` is time outside every
#: wrapped entry point (the benchmark loop, figure glue, interpreter).
LAYERS = (
    "isa", "workloads", "emulator", "tracefile", "timing", "sampling",
    "characterization", "trace_cache", "journal", "supervisor", "report",
    "unattributed",
)

TIMING_FAMILIES = ("ideal", "pipe", "bitslice2", "bitslice4")


def timing_family(config_name: str) -> str:
    """Config family of a machine config name (``2s+...`` is slice-by-2)."""
    if config_name.startswith(("bitslice-4", "4s+")):
        return "bitslice4"
    if config_name.startswith(("bitslice-2", "2s+")):
        return "bitslice2"
    if "pipe" in config_name:
        return "pipe"
    return "ideal"


class Accountant:
    """Self time per key (``layer.detail``) plus work counts and spans.

    ``counts`` and ``sim_stats`` (every ``SimStats`` the timing model
    returned in this process) grow whether or not tracing is on;
    ``self_s`` and ``spans`` only between ``start`` and ``stop``.
    """

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.sim_stats: list = []
        self.spans: list[dict] = []
        #: perf_counter intervals charged to the supervisor layer; worker
        #: time is carved out of these.
        self.supervisor_intervals: list[tuple[float, float]] = []
        self._stack: list[tuple[str, int]] = []
        self._last = 0.0
        self.on = False
        self.wall = 0.0
        #: time.time() - perf_counter(), to place worker spans on our clock.
        self.offset = time.time() - time.perf_counter()

    def start(self) -> None:
        self._last = time.perf_counter()
        self.on = True

    def stop(self) -> None:
        now = time.perf_counter()
        self._charge(now)
        self.on = False

    def _charge(self, now: float) -> None:
        key = self._stack[-1][0] if self._stack else "unattributed"
        self.self_s[key] += now - self._last
        self.wall += now - self._last
        if key.startswith("supervisor"):
            self.supervisor_intervals.append((self._last, now))
        self._last = now

    def enter(self, key: str, span: bool = True) -> None:
        now = time.perf_counter()
        self._charge(now)
        idx = -1
        if span:
            parent = self._stack[-1][1] if self._stack else -1
            idx = len(self.spans)
            self.spans.append({"name": key, "start": now, "end": None, "parent": parent})
        self._stack.append((key, idx))

    def exit(self) -> None:
        now = time.perf_counter()
        self._charge(now)
        _key, idx = self._stack.pop()
        if idx >= 0:
            self.spans[idx]["end"] = now

    def layer_self(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for key, value in self.self_s.items():
            out[key.split(".", 1)[0]] += value
        return out

    def key_total(self, prefix: str) -> float:
        return sum(v for k, v in self.self_s.items() if k == prefix or k.startswith(prefix + "."))


# ------------------------------------------------------------------ wrappers

def _call_wrapper(acct: Accountant, key, fn, after=None):
    """Wrap *fn*: let *after* count work from the result and, while
    tracing, charge its self time to *key* (a string or a callable of the
    call's arguments)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if acct.on:
            acct.enter(key(*args, **kwargs) if callable(key) else key)
            try:
                result = fn(*args, **kwargs)
            finally:
                acct.exit()
        else:
            result = fn(*args, **kwargs)
        if after is not None:
            after(acct, args, kwargs, result)
        return result

    return wrapper


def _trace_wrapper(acct: Accountant, fn):
    """Wrap ``Machine.trace``: count the instructions it retired (one
    record each) and, while tracing, charge each resume to the emulator."""

    def resumes(gen):
        while True:
            acct.enter("emulator.trace", span=False)
            try:
                record = next(gen)
            except StopIteration:
                return
            finally:
                acct.exit()
            yield record

    @functools.wraps(fn)
    def wrapper(machine, *args, **kwargs):
        start = machine.instret
        gen = fn(machine, *args, **kwargs)
        try:
            yield from resumes(gen) if acct.on else gen
        finally:
            acct.counts["emulator.trace_rec"] += machine.instret - start

    return wrapper


class Patches:
    """Replace attributes (and every module-level alias of a function)."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def attr(self, owner, name: str, new) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def everywhere(self, orig, new) -> None:
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for name, value in list(vars(mod).items()):
                if value is orig:
                    self.attr(mod, name, new)

    def undo(self) -> None:
        while self._undo:
            owner, name, old = self._undo.pop()
            setattr(owner, name, old)


def _count(key: str, value_of):
    def after(acct, args, kwargs, result):
        acct.counts[key] += value_of(args, kwargs, result)
    return after


def _sized(obj) -> int:
    return len(obj) if hasattr(obj, "__len__") else 0


def _file_size(path) -> int:
    try:
        return path.stat().st_size
    except (OSError, AttributeError):
        return 0


def guest_instructions(counts) -> float:
    """Guest instructions retired through ``Machine.run``/``run_warm``/``trace``."""
    return sum(counts.get(k, 0) for k in ("emulator.ff_inst", "emulator.warm_inst", "emulator.trace_rec"))


def install(acct: Accountant) -> Patches:
    """Wrap the public entry point of every layer; returns the undo log.

    Call it after the workload has imported the modules it uses, so that
    module-level aliases of the wrapped functions are replaced too.
    """
    import repro.characterization as char_pkg
    from repro.emulator import tracefile
    from repro.emulator.machine import Machine
    from repro.experiments import report, supervisor, trace_cache
    from repro.experiments.journal import SweepJournal
    from repro.timing import sampling
    from repro.timing.simulator import TimingSimulator
    from repro.workloads import suite

    p = Patches()
    p.attr(suite, "assemble", _call_wrapper(
        acct, "isa.assemble", suite.assemble, _count("isa.programs", lambda a, k, r: 1)))
    calib = suite._iter_costs_cached
    seen = {"misses": calib.cache_info().misses}

    def calibrate_after(acct, args, kwargs, result):
        misses = calib.cache_info().misses
        acct.counts["workloads.calibrated"] += max(0, misses - seen["misses"])
        seen["misses"] = misses

    wrapped_calib = _call_wrapper(acct, "workloads.calibrate", calib, calibrate_after)

    def cache_clear():
        calib.cache_clear()
        seen["misses"] = 0

    wrapped_calib.cache_clear = cache_clear
    wrapped_calib.cache_info = calib.cache_info
    p.attr(suite, "_iter_costs_cached", wrapped_calib)

    p.attr(Machine, "run", _call_wrapper(
        acct, "emulator.ff", Machine.run, _count("emulator.ff_inst", lambda a, k, r: r)))
    p.attr(Machine, "run_warm", _call_wrapper(
        acct, "emulator.warm", Machine.run_warm, _count("emulator.warm_inst", lambda a, k, r: r)))
    p.attr(Machine, "trace", _trace_wrapper(acct, Machine.trace))

    p.attr(tracefile, "pack_trace", _call_wrapper(
        acct, "tracefile.pack", tracefile.pack_trace,
        _count("tracefile.pack_rec", lambda a, k, r: _sized(a[0]))))
    p.attr(tracefile, "unpack_trace", _call_wrapper(
        acct, "tracefile.unpack", tracefile.unpack_trace,
        _count("tracefile.unpack_rec", lambda a, k, r: _sized(r))))

    def sim_key(self, *args, **kwargs):
        return "timing." + timing_family(self.config.name)

    def sim_after(acct, args, kwargs, stats):
        fam = timing_family(args[0].config.name)
        warmup = kwargs.get("warmup", args[3] if len(args) > 3 else 0)
        acct.counts["timing.inst." + fam] += stats.instructions + (warmup or 0)
        acct.counts["timing.runs"] += 1
        acct.counts["timing.measured_inst"] += stats.instructions
        acct.sim_stats.append(stats)

    p.attr(TimingSimulator, "run", _call_wrapper(acct, sim_key, TimingSimulator.run, sim_after))

    def sample_after(acct, args, kwargs, result):
        acct.counts["sampling.windows"] += len(result.windows)
        acct.counts["sampling.measured"] += result.measured
        acct.counts["sampling.horizon"] += kwargs.get("budget", 0)

    p.everywhere(sampling.sample_benchmark, _call_wrapper(
        acct, "sampling.cell", sampling.sample_benchmark, sample_after))
    p.attr(sampling, "bootstrap_cis", _call_wrapper(
        acct, "sampling.bootstrap", sampling.bootstrap_cis))

    for info in pkgutil.iter_modules(char_pkg.__path__):
        mod = importlib.import_module(f"repro.characterization.{info.name}")
        for name, fn in list(vars(mod).items()):
            if name.startswith("characterize_") and callable(fn) and fn.__module__ == mod.__name__:
                p.everywhere(fn, _call_wrapper(
                    acct, "characterization." + name, fn,
                    _count("characterization.rec", lambda a, k, r: _sized(a[0]) if a else 0)))

    def load_after(acct, args, kwargs, result):
        if result is None:
            acct.counts["trace_cache.misses"] += 1
        else:
            acct.counts["trace_cache.hits"] += 1
            acct.counts["trace_cache.bytes"] += _file_size(trace_cache.entry_path(*args[:2]))

    p.attr(trace_cache, "load", _call_wrapper(acct, "trace_cache.load", trace_cache.load, load_after))
    p.attr(trace_cache, "store", _call_wrapper(
        acct, "trace_cache.store", trace_cache.store,
        _count("trace_cache.bytes", lambda a, k, r: _file_size(r))))

    p.attr(SweepJournal, "flush", _call_wrapper(
        acct, "journal.flush", SweepJournal.flush, _count("journal.flushes", lambda a, k, r: 1)))
    p.attr(SweepJournal, "store_result", _call_wrapper(
        acct, "journal.store", SweepJournal.store_result))
    p.everywhere(supervisor.run_sweep, _call_wrapper(acct, "supervisor.sweep", supervisor.run_sweep))
    p.attr(supervisor.SupervisedPool, "run", _call_wrapper(
        acct, "supervisor.pool", supervisor.SupervisedPool.run))

    p.everywhere(report.run_fidelity, _call_wrapper(acct, "report.run", report.run_fidelity))
    for name in ("render_markdown", "render_html"):
        p.attr(report.FidelityReport, name, _call_wrapper(
            acct, "report.render", getattr(report.FidelityReport, name)))
    return p


# ----------------------------------------------------- worker-side attribution

def _overlap(intervals, lo: float, hi: float) -> float:
    return sum(max(0.0, min(b, hi) - max(a, lo)) for a, b in intervals)


def attribute_workers(acct: Accountant, spans, split: dict[str, dict[str, float]]) -> None:
    """Move worker time out of the orchestrator's supervisor self time.

    *spans* are the sweep tracer's spans (orchestrator and worker);
    *split* maps a cell label to the per-key self times of that cell's
    public calls in-process.  Each ``worker.execute`` span's overlap
    with the orchestrator's supervisor self time is reassigned: its
    ``simulate.*`` children go straight to timing; the rest of the
    span is split by the in-process cell's layer shares; the supervisor
    keeps what is left.
    """
    moved: dict[str, float] = defaultdict(float)
    children = defaultdict(list)
    for s in spans:
        if s.parent_id is not None:
            children[s.parent_id].append(s)
    for s in spans:
        if s.category != "worker.execute" or s.end is None:
            continue
        lo, hi = s.start - acct.offset, s.end - acct.offset
        share = _overlap(acct.supervisor_intervals, lo, hi)
        dur = s.end - s.start
        if share <= 0.0 or dur <= 0.0:
            continue
        scale = share / dur
        sim = sum(c.duration or 0.0 for c in children[s.span_id] if c.name.startswith("simulate."))
        keys = dict(split.get(s.name, {}))
        if sim > 0.0:
            moved["timing." + timing_family(s.name.split("/", 1)[-1])] += sim * scale
            keys = {k: v for k, v in keys.items() if not k.startswith("timing.")}
        rest = (dur - sim) * scale
        total = sum(keys.values())
        if total <= 0.0:
            moved["unattributed.worker"] += rest
            continue
        for key, value in keys.items():
            moved[key] += rest * value / total
    for key, value in moved.items():
        acct.self_s[key] += value
    acct.self_s["supervisor.pool"] -= sum(moved.values())


def percentile_tail(values: list[float]) -> float:
    """Highest order statistic with at least ten samples beyond it
    (the maximum when there are fewer than eleven samples)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[len(ordered) - 11] if len(ordered) >= 11 else ordered[-1]


def supervisor_metrics(spans) -> dict:
    """Pool-side figures from one or more sweeps' orchestrator spans."""
    sweeps = [s for s in spans if s.name == "sweep.run" and s.end is not None]
    execs = [s for s in spans if s.category == "worker.execute" and s.end is not None]
    cells = [s for s in spans if s.category == "cell" and s.end is not None and not s.args.get("resume")]
    spawns = sorted(s.start for s in spans if s.name == "worker.spawn")
    exec_starts = sorted(s.start for s in execs)
    spawn_s = 0.0
    for t in spawns:
        later = [e for e in exec_starts if e >= t]
        if later:
            spawn_s += later[0] - t
    cell_start = {s.name: s.start for s in cells}
    queue = sum(max(0.0, e.start - cell_start[e.name]) for e in execs if e.name in cell_start)
    sweep_wall = sum(s.end - s.start for s in sweeps)
    busy = sum(e.end - e.start for e in execs)
    durations = [c.end - c.start for c in cells]
    return {
        "spawn_s": spawn_s,
        "queue_wait_s": queue,
        "worker_busy_frac": busy / sweep_wall if sweep_wall else 0.0,
        "cells_per_s": len(cells) / sweep_wall if sweep_wall else 0.0,
        "cell_s.p50": statistics.median(durations) if durations else 0.0,
        "cell_s.tail": percentile_tail(durations),
    }


def write_spans(path, acct: Accountant, repro_spans) -> None:
    """Spans kept in memory during the run, written once at the end."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for s in acct.spans:
            # Same clock as the sweep tracer's spans: unix seconds.
            span = dict(s, start=s["start"] + acct.offset,
                        end=None if s["end"] is None else s["end"] + acct.offset)
            fh.write(json.dumps({"source": "benchmark", **span}, sort_keys=True) + "\n")
        for s in repro_spans:
            fh.write(json.dumps({"source": "sweep-tracer", **s.to_dict()}, sort_keys=True) + "\n")
