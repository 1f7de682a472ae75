"""Guest profiler: per-PC counts, per-line CPI stacks, merge semantics.

The acceptance contract of the profiling PR, as tests:

* per-PC retired counts are identical across all three emulator
  dispatch tiers (reference / fast / blocks) and sum exactly to the
  run's total retirements;
* per-line cycle stacks sum exactly to the timing run's total cycles,
  identically under both timing modes;
* disabled profiling leaves simulation results byte-identical;
* profiles validate, round-trip through JSON, and merge commutatively
  (the ``--jobs`` transport);
* ``repro-profile`` renders hot-line tables, annotated disassembly,
  and collapsed-stack flamegraphs from both live runs and saved files.
"""

from __future__ import annotations

import json

import pytest

from repro.emulator.machine import Machine
from repro.isa.assembler import assemble
from repro.obs.attribution import COMPONENT_KEYS
from repro.obs.guestprof import (
    GuestProfileCollector,
    SHORTFALL_PC,
    active_collector,
    end_guest_profile,
    load_profile,
    profile_from_records,
    start_guest_profile,
    suspended_guest_profile,
    validate_profile,
    write_profile,
)

#: A loop with a call, a taken/not-taken branch mix, and memory traffic
#: — shaped so the blocks tier compiles superblocks with side exits.
LOOP_SOURCE = """
main:
 addiu $s0, $zero, 0
 addiu $s1, $zero, 400
 addiu $s2, $sp, -64
loop:
 addiu $s0, $s0, 1
 jal helper
 andi $t1, $s0, 3
 beq $t1, $zero, skip
 sw $s0, 0($s2)
 lw $t2, 0($s2)
skip:
 bne $s0, $s1, loop
 addiu $s0, $zero, 0
 beq $zero, $zero, loop
helper:
 andi $t0, $s0, 7
 addu $t0, $t0, $s0
 jr $ra
"""

STEPS = 3_000


def _run_counts(dispatch: str, steps: int = STEPS):
    """Retired counts from one machine run on *dispatch*."""
    machine = Machine(assemble(LOOP_SOURCE), dispatch=dispatch)
    collector = start_guest_profile()
    try:
        machine.run(steps)
    finally:
        end_guest_profile()
    prof = collector.benchmarks["?"]
    return prof


@pytest.mark.parametrize("dispatch", ["reference", "fast", "blocks"])
def test_counts_sum_to_retired(dispatch):
    prof = _run_counts(dispatch)
    assert prof.retired == STEPS
    assert sum(prof.counts.values()) == STEPS


def test_counts_identical_across_tiers():
    reference = _run_counts("reference")
    fast = _run_counts("fast")
    blocks = _run_counts("blocks")
    assert fast.counts == reference.counts
    assert blocks.counts == reference.counts


def test_cold_counts_match_record_replay():
    """Machine-loop counting ≡ replaying cached records (cache-hit path)."""
    records = tuple(Machine(assemble(LOOP_SOURCE)).trace(STEPS))
    cold = _run_counts("fast")
    replay = GuestProfileCollector()
    profile_from_records(records, replay)
    assert replay.benchmarks["?"].counts == cold.counts
    assert replay.benchmarks["?"].retired == cold.retired


@pytest.mark.parametrize("period", [5, 64])
@pytest.mark.parametrize("dispatch", ["reference", "fast", "blocks"])
def test_sample_mode_counts_samples(dispatch, period):
    def sample(collect):
        collector = start_guest_profile(mode="sample", period=period)
        try:
            collect(Machine(assemble(LOOP_SOURCE), dispatch=dispatch))
        finally:
            end_guest_profile()
        return collector.benchmarks["?"]

    prof = sample(lambda machine: machine.run(STEPS))
    assert prof.retired == STEPS
    assert prof.sampled == STEPS // period
    assert sum(prof.counts.values()) == prof.sampled
    # Every tier samples the exact retiring PC, so a profiled trace
    # collection and the cache-hit replay path land on the same PCs.
    traced = sample(lambda machine: tuple(machine.trace(STEPS)))
    assert traced.counts == prof.counts
    replay = GuestProfileCollector(mode="sample", period=period)
    records = tuple(Machine(assemble(LOOP_SOURCE)).trace(STEPS))
    profile_from_records(records, replay)
    assert replay.benchmarks["?"].counts == prof.counts


def _simulate_with_profile(loop: str):
    """Profile one run on the golden ``reference`` loop or the ``fast`` path."""
    from repro.core.config import bitslice_config
    from repro.timing.simulator import TimingSimulator

    records = tuple(Machine(assemble(LOOP_SOURCE)).trace(STEPS))
    collector = start_guest_profile()
    sim = TimingSimulator(bitslice_config(4))
    run = sim.run_reference if loop == "reference" else sim.run
    try:
        stats = run(iter(records), warmup=500)
    finally:
        end_guest_profile()
    return stats, collector.benchmarks["?"]


@pytest.mark.parametrize("loop", ["reference", "fast"])
def test_cycle_stacks_sum_to_total_cycles(loop):
    stats, prof = _simulate_with_profile(loop)
    assert prof.cycles_total == stats.cycles
    assert sum(sum(parts) for parts in prof.cycles.values()) == stats.cycles
    assert all(len(parts) == len(COMPONENT_KEYS) for parts in prof.cycles.values())


def test_cycle_stacks_identical_reference_vs_fast():
    _, ref = _simulate_with_profile("reference")
    _, fast = _simulate_with_profile("fast")
    assert fast.cycles == ref.cycles


def test_disabled_profiler_leaves_results_identical():
    from repro.core.config import baseline_config
    from repro.timing.simulator import simulate

    records = tuple(Machine(assemble(LOOP_SOURCE)).trace(STEPS))
    plain = simulate(baseline_config(), iter(records), warmup=500)
    start_guest_profile()
    try:
        profiled = simulate(baseline_config(), iter(records), warmup=500)
    finally:
        end_guest_profile()
    assert active_collector() is None
    assert profiled.to_dict() == plain.to_dict()


def test_profile_roundtrip_and_validation(tmp_path):
    machine = Machine(assemble(LOOP_SOURCE))
    collector = start_guest_profile()
    try:
        collector.begin_benchmark("loopy")
        machine.run(STEPS)
    finally:
        end_guest_profile()
    path = tmp_path / "profile.json"
    write_profile(path, collector)
    assert validate_profile(json.loads(path.read_text())) == []
    loaded = load_profile(path)
    assert loaded.benchmarks["loopy"].counts == collector.benchmarks["loopy"].counts

    # The validator enforces the exact-sum invariants.
    broken = collector.to_dict()
    broken["benchmarks"]["loopy"]["retired"] += 1
    assert any("counts sum" in p for p in validate_profile(broken))
    broken = collector.to_dict()
    broken["benchmarks"]["loopy"]["cycles"][str(SHORTFALL_PC)] = [1] * len(COMPONENT_KEYS)
    assert any("cycle stacks sum" in p for p in validate_profile(broken))


def test_merge_is_commutative_and_drain_resets():
    a = GuestProfileCollector()
    a.begin_benchmark("x")
    a.add_counts({4: 2, 8: 1}, retired=3)
    a.add_cycles({4: [1] * len(COMPONENT_KEYS)}, total_cycles=len(COMPONENT_KEYS))
    b = GuestProfileCollector()
    b.begin_benchmark("x")
    b.add_counts({8: 5, 12: 1}, retired=6)
    b.begin_benchmark("y")
    b.add_counts({4: 1}, retired=1)

    ab = GuestProfileCollector()
    ab.ingest(a.to_dict())
    ab.ingest(b.to_dict())
    ba = GuestProfileCollector()
    ba.ingest(b.to_dict())
    ba.ingest(a.to_dict())
    assert ab.to_dict() == ba.to_dict()
    assert ab.benchmarks["x"].counts == {4: 2, 8: 6, 12: 1}

    payload = a.drain()
    assert payload["benchmarks"]  # the drained snapshot kept the data
    assert a.benchmarks == {}     # ...and the collector reset
    assert a.drain()["benchmarks"] == {}


def test_suspension_excludes_bookkeeping_runs():
    collector = start_guest_profile()
    try:
        with suspended_guest_profile():
            assert active_collector() is None
            Machine(assemble(LOOP_SOURCE)).run(1_000)
        assert active_collector() is collector
    finally:
        end_guest_profile()
    assert collector.benchmarks == {}


def test_worker_state_round_trips_guest_profile():
    from repro.experiments.supervisor import apply_worker_state, current_worker_state

    start_guest_profile(mode="sample", period=32)
    try:
        state = current_worker_state()
    finally:
        end_guest_profile()
    assert state[-1] == ("sample", 32)
    apply_worker_state(*state)
    try:
        worker_side = active_collector()
        assert worker_side is not None
        assert (worker_side.mode, worker_side.period) == ("sample", 32)
    finally:
        end_guest_profile()


# ------------------------------------------------------------ repro-profile

def _collect_synthetic(tmp_path):
    """A saved profile for a benchmark name with no known program."""
    collector = GuestProfileCollector()
    collector.begin_benchmark("synthetic")
    collector.add_counts({4194304: 7, 4194308: 3}, retired=10)
    collector.add_cycles(
        {4194304: [2] * len(COMPONENT_KEYS)}, total_cycles=2 * len(COMPONENT_KEYS)
    )
    path = tmp_path / "synthetic.json"
    write_profile(path, collector)
    return path


def test_profile_cli_reports_saved_profile(tmp_path, capsys):
    from repro.experiments.profile_cli import main

    path = _collect_synthetic(tmp_path)
    flame = tmp_path / "out.folded"
    assert main(["--in", str(path), "--flamegraph", str(flame)]) == 0
    out = capsys.readouterr().out
    assert "=== synthetic ===" in out
    assert "retired 10" in out
    assert "hot lines" in out
    stacks = flame.read_text().splitlines()
    assert stacks == ["synthetic;? 10"]


def test_profile_cli_live_run_annotates_and_saves(tmp_path, capsys):
    from repro.experiments.profile_cli import main

    saved = tmp_path / "li.json"
    flame = tmp_path / "li.folded"
    rc = main(
        [
            "-b", "li", "-n", "2000", "--warmup", "200",
            "--config", "bitslice4", "--annotate", "--annotate-min", "50",
            "--out", str(saved), "--flamegraph", str(flame),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "=== li ===" in out
    assert "hot functions" in out
    assert "CPI" in out
    assert "---" in out  # at least one annotated function listing
    assert validate_profile(json.loads(saved.read_text())) == []
    for line in flame.read_text().splitlines():
        stack, count = line.rsplit(" ", 1)
        assert stack.startswith("li;")
        assert int(count) > 0


def test_profile_cli_rejects_unknown_benchmark(capsys):
    from repro.experiments.profile_cli import main

    assert main(["-b", "nope"]) == 2
    assert "unknown benchmark" in capsys.readouterr().err
