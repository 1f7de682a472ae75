"""Block-compiled execution tier: discovery, codegen, parity, faults.

The blocks tier (:mod:`repro.emulator.blocks`) must be architecturally
invisible: byte-identical traces, identical final state, identical
fault behaviour versus both the pre-bound fast path and the golden
reference interpreter.  These tests exercise the machinery the
differential properties cannot see directly — profiling countdowns,
superblock side exits, memory batching, replay-on-fault, the
per-program code cache, and the process-global stats.
"""

from __future__ import annotations

import gc

import pytest

from repro.emulator import blocks
from repro.emulator.blocks import (
    DEFAULT_THRESHOLD,
    THRESHOLD_ENV,
    cross_check_blocks,
    default_block_threshold,
)
from repro.emulator.machine import (
    DISPATCH_ENV,
    Machine,
    default_dispatch,
    dispatch_mode_override,
    set_dispatch_mode,
)
from repro.emulator.memory import AlignmentError
from repro.experiments import supervisor
from repro.isa.assembler import assemble
from repro.workloads import get_workload

LOOP = """
main:   li   $t0, 20
        li   $t1, 0
loop:   addu $t1, $t1, $t0
        addiu $t0, $t0, -1
        bgtz $t0, loop
        halt
"""


# ------------------------------------------------------------------ parity

@pytest.mark.parametrize("name", ["li", "vortex"])
def test_benchmark_slice_blocks_lockstep(name):
    """Record-by-record lockstep vs the golden reference."""
    program = get_workload(name).build(iters=1)
    assert cross_check_blocks(program, max_steps=5_000) == 5_000


def test_three_way_trace_streams_identical():
    """reference x fast x blocks produce byte-identical traces."""
    program = get_workload("li").build(iters=1)
    ref = Machine(program, dispatch="reference")
    fast = Machine(program, dispatch="fast")
    blk = Machine(program, dispatch="blocks", block_threshold=0)
    r_ref = list(ref.trace(4_000))
    r_fast = list(fast.trace(4_000))
    r_blk = list(blk.trace(4_000))
    assert r_ref == r_fast == r_blk
    assert ref.regs == fast.regs == blk.regs
    assert ref.pc == fast.pc == blk.pc
    assert ref.instret == fast.instret == blk.instret


def test_blocks_run_and_trace_agree_on_retired_count():
    """run() (chain loop) and trace() retire identically, mid-block cap."""
    program = get_workload("li").build(iters=1)
    runner = Machine(program, dispatch="blocks", block_threshold=0)
    tracer = Machine(program, dispatch="blocks", block_threshold=0)
    retired = runner.run(3_000)
    records = list(tracer.trace(3_000))
    assert retired == len(records) == 3_000
    assert runner.pc == tracer.pc
    assert runner.regs == tracer.regs
    assert runner.instret == tracer.instret


def test_max_steps_exact_when_budget_lands_mid_block():
    """A step budget smaller than the hot block retires per-instruction."""
    program = assemble(LOOP)
    for budget in (1, 2, 5, 7):
        m = Machine(program, dispatch="blocks", block_threshold=0)
        ref = Machine(program, dispatch="reference")
        assert m.run(budget) == ref.run(budget) == budget
        assert m.regs == ref.regs and m.pc == ref.pc


def test_run_to_halt_matches_reference():
    program = assemble(LOOP)
    m = Machine(program, dispatch="blocks", block_threshold=0)
    ref = Machine(program, dispatch="reference")
    m.run()
    ref.run()
    assert m.halted and ref.halted
    assert m.regs == ref.regs and m.instret == ref.instret


# ------------------------------------------------------- superblocks, batching

def test_tight_loop_compiles_as_superblock():
    blocks.reset_stats()
    m = Machine(assemble(LOOP), dispatch="blocks", block_threshold=0)
    m.run()
    stats = blocks.stats()
    assert stats["blocks_compiled"] >= 1
    assert stats["superblocks"] >= 1  # the backward bgtz unrolled
    assert stats["block_insts"] > 0
    assert stats["replays"] == 0


def test_contiguous_memory_runs_are_batched_and_identical():
    """>= BATCH_MIN adjacent lw/sw go through the vectorized helpers."""
    source = """
main:   addiu $t0, $sp, -64
        li   $t1, 11
        li   $t2, 22
        li   $t3, 33
        li   $t4, 44
        sw   $t1, 0($t0)
        sw   $t2, 4($t0)
        sw   $t3, 8($t0)
        sw   $t4, 12($t0)
        lw   $t5, 0($t0)
        lw   $t6, 4($t0)
        lw   $t7, 8($t0)
        lw   $t8, 12($t0)
        halt
"""
    program = assemble(source)
    assert cross_check_blocks(program, max_steps=1_000) > 10
    m = Machine(program, dispatch="blocks", block_threshold=0)
    m.run()
    assert [m.regs[13], m.regs[14], m.regs[15], m.regs[24]] == [11, 22, 33, 44]


def test_syscall_splits_blocks_and_stays_in_lockstep():
    source = """
main:   li   $t0, 3
loop:   move $a0, $t0
        li   $v0, 1
        syscall
        addiu $t0, $t0, -1
        bgtz $t0, loop
        halt
"""
    program = assemble(source)
    cross_check_blocks(program, max_steps=1_000)
    m = Machine(program, dispatch="blocks", block_threshold=0)
    ref = Machine(program, dispatch="reference")
    m.run()
    ref.run()
    assert m.output == ref.output and m.regs == ref.regs


# ------------------------------------------------------------------- faults

def test_misaligned_load_mid_block_replays_to_reference_state():
    """A fault inside a compiled body reproduces reference semantics."""
    source = """
main:   li   $t0, 3
        li   $t1, 7
        addu $t2, $t0, $t1
        lw   $t3, 0($t0)
        addu $t4, $t2, $t1
        halt
"""
    program = assemble(source)
    blocks.reset_stats()
    m = Machine(program, dispatch="blocks", block_threshold=0)
    ref = Machine(program, dispatch="reference")
    with pytest.raises(AlignmentError) as got:
        m.run()
    with pytest.raises(AlignmentError) as want:
        ref.run()
    assert str(got.value) == str(want.value)
    # Replay left the machine exactly where the reference faulted.
    assert m.regs == ref.regs
    assert m.pc == ref.pc
    assert m.instret == ref.instret
    assert blocks.stats()["replays"] == 1


def test_misaligned_store_mid_block_replays_to_reference_state():
    source = """
main:   li   $t0, 2
        li   $t1, 7
        addu $t2, $t0, $t1
        sw   $t1, 0($t0)
        halt
"""
    program = assemble(source)
    m = Machine(program, dispatch="blocks", block_threshold=0)
    ref = Machine(program, dispatch="reference")
    with pytest.raises(AlignmentError):
        m.run()
    with pytest.raises(AlignmentError):
        ref.run()
    assert m.regs == ref.regs and m.pc == ref.pc and m.instret == ref.instret


# ------------------------------------------------------- profiling threshold

def test_threshold_gates_compilation():
    program = assemble(LOOP)
    # Threshold far above the loop count: nothing ever compiles.
    blocks.reset_stats()
    m = Machine(program, dispatch="blocks", block_threshold=1000)
    m.run()
    cold = blocks.stats()
    assert cold["blocks_compiled"] == 0
    assert cold["block_insts"] == 0
    assert cold["fallback_insts"] == m.instret
    # Threshold 0: compiles on first entry.
    blocks.reset_stats()
    m = Machine(assemble(LOOP), dispatch="blocks", block_threshold=0)
    m.run()
    hot = blocks.stats()
    assert hot["blocks_compiled"] >= 1
    assert hot["block_insts"] > 0


def test_threshold_env_knob(monkeypatch):
    monkeypatch.setenv(THRESHOLD_ENV, "17")
    assert default_block_threshold() == 17
    monkeypatch.setenv(THRESHOLD_ENV, "-5")
    assert default_block_threshold() == 0
    monkeypatch.setenv(THRESHOLD_ENV, "junk")
    assert default_block_threshold() == DEFAULT_THRESHOLD
    monkeypatch.delenv(THRESHOLD_ENV)
    assert default_block_threshold() == DEFAULT_THRESHOLD


# ------------------------------------------------------------- code cache

def test_code_objects_are_shared_across_machines_and_die_with_program():
    program = assemble(LOOP)
    m1 = Machine(program, dispatch="blocks", block_threshold=0)
    m1.run()
    key = id(program)
    assert blocks._CODE_CACHE.get(key), "first machine populated the cache"
    cached = set(blocks._CODE_CACHE[key])
    m2 = Machine(program, dispatch="blocks", block_threshold=0)
    m2.run()
    assert set(blocks._CODE_CACHE[key]) >= cached  # reused, not rebuilt
    assert m1.regs == m2.regs and m1.instret == m2.instret
    del m1, m2
    del program
    gc.collect()
    assert key not in blocks._CODE_CACHE  # finalizer dropped the entry


# ---------------------------------------------------------------- stats

def test_stats_reset_and_accumulate():
    blocks.reset_stats()
    zero = blocks.stats()
    assert zero["blocks_compiled"] == 0 and zero["block_insts"] == 0
    m = Machine(assemble(LOOP), dispatch="blocks", block_threshold=0)
    m.run()
    after = blocks.stats()
    assert after["block_execs"] > 0
    assert after["block_insts"] + after["fallback_insts"] == m.instret
    blocks.reset_stats()
    assert blocks.stats() == zero


# ------------------------------------------------------- mode plumbing

def test_dispatch_env_and_override(monkeypatch):
    monkeypatch.setenv(DISPATCH_ENV, "blocks")
    assert default_dispatch() == "blocks"
    machine = Machine(assemble("main: nop\n halt\n"))
    assert machine.dispatch == "blocks" and machine._engine is not None
    # Aliases canonicalise; the override beats the environment.
    monkeypatch.setenv(DISPATCH_ENV, "compiled")
    assert default_dispatch() == "blocks"
    set_dispatch_mode("reference")
    assert default_dispatch() == "reference"
    set_dispatch_mode(None)
    assert default_dispatch() == "blocks"


def test_blocks_is_the_default_dispatch(monkeypatch):
    monkeypatch.delenv(DISPATCH_ENV, raising=False)
    assert dispatch_mode_override() is None
    assert default_dispatch() == "blocks"
    machine = Machine(assemble("main: nop\n halt\n"))
    assert machine.dispatch == "blocks" and machine._engine is not None


def test_empty_dispatch_means_the_default(monkeypatch):
    monkeypatch.setenv(DISPATCH_ENV, "")
    assert default_dispatch() == "blocks"
    monkeypatch.setenv(DISPATCH_ENV, "  ")
    assert default_dispatch() == "blocks"
    assert Machine(assemble("main: halt\n"), dispatch="").dispatch == "blocks"


def test_unknown_dispatch_raises(monkeypatch):
    """A misspelt tier fails loudly instead of picking a slower one."""
    monkeypatch.setenv(DISPATCH_ENV, "blokcs")
    with pytest.raises(ValueError, match="blokcs") as excinfo:
        default_dispatch()
    for accepted in ("blocks", "fast", "reference"):
        assert accepted in str(excinfo.value)
    monkeypatch.delenv(DISPATCH_ENV)
    with pytest.raises(ValueError):
        set_dispatch_mode("fastest")
    assert dispatch_mode_override() is None
    with pytest.raises(ValueError):
        Machine(assemble("main: halt\n"), dispatch="prebound")


def test_worker_state_carries_dispatch_override():
    """Sweep workers must re-apply the parent's dispatch override."""
    set_dispatch_mode("blocks")
    state = supervisor.current_worker_state()
    set_dispatch_mode(None)
    supervisor.apply_worker_state(*state)
    assert dispatch_mode_override() == "blocks"
    # No override in the parent: the worker leaves its default alone.
    set_dispatch_mode(None)
    state = supervisor.current_worker_state()
    supervisor.apply_worker_state(*state)
    assert dispatch_mode_override() is None
