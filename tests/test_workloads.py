"""Workload suite: determinism, self-checks, and instruction-mix sanity."""

import pytest

from repro.emulator.machine import Machine
from repro.isa.opclass import OpClass, op_class
from repro.workloads import BENCHMARK_NAMES, build_program, get_workload, iter_workloads


def test_all_eleven_benchmarks_present():
    assert len(BENCHMARK_NAMES) == 11
    assert set(BENCHMARK_NAMES) == {
        "bzip", "gcc", "go", "gzip", "ijpeg", "li",
        "mcf", "parser", "twolf", "vortex", "vpr",
    }


def test_unknown_workload_rejected():
    with pytest.raises(KeyError):
        get_workload("crafty")


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_workload_runs_to_completion(name):
    machine = get_workload(name).run(iters=1)
    assert machine.halted
    assert machine.stdout.startswith(f"{name}:")


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_workload_deterministic(name):
    a = get_workload(name).run(iters=1).stdout
    b = get_workload(name).run(iters=1).stdout
    assert a == b


def test_iterations_change_behaviour():
    one = get_workload("bzip").run(iters=1)
    two = get_workload("bzip").run(iters=2)
    assert two.instret > one.instret


def test_build_program_cached():
    assert build_program("li", 1) is build_program("li", 1)


def test_iter_workloads_order():
    assert [w.name for w in iter_workloads()] == list(BENCHMARK_NAMES)


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_instruction_mix_is_plausible(name):
    """Every workload must exercise loads, stores and branches in
    realistic proportions (Table 1 loads are ~20-35%; we accept a
    looser band for the synthetic kernels)."""
    machine = Machine(get_workload(name).build(iters=1))
    loads = stores = control = total = 0
    for record in machine.trace(30_000):
        total += 1
        if record.is_load:
            loads += 1
        elif record.is_store:
            stores += 1
        elif record.inst.is_control:
            control += 1
    assert total > 1000
    assert loads / total > 0.01, "workload exercises loads"
    assert stores / total > 0.005, "workload exercises stores"
    assert control / total > 0.04, "workload exercises control flow"


def test_li_contains_figure5_idiom():
    """The li kernel embeds the exact lbu/andi/bne sequence of Figure 5."""
    source = get_workload("li").source()
    assert "lbu" in source and "andi" in source
    idx = source.index("mark_walk")
    window = source[idx : idx + 400]
    assert "lbu" in window and "andi" in window and "bne" in window


def test_vortex_contains_figure9_idiom():
    """vortex forms record addresses via sll/(lui)/addu then lw."""
    source = get_workload("vortex").source()
    idx = source.index("txn:")
    window = source[idx : idx + 400]
    assert "sll" in window and "addu" in window and "lw" in window


def test_workloads_touch_multdiv_somewhere():
    """At least one workload exercises the FULL op class (ijpeg)."""
    machine = Machine(get_workload("ijpeg").build(iters=1))
    classes = set()
    for record in machine.trace(400_000):
        classes.add(op_class(record.inst.mnemonic))
        if OpClass.FULL in classes:
            break
    assert OpClass.FULL in classes


def test_skip_hint_reasonable():
    w = get_workload("vpr")
    assert 0 <= w.skip_hint < 10_000  # vpr re-initializes per route: no one-time init


def test_trace_helper_skips(monkeypatch):
    w = get_workload("go")
    records = list(w.trace(max_steps=100, skip=50))
    assert len(records) == 100


def test_exact_trace_outlives_default_iterations():
    """``iters=None`` resolves to enough iterations for the budget: at its
    default count ijpeg halts after ~82k post-skip instructions."""
    from repro.experiments.runner import collect_trace
    from repro.workloads.suite import resolve_iters

    w = get_workload("ijpeg")
    assert resolve_iters("ijpeg", 40_000) == w.default_iters
    assert resolve_iters("ijpeg", 100_000) > w.default_iters
    assert resolve_iters("ijpeg", 100_000, iters=2) == 2
    assert len(collect_trace("ijpeg", 100_000)) == 100_000
