"""Parallel layer: worker fan-out, state inheritance, grid parity."""

from __future__ import annotations

import pytest

from repro.core.config import baseline_config, simple_pipeline_config
from repro.experiments import parallel, runner, trace_cache
from repro.experiments.supervisor import run_sweep
from repro.harness.faults import ProcessFaultPlan
from repro.timing.simulator import simulate
from repro.timing.stats import SimStats

N = 1_200
WARMUP = 200


@pytest.fixture(autouse=True)
def _fresh_runner():
    runner.clear_trace_cache()
    yield
    runner.clear_trace_cache()


def test_collect_parallel_matches_sequential():
    names = ["li", "mcf"]
    surviving, failures, degraded = parallel.collect_parallel(names, N, jobs=2)
    assert surviving == names and not failures and not degraded
    for name in names:
        preloaded = runner.collect_trace(name, N)
        runner._collect.cache_clear()
        runner._preloaded.clear()
        assert preloaded == runner.collect_trace(name, N)


def test_collect_parallel_preloads_parent_cache():
    parallel.collect_parallel(["li"], N, jobs=1)
    assert ("li", N, None, None, "ref") in runner._preloaded


def test_workers_inherit_wall_timeout():
    """A timeout set in the parent must bind inside every worker."""
    runner.set_wall_timeout(1e-9)  # impossible budget: all attempts fail
    surviving, failures, degraded = parallel.collect_parallel(["li"], N, jobs=1)
    assert surviving == [] and not degraded
    (record,) = failures
    assert record.benchmark == "li" and record.stage == "collect"


def test_workers_inherit_dispatch_mode():
    """A dispatch override set in the parent must bind inside workers."""
    from repro.emulator.machine import set_dispatch_mode

    set_dispatch_mode("blocks")
    try:
        surviving, failures, degraded = parallel.collect_parallel(["li"], N, jobs=1)
        assert surviving == ["li"] and not failures and not degraded
        preloaded = runner._preloaded[("li", N, None, None, "ref")]
    finally:
        set_dispatch_mode(None)
    runner.clear_trace_cache()
    # Traces are mode-invariant by construction, so the worker's
    # blocks-mode collection must equal a sequential fast-path one.
    set_dispatch_mode("fast")
    assert preloaded == runner.collect_trace("li", N)


def test_workers_inherit_cache_config(tmp_path):
    trace_cache.configure(tmp_path, enabled=True)
    parallel.collect_parallel(["li"], N, jobs=1)
    assert len(list(tmp_path.iterdir())) == 1  # worker wrote the entry
    stats = trace_cache.stats()
    assert stats["misses"] == 1 and stats["hits"] == 0
    # Second pass: the worker reads the entry the first worker wrote.
    runner.clear_trace_cache()
    trace_cache.configure(tmp_path, enabled=True)
    parallel.collect_parallel(["li"], N, jobs=1)
    stats = trace_cache.stats()
    assert stats["hits"] == 1 and stats["misses"] == 0


def _sweep_grid(configs):
    grid, failures, _, _ = run_sweep(
        ["li", "mcf"], configs, N, WARMUP, jobs=2, keep_going=True,
        fault_plan=ProcessFaultPlan(),
    )
    assert not failures
    return grid


def test_run_cells_grid_matches_sequential_simulation():
    """A two-worker ``run_sweep`` grid equals sequential collect +
    simulate cell for cell."""
    configs = [baseline_config(), simple_pipeline_config(2)]
    grid = _sweep_grid(configs)
    for name in ("li", "mcf"):
        trace = runner.collect_trace(name, N + WARMUP)
        for config in configs:
            expected = simulate(config, trace, warmup=WARMUP)
            got = grid[name][config.name]
            assert got.to_dict() == expected.to_dict()


def test_merge_by_config_is_order_independent():
    """Merging a sweep grid's cells per config does not depend on the
    order the benchmarks are folded in."""
    configs = [baseline_config()]
    grid = _sweep_grid(configs)
    runs = [grid[name][configs[0].name] for name in ("li", "mcf")]
    assert (
        SimStats.merge_all(runs).to_dict()
        == SimStats.merge_all(runs[::-1]).to_dict()
    )
