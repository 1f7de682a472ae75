"""``scripts/bench_compare.py``: a gated baseline key cannot vanish."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.obs.manifest import bench_snapshot, build_manifest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_compare.py"


@pytest.fixture(scope="module")
def bench_compare():
    spec = importlib.util.spec_from_file_location("bench_compare", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _snapshot(tmp_path: Path, name: str, **extra) -> str:
    record = {"ipc": {"ideal": 0.5}, "wall_seconds": 1.0, "instructions_per_second": 1000.0}
    record.update(extra)
    payload = bench_snapshot(name, {"li": record}, build_manifest(config={}))
    path = tmp_path / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_missing_gated_key_fails(bench_compare, tmp_path, capsys):
    base = _snapshot(tmp_path, "base", timing_speedup_geomean=1.7)
    cur = _snapshot(tmp_path, "cur")
    assert bench_compare.main([base, cur]) == 1
    assert "li/timing_speedup_geomean: gated key missing" in capsys.readouterr().err


def test_missing_informational_key_passes(bench_compare, tmp_path):
    base = _snapshot(
        tmp_path, "base", timing_speedup_geomean=1.7, blocks_speedup=3.2,
        timing_speedup={"ideal": 1.6},
    )
    cur = _snapshot(tmp_path, "cur", timing_speedup_geomean=1.7)
    assert bench_compare.main([base, cur]) == 0
