"""Tests for the regression gate (repro.bench.gate) and its CLI."""

import json
from pathlib import Path

import pytest

from repro.analysis.figures import REGISTRY
from repro.bench.gate import (
    DEFAULT_DRIFT_TOLERANCE,
    BenchResultsError,
    build_baseline,
    load_baseline,
    run_gate,
    validate_baseline,
)
from repro.bench.reference import PAPER_REFERENCE
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent


def full_metrics(figure):
    """Paper-exact metric values for one figure (deviation 0)."""
    return {
        metric: entry.value
        for metric, entry in PAPER_REFERENCE[figure].items()
    }


def make_doc(label="run-a", overrides=None, context=None):
    """A trajectory doc covering every registry figure at paper values."""
    context = context or {"threads": 4, "scale": 1.0, "seed": 7}
    figures = []
    for name, spec in REGISTRY.items():
        metrics = full_metrics(name)
        if overrides and name in overrides:
            metrics.update(overrides[name])
        figures.append(
            {
                "figure": name,
                "title": spec.title,
                "wall_time_s": 10.0,
                "metrics": metrics,
            }
        )
    run = {
        "label": label,
        "total_wall_time_s": 90.0,
        "figures": figures,
        **context,
    }
    return {"schema_version": 2, "runs": [run]}


# -- fidelity ---------------------------------------------------------------


def test_paper_exact_values_pass_fidelity():
    report = run_gate(make_doc(), fidelity_only=True)
    assert report.passed
    assert report.exit_code == 0
    assert not [f for f in report.findings if f.status == "FAIL"]


def test_fidelity_inside_tolerance_passes():
    ref = PAPER_REFERENCE["fig6"]["Proteus"]
    value = ref.value * (1 + ref.tolerance * 0.5)
    doc = make_doc(overrides={"fig6": {"Proteus": value}})
    report = run_gate(doc, fidelity_only=True)
    assert report.passed


def test_fidelity_at_exact_tolerance_passes():
    ref = PAPER_REFERENCE["fig6"]["Proteus"]
    value = ref.value * (1 + ref.tolerance)
    doc = make_doc(overrides={"fig6": {"Proteus": value}})
    report = run_gate(doc, fidelity_only=True)
    statuses = {
        (f.figure, f.metric): f.status for f in report.findings
    }
    assert statuses[("fig6", "Proteus")] == "PASS"


def test_fidelity_outside_tolerance_fails():
    ref = PAPER_REFERENCE["fig6"]["Proteus"]
    value = ref.value * (1 + ref.tolerance * 1.5)
    doc = make_doc(overrides={"fig6": {"Proteus": value}})
    report = run_gate(doc, fidelity_only=True)
    assert not report.passed
    assert report.exit_code == 1
    failures = [(f.figure, f.metric) for f in report.failures]
    assert ("fig6", "Proteus") in failures


def test_track_metric_never_fails_outside_band():
    ref = PAPER_REFERENCE["table3"]["Proteus@1024"]
    assert ref.level == "track"
    doc = make_doc(overrides={"table3": {"Proteus@1024": ref.value * 10}})
    report = run_gate(doc, fidelity_only=True)
    assert report.passed
    finding = next(
        f for f in report.findings
        if f.figure == "table3" and f.metric == "Proteus@1024"
    )
    assert finding.status == "TRACK"
    assert "outside tracked band" in finding.note


def test_missing_figure_is_coverage_failure():
    doc = make_doc()
    doc["runs"][0]["figures"] = [
        record for record in doc["runs"][0]["figures"]
        if record["figure"] != "fig9"
    ]
    report = run_gate(doc, fidelity_only=True)
    assert not report.passed
    assert any(
        f.figure == "fig9" and f.check == "coverage" for f in report.failures
    )


def test_missing_gate_metric_fails_missing_track_metric_warns():
    doc = make_doc()
    for record in doc["runs"][0]["figures"]:
        if record["figure"] == "fig6":
            del record["metrics"]["Proteus"]  # gate level
        if record["figure"] == "table3":
            del record["metrics"]["Proteus@1024"]  # track level
    report = run_gate(doc, fidelity_only=True)
    statuses = {
        (f.figure, f.metric): f.status for f in report.findings
    }
    assert statuses[("fig6", "Proteus")] == "FAIL"
    assert statuses[("table3", "Proteus@1024")] == "WARN"


# -- drift ------------------------------------------------------------------


def test_identical_doc_has_no_drift():
    doc = make_doc()
    report = run_gate(doc, baseline=build_baseline(doc))
    assert report.passed
    drift = [f for f in report.findings if f.check == "drift"]
    assert drift and all(f.status == "PASS" for f in drift)


def test_drift_at_exact_tolerance_passes():
    doc = make_doc()
    baseline = build_baseline(doc)
    ref = PAPER_REFERENCE["fig8"]["ATOM avg"]
    drifted = make_doc(
        overrides={
            "fig8": {"ATOM avg": ref.value * (1 + DEFAULT_DRIFT_TOLERANCE)}
        }
    )
    report = run_gate(drifted, baseline=baseline)
    finding = next(
        f for f in report.findings
        if f.check == "drift" and f.figure == "fig8"
        and f.metric == "ATOM avg"
    )
    assert finding.status == "PASS"


def test_drift_beyond_tolerance_fails_with_delta_report():
    doc = make_doc()
    baseline = build_baseline(doc)
    ref = PAPER_REFERENCE["fig6"]["ATOM"]
    drifted = make_doc(overrides={"fig6": {"ATOM": ref.value * 1.10}})
    report = run_gate(drifted, baseline=baseline)
    assert report.exit_code == 1
    rendered = report.render()
    assert "FAIL" in rendered
    assert "deltas needing attention" in rendered
    assert "ATOM" in rendered


def test_drift_tolerance_is_configurable():
    doc = make_doc()
    baseline = build_baseline(doc)
    ref = PAPER_REFERENCE["fig6"]["ATOM"]
    drifted = make_doc(overrides={"fig6": {"ATOM": ref.value * 1.10}})
    report = run_gate(drifted, baseline=baseline, drift_tolerance=0.25)
    drift = [f for f in report.findings if f.check == "drift"]
    assert all(f.status == "PASS" for f in drift)


def test_context_mismatch_skips_not_fails():
    doc = make_doc()
    baseline = build_baseline(doc)
    other = make_doc(context={"threads": 4, "scale": 0.25, "seed": 7})
    report = run_gate(other, baseline=baseline)
    skips = [f for f in report.findings if f.status == "SKIP"]
    assert skips and all(f.check == "drift" for f in skips)
    assert not [f for f in report.failures if f.check == "drift"]


def test_legacy_engine_context_key_is_ignored():
    """Older trajectories record ``"engine": "reference"`` in their run
    context; drift comparison still gates them against a baseline
    without the key, and the key never reaches a new baseline."""
    doc = make_doc()
    baseline = build_baseline(doc)
    legacy = make_doc(
        context={"threads": 4, "scale": 1.0, "seed": 7, "engine": "reference"}
    )
    report = run_gate(legacy, baseline=baseline)
    drift = [f for f in report.findings if f.check == "drift"]
    assert drift and all(f.status == "PASS" for f in drift)
    for entry in build_baseline(legacy)["figures"].values():
        assert "engine" not in entry["context"]


def test_new_metric_warns_not_fails():
    doc = make_doc()
    baseline = build_baseline(doc)
    grown = make_doc(overrides={"fig6": {"NewScheme": 1.0}})
    report = run_gate(grown, baseline=baseline)
    finding = next(
        f for f in report.findings
        if f.figure == "fig6" and f.metric == "NewScheme"
    )
    assert finding.status == "WARN"
    assert report.passed


def test_walltime_swing_warns_never_fails():
    doc = make_doc()
    baseline = build_baseline(doc)
    slow = make_doc()
    for record in slow["runs"][0]["figures"]:
        record["wall_time_s"] = 30.0  # 3x the baseline's 10s
    report = run_gate(slow, baseline=baseline)
    walltime = [f for f in report.findings if f.check == "walltime"]
    assert walltime and all(f.status == "WARN" for f in walltime)
    assert report.passed


def test_derived_figures_excluded_from_walltime_check():
    doc = make_doc()
    for record in doc["runs"][0]["figures"]:
        if record["figure"] == "fig7":
            record["derived"] = True
            record["derived_from"] = "fig6"
    baseline = build_baseline(doc)
    slow = make_doc()
    for record in slow["runs"][0]["figures"]:
        record["wall_time_s"] = 30.0
        if record["figure"] == "fig7":
            record["derived"] = True
            record["derived_from"] = "fig6"
    report = run_gate(slow, baseline=baseline)
    assert not any(
        f.check == "walltime" and f.figure == "fig7" for f in report.findings
    )


def test_missing_baseline_fails_unless_fidelity_only():
    doc = make_doc()
    report = run_gate(doc, baseline=None)
    assert not report.passed
    assert any("no accepted baseline" in f.note for f in report.failures)
    assert run_gate(doc, baseline=None, fidelity_only=True).passed


# -- baseline round-trip ----------------------------------------------------


def test_baseline_roundtrip_through_file(tmp_path):
    doc = make_doc()
    baseline = build_baseline(doc)
    path = tmp_path / "BASELINE.json"
    path.write_text(json.dumps(baseline))
    loaded = load_baseline(path)
    assert validate_baseline(loaded) == []
    assert set(loaded["figures"]) == set(REGISTRY)


def test_load_baseline_rejects_bad_version(tmp_path):
    path = tmp_path / "BASELINE.json"
    path.write_text(json.dumps({"baseline_schema_version": 99}))
    with pytest.raises(BenchResultsError, match="99"):
        load_baseline(path)


def test_committed_baseline_matches_committed_trajectory():
    """Acceptance criterion: gate exits 0 on the committed baseline."""
    from repro.bench.schema import load_results

    doc = load_results(REPO_ROOT / "BENCH_results.json")
    baseline = load_baseline(REPO_ROOT / "benchmarks" / "BASELINE.json")
    report = run_gate(doc, baseline=baseline)
    assert report.exit_code == 0, report.render()


# -- CLI --------------------------------------------------------------------


def cli_results_args(tmp_path, doc):
    path = tmp_path / "BENCH_results.json"
    path.write_text(json.dumps(doc))
    return path


def test_cli_gate_fidelity_only_passes(tmp_path, capsys):
    path = cli_results_args(tmp_path, make_doc())
    code = main(["bench", "gate", "--results", str(path), "--fidelity-only"])
    assert code == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_gate_injected_drift_exits_nonzero(tmp_path, capsys):
    """Acceptance criterion: injected metric drift -> non-zero exit."""
    doc = make_doc()
    baseline_path = tmp_path / "BASELINE.json"
    baseline_path.write_text(json.dumps(build_baseline(doc)))
    ref = PAPER_REFERENCE["fig6"]["Proteus"]
    drifted = make_doc(overrides={"fig6": {"Proteus": ref.value * 1.2}})
    path = cli_results_args(tmp_path, drifted)
    code = main([
        "bench", "gate", "--results", str(path),
        "--baseline", str(baseline_path),
    ])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "Proteus" in out


def test_cli_validate_rejects_corrupt_file(tmp_path, capsys):
    path = tmp_path / "BENCH_results.json"
    path.write_text("{broken")
    code = main(["bench", "validate", "--results", str(path)])
    assert code == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_cli_accept_then_gate_roundtrip(tmp_path, capsys):
    path = cli_results_args(tmp_path, make_doc())
    baseline_path = tmp_path / "BASELINE.json"
    assert main([
        "bench", "accept", "--results", str(path),
        "--baseline", str(baseline_path),
    ]) == 0
    assert baseline_path.exists()
    assert main([
        "bench", "gate", "--results", str(path),
        "--baseline", str(baseline_path),
    ]) == 0


def test_cli_render_emits_dashboard(tmp_path, capsys):
    path = cli_results_args(tmp_path, make_doc())
    out_path = tmp_path / "dashboard.html"
    code = main([
        "bench", "render", "--results", str(path), "--out", str(out_path),
        "--baseline", str(tmp_path / "missing-baseline.json"),
    ])
    assert code == 0
    html = out_path.read_text()
    assert html.lstrip().lower().startswith("<!doctype html>")
    for name in REGISTRY:
        assert name in html
