"""Smoke tests of the benchmark's own plumbing, at tiny sizes.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.bench.reference import PAPER_REFERENCE  # noqa: E402
from repro.parallel.runner import SweepRunner  # noqa: E402
from repro.sim.simulator import Simulator  # noqa: E402


@pytest.fixture
def observer():
    cell_observer = workloads.CellObserver()
    cell_observer.install()
    yield cell_observer
    cell_observer.uninstall()


@pytest.fixture
def tiny_reps(monkeypatch, tmp_path):
    # Tiny runs keep their files (observed digests too) out of the real
    # run directory, where record_digests.py would pick them up.
    monkeypatch.setattr(run, "WORK", tmp_path / "run")
    monkeypatch.setattr(run, "repetition", functools.partial(run.repetition, tiny=True))


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_untraced_run_prints_every_end_to_end_metric(name, tiny_reps, capsys):
    result = run.untraced_run(name, 11, 1, time.monotonic() + 120)
    out = capsys.readouterr().out
    for metric, unit in [*run.END_TO_END.items(), ("fail_ratio", "fraction"),
                         ("fidelity_err", "fraction")]:
        assert any(
            line.split()[:1] == [metric] and unit in line.split() for line in out.splitlines()
        ), metric
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    json.dumps(result)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_run_reports_every_layer_metric(name, tiny_reps, capsys):
    result = run.traced_run(name, 12, 1, time.monotonic() + 120)
    out = capsys.readouterr().out
    for metric, unit in run.PER_LAYER.items():
        assert any(
            line.split()[:1] == [metric] and unit in line.split() for line in out.splitlines()
        ), metric
    assert "traced Stats digests equal the untraced ones" in out
    assert result["correct"]
    assert set(result["metrics"]) == set(run.PER_LAYER)
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    # A cold start: every cell simulated, every trace set generated once.
    cells = workloads.WORKLOADS[name].cells(12, True)
    assert metrics["parallel.cells_simulated"] == len(cells)
    assert metrics["parallel.trace_generations"] == len({cell.workload for cell in cells})
    assert metrics["cpu.retired"] == metrics["core.codegen.instructions"]


def test_tracer_observes_without_interfering(observer, tmp_path):
    plain = workloads.run_repetition("setup-avl", 13, str(tmp_path / "a"), observer, tiny=True)
    untraced_run = Simulator.__dict__["run"]
    tracer = layers.LayerTracer()
    tracer.install()
    try:
        traced_observer = workloads.CellObserver()
        traced_observer.install()
        try:
            traced = workloads.run_repetition(
                "setup-avl", 13, str(tmp_path / "b"), traced_observer, tiny=True
            )
        finally:
            traced_observer.uninstall()
    finally:
        tracer.uninstall()
    assert run.digests_of(traced) == run.digests_of(plain)
    assert tracer.calls("cpu.ooo_core.tick") > 0
    tracer.dump(tmp_path / "spans.json")
    doc = json.loads((tmp_path / "spans.json").read_text())
    names = {span["name"] for span in doc["spans"]}
    assert {"sim.build", "sim.run", "parallel.run_cells"} <= names
    assert Simulator.__dict__["run"] is untraced_run


def _finished_sim():
    spec = workloads.WORKLOADS["setup-avl"].cells(14, True)[0]
    sim = Simulator(spec.config, spec.scheme, workloads.traces_for(spec))
    sim.run()
    return sim


def test_checks_pass_on_a_clean_cell():
    assert workloads.check_cell(_finished_sim()) == []


def test_check_fires_on_doctored_retired_count():
    sim = _finished_sim()
    sim.stats.counters["retired_instructions"] += 1
    assert workloads.check_cell(sim) == ["retired != lowered trace length"]


def test_check_fires_on_a_machine_left_busy():
    sim = _finished_sim()
    sim.engine.schedule(5, lambda: None)
    assert workloads.check_cell(sim) == ["machine not quiescent after run"]


def test_check_fires_on_unbalanced_nvm_write_breakdown():
    sim = _finished_sim()
    total = sim.stats.nvm_writes()
    sim.stats.nvm_writes = lambda: total + 1
    assert workloads.check_cell(sim) == ["nvm write breakdown does not sum to nvm writes"]


def test_failed_checks_count_against_the_repetition(monkeypatch, tmp_path):
    original = Simulator.run

    def doctored_run(sim, *args, **kwargs):
        result = original(sim, *args, **kwargs)
        sim.stats.counters["retired_instructions"] += 1
        return result

    monkeypatch.setattr(Simulator, "run", doctored_run)
    cell_observer = workloads.CellObserver()
    cell_observer.install()
    try:
        rep = workloads.run_repetition("setup-avl", 15, str(tmp_path), cell_observer, tiny=True)
    finally:
        cell_observer.uninstall()
    assert rep["attempted"] == 1 and rep["failed"] == 1


def test_a_raising_cell_is_counted_failed(observer):
    spec = workloads.WORKLOADS["setup-avl"].cells(16, True)[0]
    stalled = dataclasses.replace(spec, max_cycles=10)
    with pytest.raises(RuntimeError, match="budget"):
        SweepRunner(jobs=1).run_cells([stalled])
    assert observer.cells[-1]["failed"][0].startswith("raised")


def test_fidelity_err_recomputed_from_paper_reference(observer, tmp_path):
    rep = workloads.run_repetition("sweep-fig6", 17, str(tmp_path), observer, tiny=True)
    assert rep["failed"] == 0 and rep["attempted"] == 36
    runner = SweepRunner(jobs=1)
    size = {"threads": 1, "scale": 0.005}
    deviations = []
    for figure, experiment in workloads.FIDELITY_FIGURES.items():
        summary = experiment(seed=17, runner=runner, **size).measured_summary
        for metric, ref in PAPER_REFERENCE[figure].items():
            if ref.level == "gate":
                deviations.append(abs(summary[metric] - ref.value) / abs(ref.value))
    assert len(deviations) == 13
    assert rep["fidelity_err"] == pytest.approx(sum(deviations) / 13, rel=1e-12)


def test_a_raising_figure_step_makes_the_run_incorrect(
    monkeypatch, observer, tmp_path, tiny_reps, capsys
):
    def no_reference(summaries):
        raise ValueError("fig6/mean_speedup has no measured value")

    monkeypatch.setattr(workloads, "fidelity_error", no_reference)
    rep = workloads.run_repetition("sweep-fig6", 18, str(tmp_path), observer, tiny=True)
    assert rep["failed"] == 0 and "no measured value" in rep["error"]
    # What rep.py adds around run_repetition; every repetition of the
    # run then returns this one.
    rep.pop("runner")
    rep.update(probes=[0.09], peak_rss_mb=1.0, layers={name: 1.0 for name in run.PER_LAYER})
    monkeypatch.setattr(run, "repetition", lambda *args, **kwargs: copy.deepcopy(rep))
    for measure in (run.untraced_run, run.traced_run):
        result = measure("sweep-fig6", 18, 1, time.monotonic() + 60)
        assert result["failed"] == 0 and not result["correct"]
    out = capsys.readouterr().out
    assert "fidelity_err" in out and "not computed, see error" in out
