"""The benchmark's workloads, output checks and one measured repetition.

A workload is a list of sweep cells (:class:`~repro.parallel.cellspec.CellSpec`)
built from the seed, plus what to do with them.  One *repetition* runs a
workload once, cold, in the calling process:

1. set-up: generate every cell's op traces through
   :func:`repro.parallel.runner.traces_for`, which fills the per-process
   trace memo the runner reads afterwards (timed as ``setup_s``);
2. run the cells through a fresh :class:`~repro.parallel.runner.SweepRunner`
   (``jobs=1``) whose :class:`~repro.parallel.cache.ResultCache` lives in
   an empty directory;
3. check every cell's output as soon as it finishes (:func:`check_cell`).

No ``SystemConfig.engine`` is set anywhere: the benchmark measures the
machine users get by default.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.analysis.experiments import (
    evaluation_cells,
    fig6_speedup_nvm,
    fig7_frontend_stalls,
    fig8_nvm_writes,
    table4_llt_miss_rate,
)
from repro.bench.reference import PAPER_REFERENCE
from repro.core.schemes import Scheme
from repro.parallel import runner as runner_module
from repro.parallel.cache import ResultCache
from repro.parallel.cellspec import CellSpec
from repro.parallel.runner import SweepRunner, traces_for
from repro.sim.config import fast_nvm_config
from repro.sim.simulator import Simulator

#: A seed never used while sizing or tuning the benchmark; a claimed gain
#: must also hold on it.
HELD_OUT_SEED = 9173

#: Figures whose gate-level entries form ``fidelity_err`` on sweep-fig6.
FIDELITY_FIGURES = {
    "fig6": fig6_speedup_nvm,
    "fig7": fig7_frontend_stalls,
    "fig8": fig8_nvm_writes,
    "table4": table4_llt_miss_rate,
}


@dataclass(frozen=True)
class Workload:
    """One named benchmark workload."""

    name: str
    #: (seed, tiny) -> the cells one repetition runs.
    cells: Callable[[int, bool], List[CellSpec]]
    #: (runner, cells, seed, tiny) -> fidelity_err or None; runs the cells.
    execute: Callable[[SweepRunner, List[CellSpec], int, bool], Optional[float]]


def _run_cells(
    runner: SweepRunner, cells: List[CellSpec], seed: int, tiny: bool
) -> Optional[float]:
    runner.run_cells(cells)
    return None


def _setup_avl_cells(seed: int, tiny: bool) -> List[CellSpec]:
    init_ops, sim_ops = (256, 2) if tiny else (30_000, 12)
    return [
        CellSpec(
            workload="AT", scheme=Scheme.PROTEUS, config=fast_nvm_config(cores=2),
            threads=2, seed=seed, init_ops=init_ops, sim_ops=sim_ops,
        )
    ]


def _sweep_size(tiny: bool) -> Dict[str, Any]:
    return {"threads": 1, "scale": 0.005} if tiny else {"threads": 4, "scale": 0.02}


def _sweep_cells(seed: int, tiny: bool) -> List[CellSpec]:
    size = _sweep_size(tiny)
    config = fast_nvm_config(cores=size["threads"])
    return list(evaluation_cells(config, seed=seed, **size).values())


def _sweep_execute(
    runner: SweepRunner, cells: List[CellSpec], seed: int, tiny: bool
) -> Optional[float]:
    """The fig6 sweep; fig7/fig8/table4 reuse its cells from the runner memo."""
    size = _sweep_size(tiny)
    summaries = {
        figure: experiment(seed=seed, runner=runner, **size).measured_summary
        for figure, experiment in FIDELITY_FIGURES.items()
    }
    return fidelity_error(summaries)


def fidelity_error(summaries: Dict[str, Dict[str, Optional[float]]]) -> float:
    """Mean relative deviation from the paper over gate-level entries."""
    deviations = []
    for figure, summary in summaries.items():
        for metric, reference in PAPER_REFERENCE[figure].items():
            if reference.level == "gate":
                measured = summary[metric]
                if measured is None:
                    raise ValueError(f"{figure}/{metric} has no measured value")
                deviations.append(reference.deviation(measured))
    return sum(deviations) / len(deviations)


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("setup-avl", _setup_avl_cells, _run_cells),
        Workload("sweep-fig6", _sweep_cells, _sweep_execute),
    )
}


# -- output checks --------------------------------------------------------


def check_cell(sim: Any) -> List[str]:
    """Names of the output checks a finished simulator fails (empty: ok)."""
    stats = sim.stats
    failed = []
    if stats.instructions() != sum(len(trace) for trace in sim.traces):
        failed.append("retired != lowered trace length")
    if not sim.quiescent():
        failed.append("machine not quiescent after run")
    if sum(stats.nvm_write_breakdown().values()) != stats.nvm_writes():
        failed.append("nvm write breakdown does not sum to nvm writes")
    return failed


def stats_digest(stats: Any) -> str:
    """Order-independent digest of every ``Stats`` counter."""
    payload = json.dumps(sorted(stats.counters.items()), separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def cell_label(spec: CellSpec) -> str:
    return f"{spec.workload}/{spec.scheme.value}"


class CellObserver:
    """Checks every cell the runner simulates, as soon as it finishes.

    Wraps :meth:`Simulator.run` (to see the finished machine) and the
    runner's ``execute_cell`` (to label it with its spec).  One call per
    cell, so it is installed on untraced runs too.  Machines are dropped
    once checked; only their ``Stats`` are kept.  ``between_cells``, when
    given, runs after every cell; the seconds it takes are summed in
    :attr:`paused_s` so the repetition can leave them out of its time.
    """

    def __init__(self, between_cells: Optional[Callable[[], None]] = None) -> None:
        self.stats: List[Any] = []
        self.cells: List[Dict[str, Any]] = []
        self.between_cells = between_cells
        self.paused_s = 0.0
        self._last: Optional[Any] = None
        self._undo: List[Any] = []

    def install(self) -> None:
        run = Simulator.__dict__["run"]
        execute_cell = runner_module.__dict__["execute_cell"]
        observer = self

        def observed_run(sim: Any, *args: Any, **kwargs: Any) -> Any:
            result = run(sim, *args, **kwargs)
            observer._last = sim
            return result

        def observed_execute_cell(spec: CellSpec) -> Any:
            observer._last = None
            try:
                result = execute_cell(spec)
            except Exception as exc:
                observer.cells.append(
                    {"cell": cell_label(spec), "failed": [f"raised {exc!r}"]}
                )
                raise
            sim, observer._last = observer._last, None
            failed = ["no simulator ran"] if sim is None else check_cell(sim)
            observer.stats.append(result.stats)
            observer.cells.append(
                {
                    "cell": cell_label(spec),
                    "digest": stats_digest(result.stats),
                    "retired": result.stats.instructions(),
                    "drain_cycles": (
                        0 if sim is None else result.cycles - sim.core_finish_cycle
                    ),
                    "failed": failed,
                }
            )
            observer.pause()
            return result

        self._undo = [
            (Simulator, "run", run),
            (runner_module, "execute_cell", execute_cell),
        ]
        Simulator.run = observed_run  # type: ignore[method-assign]
        runner_module.execute_cell = observed_execute_cell

    def pause(self) -> None:
        """Run ``between_cells`` (if any), timing it into :attr:`paused_s`."""
        if self.between_cells is not None:
            paused = time.perf_counter()
            self.between_cells()
            self.paused_s += time.perf_counter() - paused

    def uninstall(self) -> None:
        for owner, attr, original in self._undo:
            setattr(owner, attr, original)
        self._undo = []


def run_repetition(
    name: str,
    seed: int,
    cache_dir: str,
    observer: CellObserver,
    setup_only: bool = False,
    tiny: bool = False,
) -> Dict[str, Any]:
    """Run one cold repetition of workload ``name`` in this process."""
    workload = WORKLOADS[name]
    cells = workload.cells(seed, tiny)
    start = time.perf_counter()
    for spec in cells:
        traces_for(spec)
    setup_s = time.perf_counter() - start
    observer.pause()
    if setup_only:
        return {"setup_s": setup_s}
    runner = SweepRunner(jobs=1, cache=ResultCache(cache_dir))
    error = None
    fidelity = None
    try:
        fidelity = workload.execute(runner, cells, seed, tiny)
    except Exception as exc:  # a failing cell is counted, not fatal
        error = repr(exc)
    wall_s = time.perf_counter() - start - observer.paused_s
    passed = [cell for cell in observer.cells if not cell["failed"]]
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "retired": sum(cell["retired"] for cell in passed),
        "attempted": len(cells),
        "failed": len(cells) - len(passed),
        "fidelity_err": fidelity,
        "error": error,
        "cells": observer.cells,
        "runner": runner,
    }

