"""Per-layer tracing for the benchmark, installed from outside the program.

:class:`LayerTracer` replaces public functions of each simulator layer
with timing wrappers.  The wrappers only observe: they call the original,
return its result unchanged and record time and counts, so a traced run
simulates exactly what an untraced run does (the benchmark asserts this
by comparing the two runs' ``Stats`` digests).

Every wrapped call pushes a frame on one span stack, so a span's *self
time* is its duration minus the time its wrapped children took.  Coarse
calls (set-up, lowering, machine build, run, cache I/O) are also kept one
by one as spans ``(id, name, start, end, parent id)``; hot per-cycle
calls (``OooCore.tick``, ``Engine.fire_due_events``, cache accesses) are
only aggregated per ``(name, parent name)`` with count, total and self
time.  Everything stays in memory until :meth:`LayerTracer.dump`.

:data:`LAYER_MOVES` names, for every per-layer metric, the end-to-end
metric and workload it is expected to move.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Per-layer metric -> the end-to-end metric and workload it should move.
#: Units come from the ``per_layer`` entries of ``BENCHMARK.json``.
LAYER_MOVES: Dict[str, str] = {
    "workloads.setup_s": "setup_s on setup-avl; ~2% of sweep-fig6",
    "workloads.trace_s": "setup_s on setup-avl; ~2% of sweep-fig6",
    "workloads.image_words": "setup_s, peak_rss_mb on setup-avl",
    "workloads.warm_lines": "setup_s, peak_rss_mb on setup-avl",
    "core.codegen.lower_s": "sim_kips on sweep-fig6",
    "core.codegen.instructions": "sim_kips on sweep-fig6",
    "mem.hierarchy.warm_s": "sim_kips on sweep-fig6, wall_s on setup-avl",
    "mem.hierarchy.lines_warmed": "sim_kips on sweep-fig6, wall_s on setup-avl",
    "mem.hierarchy.access_s": "sim_kips on sweep-fig6",
    "mem.hierarchy.l1_hit_ratio": "sim_kips on sweep-fig6",
    "sim.build_s": "sim_kips on sweep-fig6",
    "sim.run_s": "sim_kips on sweep-fig6",
    "sim.cycles": "sim_kips on sweep-fig6 (simulated)",
    "sim.drain_cycles": "sim_kips on sweep-fig6 (simulated)",
    "sim.host_ns_per_cycle": "sim_kips on sweep-fig6",
    "sim.engine.events": "sim_kips on sweep-fig6",
    "sim.engine.fire_s": "sim_kips on sweep-fig6",
    "sim.engine.skip_ratio": "sim_kips on sweep-fig6",
    "cpu.ooo_core.tick_s": "sim_kips on sweep-fig6",
    "cpu.ooo_core.ticks": "sim_kips on sweep-fig6",
    "cpu.retired": "sim_kips on sweep-fig6 (simulated)",
    "cpu.ipc": "sim_kips on sweep-fig6 (simulated)",
    "cpu.stall.rob": "sim_kips on sweep-fig6 (simulated)",
    "cpu.retire_blocked.fence": "sim_kips on sweep-fig6 (simulated)",
    "mem.memctrl.self_s": "sim_kips, fidelity_err on sweep-fig6",
    "mem.nvm.writes": "sim_kips, fidelity_err on sweep-fig6",
    "mem.nvm.reads": "sim_kips, fidelity_err on sweep-fig6",
    "mem.wpq.max_occupancy": "sim_kips, fidelity_err on sweep-fig6",
    "core.proteus.lpq_drop_ratio": "fidelity_err on sweep-fig6",
    "core.llt.miss_rate": "fidelity_err on sweep-fig6",
    "parallel.cells_simulated": "wall_s on sweep-fig6",
    "parallel.memo_hits": "wall_s on sweep-fig6",
    "parallel.trace_generations": "wall_s on sweep-fig6",
    "parallel.cache.load_s": "wall_s on sweep-fig6",
    "parallel.cache.store_s": "wall_s on sweep-fig6",
    "parallel.runner_overhead_s": "wall_s on sweep-fig6",
    "bench.trace_overhead_s": "none: traced minus untraced wall_s, nominal-host seconds",
}


class LayerTracer:
    """Timing wrappers around public functions of every layer."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        #: frames: [child seconds, name, span id or None]
        self._stack: List[List[Any]] = []
        self._next_id = 0
        #: name -> parent name -> [calls, total seconds, self seconds]
        self.aggregates: Dict[str, Dict[Optional[str], List[float]]] = {}
        #: kept coarse spans: (id, name, start, end, parent id)
        self.spans: List[Tuple[int, str, float, float, Optional[int]]] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self._undo: List[Tuple[Any, str, Any]] = []
        self._schedule_at_depth = 0

    # -- wrapping ------------------------------------------------------

    def _patch(self, owner: Any, attr: str, wrapper: Callable[..., Any]) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _timed(
        self,
        owner: Any,
        attr: str,
        name: str,
        keep: bool = False,
        on_result: Optional[Callable[[Any], None]] = None,
    ) -> None:
        original = owner.__dict__[attr]
        stack = self._stack
        push, pop = stack.append, stack.pop
        #: parent name -> [calls, total seconds, self seconds]
        by_parent = self.aggregates.setdefault(name, {})
        spans = self.spans
        clock = self.clock
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span_id = None
            if keep:
                span_id = tracer._next_id
                tracer._next_id += 1
            frame = [0.0, name, span_id]
            push(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                pop()
                duration = end - start
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[0] += duration
                    parent_name = parent[1]
                else:
                    parent_name = None
                record = by_parent.get(parent_name)
                if record is None:
                    record = by_parent[parent_name] = [0, 0.0, 0.0]
                record[0] += 1
                record[1] += duration
                record[2] += duration - frame[0]
                if keep:
                    spans.append(
                        (span_id, name, start, end, parent[2] if parent is not None else None)
                    )
            if on_result is not None:
                on_result(result)
            return result

        self._patch(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap the public entry points of every layer."""
        from repro.core.codegen import CodeGenerator
        from repro.cpu.ooo_core import OooCore
        from repro.mem.hierarchy import CacheHierarchy
        from repro.mem.memctrl import MemoryController
        from repro.parallel import runner
        from repro.parallel.cache import ResultCache
        from repro.sim.engine import Engine
        from repro.sim.simulator import Simulator
        from repro.workloads.base import Workload

        counts = self.counts

        def on_segment(trace: Any) -> None:
            counts["workloads.image_words"] += len(trace.initial_image)
            counts["workloads.warm_lines"] += len(trace.warm_lines)

        def on_lowered(trace: Any) -> None:
            counts["core.codegen.instructions"] += len(trace)

        def on_generated(traces: Any) -> None:
            counts["parallel.trace_generations"] += 1

        self._timed(Workload, "prepare", "workloads.prepare", keep=True)
        self._timed(
            Workload, "generate_segment", "workloads.generate_segment",
            keep=True, on_result=on_segment,
        )
        self._timed(
            runner, "generate_traces", "parallel.generate_traces",
            keep=True, on_result=on_generated,
        )
        self._timed(
            CodeGenerator, "lower_trace", "core.codegen.lower_trace",
            keep=True, on_result=on_lowered,
        )
        self._timed(Simulator, "__init__", "sim.build", keep=True)
        self._timed(Simulator, "run", "sim.run", keep=True)
        self._timed(runner.SweepRunner, "run_cells", "parallel.run_cells", keep=True)
        self._timed(runner, "execute_cell", "parallel.execute_cell", keep=True)
        self._timed(ResultCache, "load", "parallel.cache.load", keep=True)
        self._timed(ResultCache, "store", "parallel.cache.store", keep=True)

        self._timed(CacheHierarchy, "warm", "mem.hierarchy.warm")
        self._timed(CacheHierarchy, "access", "mem.hierarchy.access")
        self._timed(OooCore, "tick", "cpu.ooo_core.tick")
        self._timed(Engine, "fire_due_events", "sim.engine.fire_due_events")
        for method in ("read", "write", "submit_log", "pump"):
            self._timed(MemoryController, method, f"mem.memctrl.{method}")
        self._count_engine(Engine)

    def _count_engine(self, engine_cls: Any) -> None:
        """Count scheduled events and cycles crossed by fast-forward."""
        schedule = engine_cls.__dict__["schedule"]
        schedule_at = engine_cls.__dict__["schedule_at"]
        fast_forward = engine_cls.__dict__["fast_forward"]
        counts = self.counts
        tracer = self

        def counted_schedule(engine: Any, delay: int, callback: Any) -> None:
            if not tracer._schedule_at_depth:
                counts["sim.engine.events"] += 1
            schedule(engine, delay, callback)

        def counted_schedule_at(engine: Any, cycle: int, callback: Any) -> None:
            counts["sim.engine.events"] += 1
            tracer._schedule_at_depth += 1
            try:
                schedule_at(engine, cycle, callback)
            finally:
                tracer._schedule_at_depth -= 1

        def counted_fast_forward(engine: Any, target: int) -> None:
            before = engine.cycle
            fast_forward(engine, target)
            counts["sim.engine.skipped_cycles"] += engine.cycle - before

        self._patch(engine_cls, "schedule", counted_schedule)
        self._patch(engine_cls, "schedule_at", counted_schedule_at)
        self._patch(engine_cls, "fast_forward", counted_fast_forward)

    def uninstall(self) -> None:
        """Restore every wrapped function (reverse order)."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------

    def total(self, name: str) -> float:
        """Summed duration of every call of ``name``."""
        return sum(rec[1] for rec in self.aggregates.get(name, {}).values())

    def self_time(self, *names: str) -> float:
        """Summed self time of every call of the given span names."""
        return sum(
            rec[2] for name in names for rec in self.aggregates.get(name, {}).values()
        )

    def calls(self, name: str) -> int:
        """Number of calls of ``name``."""
        return int(sum(rec[0] for rec in self.aggregates.get(name, {}).values()))

    def dump(self, path: Path) -> None:
        """Write the kept spans and the aggregates as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "spans": [
                {"id": i, "name": n, "start": s, "end": e, "parent": p}
                for i, n, s, e, p in self.spans
            ],
            "aggregates": [
                {"name": n, "parent": p, "calls": int(r[0]), "total_s": r[1], "self_s": r[2]}
                for n, by_parent in sorted(self.aggregates.items())
                for p, r in by_parent.items()
            ],
            "counts": dict(self.counts),
        }
        path.write_text(json.dumps(doc, indent=1) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: LayerTracer, stats: Sequence[Any], drain_cycles: int, runner: Any
) -> Dict[str, float]:
    """Derive every per-layer metric except ``bench.trace_overhead_s``.

    ``stats`` are the ``Stats`` of every cell of the traced repetition
    and ``drain_cycles`` their summed cycles after the last core
    finished; host times and call counts come from ``tracer``.
    """
    def stat(name: str) -> int:
        return sum(cell.get(name) for cell in stats)

    cycles = sum(cell.cycles() for cell in stats)
    retired = sum(cell.instructions() for cell in stats)
    accesses = tracer.calls("mem.hierarchy.access")
    run_s = tracer.total("sim.run")
    counts = tracer.counts
    return {
        "workloads.setup_s": tracer.total("workloads.prepare"),
        "workloads.trace_s": tracer.self_time("workloads.generate_segment"),
        "workloads.image_words": counts["workloads.image_words"],
        "workloads.warm_lines": counts["workloads.warm_lines"],
        "core.codegen.lower_s": tracer.total("core.codegen.lower_trace"),
        "core.codegen.instructions": counts["core.codegen.instructions"],
        "mem.hierarchy.warm_s": tracer.total("mem.hierarchy.warm"),
        "mem.hierarchy.lines_warmed": tracer.calls("mem.hierarchy.warm"),
        "mem.hierarchy.access_s": tracer.self_time("mem.hierarchy.access"),
        "mem.hierarchy.l1_hit_ratio": _ratio(stat("l1.hits"), accesses),
        "sim.build_s": tracer.total("sim.build"),
        "sim.run_s": run_s,
        "sim.cycles": cycles,
        "sim.drain_cycles": drain_cycles,
        "sim.host_ns_per_cycle": _ratio(run_s * 1e9, cycles),
        "sim.engine.events": counts["sim.engine.events"],
        "sim.engine.fire_s": tracer.self_time("sim.engine.fire_due_events"),
        "sim.engine.skip_ratio": _ratio(counts["sim.engine.skipped_cycles"], cycles),
        "cpu.ooo_core.tick_s": tracer.self_time("cpu.ooo_core.tick"),
        "cpu.ooo_core.ticks": tracer.calls("cpu.ooo_core.tick"),
        "cpu.retired": retired,
        "cpu.ipc": _ratio(retired, cycles),
        "cpu.stall.rob": stat("stall.rob"),
        "cpu.retire_blocked.fence": stat("retire_blocked.fence"),
        "mem.memctrl.self_s": tracer.self_time(
            "mem.memctrl.read", "mem.memctrl.write",
            "mem.memctrl.submit_log", "mem.memctrl.pump",
        ),
        "mem.nvm.writes": sum(cell.nvm_writes() for cell in stats),
        "mem.nvm.reads": sum(cell.nvm_reads() for cell in stats),
        "mem.wpq.max_occupancy": max(
            (cell.get("wpq.max_occupancy") for cell in stats), default=0
        ),
        "core.proteus.lpq_drop_ratio": _ratio(
            stat("lpq.flash_cleared") + stat("lpq.sticky_dropped"), stat("lpq.admitted")
        ),
        "core.llt.miss_rate": _ratio(
            stat("llt.misses"), stat("llt.hits") + stat("llt.misses")
        ),
        "parallel.cells_simulated": runner.simulated,
        "parallel.memo_hits": runner.memo_hits,
        "parallel.trace_generations": counts["parallel.trace_generations"],
        "parallel.cache.load_s": tracer.total("parallel.cache.load"),
        "parallel.cache.store_s": tracer.total("parallel.cache.store"),
        "parallel.runner_overhead_s": (
            tracer.total("parallel.run_cells") - tracer.total("parallel.execute_cell")
        ),
    }
