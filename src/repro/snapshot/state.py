"""Capture and restore the machine at a drained quiescent point.

Serializability contract: the timing simulator's event heap holds
*closures*, which cannot be serialized.  At a drained quiescent point —
every core finished, heap empty, controller queues drained or holding
only flash-clear survivors — no closure is pending, and the remaining
machine state is plain data: cache contents in recency order, queue
entries, NVM open rows, log cursors, the clock, and the Stats counters.
:func:`capture_machine` asserts that invariant and refuses anything
else (:class:`~repro.snapshot.format.SnapshotStateError`).

Restore builds a *fresh* machine for the continuation traces — fresh
cores, fresh scheme adapters — and imposes the captured state on the
carried components.  Per-scheme adapters hold no cross-segment state at
quiescence (the Proteus LLT flash clears at ``tx-end``; its log queue
is empty; ATOM's tracker has no outstanding request), which capture
also asserts, so fresh adapters are exact, not approximate.  The
byte-identity tests in ``tests/test_snapshot_roundtrip.py`` hold this
line for every scheme.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Mapping, Optional, Sequence

from repro.core.atom import AtomAdapter
from repro.core.proteus import ProteusAdapter
from repro.core.schemes import Scheme
from repro.isa.trace import OpTrace
from repro.obs.tracer import Tracer
from repro.parallel.cellspec import config_from_dict, config_to_dict
from repro.sim.simulator import Simulator
from repro.snapshot.format import (
    MachineSnapshot,
    SnapshotStateError,
)

if TYPE_CHECKING:  # runtime import would cycle: faults.harness uses us
    from repro.faults.harness import FaultInjector


def _assert_adapter_quiescent(sim: Simulator) -> None:
    """Check that no scheme adapter holds cross-segment state."""
    for core in sim.cores:
        adapter = core.adapter
        if isinstance(adapter, ProteusAdapter):
            if not adapter.quiesced():
                raise SnapshotStateError(
                    f"Proteus adapter on core {core.core_id} has in-flight "
                    f"log traffic"
                )
            if adapter.current_txid:
                raise SnapshotStateError(
                    f"Proteus adapter on core {core.core_id} is inside "
                    f"transaction {adapter.current_txid}"
                )
            if adapter.llt.occupancy():
                raise SnapshotStateError(
                    f"Proteus LLT on core {core.core_id} holds "
                    f"{adapter.llt.occupancy()} entries at a quiescent point"
                )
        elif isinstance(adapter, AtomAdapter):
            if not adapter.quiesced():
                raise SnapshotStateError(
                    f"ATOM adapter on core {core.core_id} has an "
                    f"outstanding log request"
                )


def capture_machine(
    sim: Simulator,
    workload_cursors: Optional[Mapping[int, Mapping[str, int]]] = None,
) -> MachineSnapshot:
    """Serialize a quiescent machine into a :class:`MachineSnapshot`.

    Requires that :meth:`~repro.sim.simulator.Simulator.run` completed
    (when the machine has cores) and that the machine is quiescent.
    ``workload_cursors`` records where each thread's op stream stands so
    resume can regenerate the continuation deterministically.
    """
    if sim.cores and sim.core_finish_cycle is None:
        raise SnapshotStateError("capture requires a completed run()")
    if not sim.quiescent():
        raise SnapshotStateError(
            "cannot capture a non-quiescent machine (cores running, "
            "events pending, or controller not drained)"
        )
    _assert_adapter_quiescent(sim)
    log_areas: Dict[int, int] = {}
    for thread_id, log_area in sim.log_areas.items():
        log_areas[thread_id] = int(log_area.state_dict()["cur"])
    sw_log_cursors: Dict[int, int] = {}
    if sim.scheme.is_software:
        for thread_id, generator in sim.codegens.items():
            sw_log_cursors[thread_id] = generator.sw_log_cursor
    cursors: Dict[int, Dict[str, int]] = {}
    if workload_cursors is not None:
        cursors = {
            int(thread): {key: int(value) for key, value in cursor.items()}
            for thread, cursor in workload_cursors.items()
        }
    return MachineSnapshot(
        scheme=sim.scheme.value,
        config=config_to_dict(sim.config),
        cycle=sim.engine.cycle,
        counters={str(k): int(v) for k, v in sim.stats.counters.items()},
        hierarchy=sim.hierarchy.state_dict(),
        memctrl=sim.memctrl.state_dict(),
        log_areas=log_areas,
        sw_log_cursors=sw_log_cursors,
        workload_cursors=cursors,
    )


def restore_machine(
    snapshot: MachineSnapshot,
    op_traces: Sequence[OpTrace],
    tracer: Optional[Tracer] = None,
    fault_injector: Optional["FaultInjector"] = None,
) -> Simulator:
    """Build a machine for ``op_traces`` in the snapshot's exact state.

    The continuation traces are lowered against the restored log
    cursors, then the captured caches, queues, NVM rows, clock, and
    counters are imposed.  A fault injector (warm crash campaigns)
    attaches only *after* the clock is restored so cycle-valued crash
    triggers land in continuation time.
    """
    scheme = Scheme(snapshot.scheme)
    config = config_from_dict(snapshot.config)
    thread_state: Dict[int, Dict[str, int]] = {}
    for thread_id, cur in snapshot.log_areas.items():
        thread_state.setdefault(thread_id, {})["log_area_cur"] = cur
    for thread_id, cur in snapshot.sw_log_cursors.items():
        thread_state.setdefault(thread_id, {})["sw_log_cursor"] = cur
    sim = Simulator(
        config,
        scheme,
        op_traces,
        tracer=tracer,
        warm=False,
        thread_state=thread_state,
    )
    sim.engine.cycle = snapshot.cycle
    sim.stats.counters.clear()
    sim.stats.counters.update(snapshot.counters)
    sim.hierarchy.load_state(snapshot.hierarchy)
    sim.memctrl.load_state(snapshot.memctrl)
    if fault_injector is not None:
        sim.fault_injector = fault_injector
        fault_injector.attach(sim)
    return sim
