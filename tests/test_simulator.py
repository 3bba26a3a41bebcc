"""Tests for the top-level simulator plumbing."""

import pytest

from repro.core.schemes import Scheme
from repro.sim.config import fast_nvm_config
from repro.sim.engine import SimulationHalted
from repro.sim.simulator import SimResult, Simulator, run_trace, run_workload
from repro.workloads.queue_wl import QueueWorkload
from repro.workloads.base import generate_traces


def test_run_workload_convenience():
    result = run_workload(
        QueueWorkload, Scheme.PMEM_NOLOG, threads=1, seed=3, init_ops=32, sim_ops=5
    )
    assert isinstance(result, SimResult)
    assert result.cycles > 0
    assert result.ipc > 0


def test_speedup_over():
    base = run_workload(
        QueueWorkload, Scheme.PMEM, threads=1, seed=3, init_ops=32, sim_ops=5
    )
    fast = run_workload(
        QueueWorkload, Scheme.PMEM_NOLOG, threads=1, seed=3, init_ops=32, sim_ops=5
    )
    assert fast.speedup_over(base) > 1.0
    assert base.speedup_over(base) == 1.0


def test_lpq_attached_only_for_sshl():
    traces = generate_traces(QueueWorkload, threads=1, seed=3, init_ops=32, sim_ops=3)
    config = fast_nvm_config(cores=1)
    for scheme in Scheme:
        sim = Simulator(config, scheme, traces)
        if scheme.is_sshl:
            assert sim.memctrl.lpq is not None
            assert sim.memctrl.log_write_removal == scheme.log_write_removal
        else:
            assert sim.memctrl.lpq is None


def test_sw_log_regions_registered_for_software_schemes():
    traces = generate_traces(QueueWorkload, threads=1, seed=3, init_ops=32, sim_ops=3)
    config = fast_nvm_config(cores=1)
    sw = Simulator(config, Scheme.PMEM, traces)
    assert sw.memctrl._log_regions
    hw = Simulator(config, Scheme.PROTEUS, traces)
    assert not hw.memctrl._log_regions


def test_max_cycles_guard():
    traces = generate_traces(QueueWorkload, threads=1, seed=3, init_ops=32, sim_ops=5)
    with pytest.raises(RuntimeError):
        run_trace(traces, Scheme.PMEM, fast_nvm_config(cores=1), max_cycles=10)


def test_max_cycles_bound_is_inclusive():
    # A budget of exactly the core-finish cycle succeeds; one cycle less
    # raises.  (The old check used ``>`` and silently granted one cycle
    # beyond the stated budget.)
    traces = generate_traces(QueueWorkload, threads=1, seed=3, init_ops=32, sim_ops=2)
    config = fast_nvm_config(cores=1)
    reference = Simulator(config, Scheme.PMEM, traces)
    full = reference.run()
    finish = reference.core_finish_cycle

    exact = Simulator(config, Scheme.PMEM, traces).run(max_cycles=finish)
    assert exact.cycles == full.cycles

    with pytest.raises(RuntimeError, match="budget"):
        Simulator(config, Scheme.PMEM, traces).run(max_cycles=finish - 1)


def test_final_drain_recovers_stranded_wpq():
    # Directly construct the state the old drain loop got wrong: entries
    # sitting in the WPQ with no event scheduled anywhere (the queue
    # idled after the device went quiet).  The old loop advanced to the
    # next event *first* and broke when there was none — returning with
    # persistent writes still pending.
    from repro.mem.wpq import QueueEntry

    traces = generate_traces(QueueWorkload, threads=1, seed=3, init_ops=16, sim_ops=2)
    sim = Simulator(fast_nvm_config(cores=1), Scheme.PMEM, traces)
    for index in range(5):
        sim.memctrl.wpq.submit(QueueEntry(0x10000 + 64 * index, category="data"))
    assert sim.engine.pending_events() == 0
    assert sim.memctrl.persistent_writes_pending()

    sim._final_drain()

    assert sim.memctrl.all_writes_retired()
    assert not sim.memctrl.drain_pending()
    assert sim.stats.counters["nvm.write.data"] == 5


def test_final_drain_flushes_nolwr_lpq_admission_backlog():
    # Proteus+NoLWR must drain *every* log entry, including those parked
    # in the LPQ admission queue when the flush snapshot is taken.
    from repro.mem.wpq import QueueEntry

    traces = generate_traces(QueueWorkload, threads=1, seed=3, init_ops=16, sim_ops=2)
    sim = Simulator(fast_nvm_config(cores=1), Scheme.PROTEUS_NOLWR, traces)
    lpq = sim.memctrl.lpq
    assert lpq is not None and not sim.memctrl.log_write_removal
    for index in range(lpq.capacity + 4):  # overflow into admission
        lpq.submit(QueueEntry(0x20000 + 64 * index, category="log",
                              thread_id=0, txid=1))
    assert lpq.waiting_admission() == 4
    assert sim.memctrl.drain_pending()

    sim._final_drain()

    assert lpq.is_empty()
    assert sim.memctrl.all_writes_retired()
    assert sim.stats.counters["nvm.write.log"] == lpq.capacity + 4


def test_memctrl_pump_is_public_and_idempotent():
    from repro.mem.wpq import QueueEntry

    traces = generate_traces(QueueWorkload, threads=1, seed=3, init_ops=16, sim_ops=2)
    sim = Simulator(fast_nvm_config(cores=1), Scheme.PMEM, traces)
    sim.memctrl.wpq.submit(QueueEntry(0x30000, category="data"))
    sim.memctrl.pump()
    sim.memctrl.pump()  # no-op on an already-dispatched queue
    assert sim.memctrl.wpq.is_empty()
    sim.engine.run_until_idle()
    assert sim.memctrl.all_writes_retired()


def test_final_drain_completes_write_accounting():
    result = run_workload(
        QueueWorkload, Scheme.PMEM, threads=1, seed=3, init_ops=32, sim_ops=5
    )
    # After the final drain nothing is pending at the controller.
    assert result.nvm_writes > 0


def test_stats_include_cycles():
    result = run_workload(
        QueueWorkload, Scheme.ATOM, threads=1, seed=3, init_ops=32, sim_ops=5
    )
    assert result.stats.cycles() == result.cycles


def test_config_replace_helpers():
    config = fast_nvm_config(cores=2)
    other = config.with_proteus(logq_entries=4)
    assert other.proteus.logq_entries == 4
    assert config.proteus.logq_entries == 16  # original untouched
    mem = config.with_memory(write_latency=1234)
    assert mem.memory.write_latency == 1234
    described = config.describe()
    assert "cores" in described and described["cores"] == "2"


def _halted_run(halt_cycle):
    traces = generate_traces(QueueWorkload, threads=1, seed=7, init_ops=32, sim_ops=10)
    sim = Simulator(fast_nvm_config(cores=1), Scheme.PROTEUS, traces)
    sim.engine.halt_at_cycle(halt_cycle)
    with pytest.raises(SimulationHalted) as excinfo:
        sim.run()
    return sim, excinfo.value


@pytest.mark.parametrize("halt_cycle", (1000, 7777, 20000))
def test_mid_run_halt_is_exact_and_deterministic(halt_cycle):
    """A halt (the fault injector's entry point) stops the run at exactly
    the requested cycle, and two identical runs halt with equal counters
    created in the same order."""
    first_sim, first_halt = _halted_run(halt_cycle)
    second_sim, _ = _halted_run(halt_cycle)
    assert first_halt.cycle == halt_cycle
    assert first_sim.engine.cycle == halt_cycle
    assert dict(first_sim.stats.counters) == dict(second_sim.stats.counters)
    assert list(first_sim.stats.counters) == list(second_sim.stats.counters)


def _sim_with_corruption(monkeypatch, corrupt):
    """A small Proteus machine whose state ``corrupt`` damages right
    after the final drain, before the end-of-run audit."""
    traces = generate_traces(QueueWorkload, threads=2, seed=3, init_ops=32, sim_ops=4)
    sim = Simulator(fast_nvm_config(cores=2), Scheme.PROTEUS, traces)
    drain = sim._final_drain

    def drain_then_corrupt():
        drain()
        corrupt(sim)

    monkeypatch.setattr(sim, "_final_drain", drain_then_corrupt)
    return sim


def test_core_audit_passes_on_a_clean_run(monkeypatch):
    sim = _sim_with_corruption(monkeypatch, lambda sim: None)
    result = sim.run()
    assert result.stats.get("dispatched_instructions") == result.stats.instructions()


def test_core_audit_raises_on_a_leaked_queue_slot(monkeypatch):
    def leak(sim):
        sim.cores[1].lq_used += 1

    sim = _sim_with_corruption(monkeypatch, leak)
    with pytest.raises(RuntimeError, match="core audit") as raised:
        sim.run()
    message = str(raised.value)
    assert "core1:" in message and "lq_used=1" in message
    assert "core0:" not in message


def test_core_audit_raises_on_dispatch_retire_mismatch(monkeypatch):
    def miscount(sim):
        sim.stats.counters["retired_instructions"] -= 1

    sim = _sim_with_corruption(monkeypatch, miscount)
    with pytest.raises(RuntimeError, match="dispatched=.* retired="):
        sim.run()
