"""Unit tests for the pipeline front end and the store buffer."""


from repro.cpu.frontend import Frontend
from repro.cpu.store_buffer import StoreBuffer
from repro.cpu.ooo_core import DynInstr
from repro.isa.instructions import alu, load, store
from repro.isa.trace import InstructionTrace
from repro.sim.config import CoreConfig
from repro.sim.stats import Stats
from tests.test_ooo_core import build_core


def make_frontend(n=3):
    trace = InstructionTrace()
    for _ in range(n):
        trace.append(alu())
    stats = Stats()
    return Frontend(trace, stats), stats


def test_frontend_sequential_consume():
    # One instruction per cycle: the pc walks the trace in order.
    _, stats, core = build_core([alu() for _ in range(3)], CoreConfig(fetch_width=1))
    frontend = core.frontend
    assert frontend.instructions is frontend.trace.instructions
    dispatched = []
    while frontend.pc < len(frontend.instructions):
        assert core.tick()
        dispatched.append(core.rob[-1].instr)
    assert dispatched == list(frontend.trace.instructions)
    assert stats.get("dispatched_instructions") == 3


def test_stall_recorded_once_per_cycle_first_cause_wins():
    # After one load both the ROB and the load queue are full; the ROB is
    # checked first, so the cycle is blamed on it alone.
    config = CoreConfig(rob_entries=1, load_queue_entries=1)
    _, stats, core = build_core([load(0x1000), load(0x2000)], config)
    core.tick()
    core.tick()
    assert stats.get("stall.rob") == 1
    assert stats.get("stall.lq") == 0
    assert stats.frontend_stalls() == 1


def test_no_stall_when_something_dispatched():
    config = CoreConfig(rob_entries=2)
    _, stats, core = build_core([alu() for _ in range(3)], config)
    core.tick()  # dispatches two, then the ROB is full
    assert stats.get("dispatched_instructions") == 2
    assert stats.frontend_stalls() == 0


def test_no_stall_when_trace_exhausted():
    frontend, stats = make_frontend(1)
    frontend.pc = 1
    frontend.end_cycle("rob")
    assert stats.frontend_stalls() == 0


def test_unattributed_stall_counted_as_other():
    frontend, stats = make_frontend(2)
    frontend.end_cycle(None)
    assert stats.get("stall.other") == 1


def _dyn(seq):
    return DynInstr(store(0x1000 + 64 * seq, value=seq), seq)


def test_store_buffer_fifo():
    buffer = StoreBuffer()
    a, b = _dyn(0), _dyn(1)
    buffer.push(a)
    buffer.push(b)
    assert buffer.queue[0] is a
    assert buffer.pop_head() is a
    assert buffer.queue[0] is b


def test_store_buffer_in_flight_accounting():
    buffer = StoreBuffer()
    buffer.push(_dyn(0))
    buffer.pop_head()
    assert not buffer.is_empty()      # still in flight
    assert buffer.in_flight() == 1
    buffer.finished()
    assert buffer.is_empty()


def test_store_buffer_occupancy():
    buffer = StoreBuffer()
    assert buffer.occupancy() == 0
    for seq in range(3):
        buffer.push(_dyn(seq))
    assert buffer.occupancy() == 3
