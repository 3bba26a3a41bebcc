"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import Engine


def test_schedule_and_fire_in_order():
    engine = Engine()
    fired = []
    engine.schedule(5, lambda: fired.append("b"))
    engine.schedule(3, lambda: fired.append("a"))
    engine.schedule(5, lambda: fired.append("c"))
    engine.run_until_idle()
    assert fired == ["a", "b", "c"]
    assert engine.cycle == 5


def test_same_cycle_events_fire_in_scheduling_order():
    engine = Engine()
    fired = []
    for label in "abcde":
        engine.schedule(2, lambda l=label: fired.append(l))
    engine.run_until_idle()
    assert fired == list("abcde")


def test_fire_due_events_only_fires_due():
    engine = Engine()
    fired = []
    engine.schedule(0, lambda: fired.append("now"))
    engine.schedule(4, lambda: fired.append("later"))
    assert engine.fire_due_events() == 1
    assert fired == ["now"]
    engine.advance(4)
    assert engine.fire_due_events() == 1
    assert fired == ["now", "later"]


def test_negative_delay_rejected():
    engine = Engine()
    with pytest.raises(ValueError):
        engine.schedule(-1, lambda: None)


def test_schedule_at_absolute_cycle():
    engine = Engine()
    engine.advance(10)
    fired = []
    engine.schedule_at(15, lambda: fired.append(True))
    with pytest.raises(ValueError):
        engine.schedule_at(5, lambda: None)
    engine.run_until_idle()
    assert fired == [True]
    assert engine.cycle == 15


def test_advance_to_next_event_jumps_clock():
    engine = Engine()
    fired = []
    engine.schedule(100, lambda: fired.append(True))
    assert engine.advance_to_next_event()
    assert engine.cycle == 100
    assert fired == [True]
    assert not engine.advance_to_next_event()


def test_events_can_schedule_events():
    engine = Engine()
    fired = []

    def first():
        fired.append(1)
        engine.schedule(3, lambda: fired.append(2))

    engine.schedule(1, first)
    engine.run_until_idle()
    assert fired == [1, 2]
    assert engine.cycle == 4


def test_next_event_cycle_and_pending():
    engine = Engine()
    assert engine.next_event_cycle() is None
    assert engine.pending_events() == 0
    engine.schedule(7, lambda: None)
    assert engine.next_event_cycle() == 7
    assert engine.pending_events() == 1


def test_run_until_idle_guard():
    engine = Engine()

    def reschedule():
        engine.schedule(1, reschedule)

    engine.schedule(1, reschedule)
    with pytest.raises(RuntimeError):
        engine.run_until_idle(max_cycles=100)


def test_same_cycle_events_scheduled_during_firing_fire_same_pass():
    """Events that a firing callback schedules at the current cycle fire
    in the same pass, after the callback, in scheduling order."""
    engine = Engine()
    fired = []

    def chain():
        fired.append("first")
        engine.schedule(0, lambda: fired.append("chained-a"))
        engine.schedule(0, lambda: fired.append("chained-b"))

    engine.schedule(2, chain)
    engine.advance(2)
    assert engine.fire_due_events() == 3
    assert fired == ["first", "chained-a", "chained-b"]
