"""Unit tests for the statistics registry."""

import pytest

from repro.sim.stats import Stats, geometric_mean


def test_add_and_get():
    stats = Stats()
    assert stats.get("x") == 0
    stats.add("x")
    stats.add("x", 4)
    assert stats.get("x") == 5


def test_set_max_tracks_high_water():
    stats = Stats()
    stats.set_max("occ", 3)
    stats.set_max("occ", 1)
    stats.set_max("occ", 7)
    assert stats.get("occ") == 7


def test_set_max_first_observation_sticks_at_zero():
    # "observed at 0" must register the counter; only get() reports 0
    # for both this and the never-observed case.
    stats = Stats()
    stats.set_max("occ", 0)
    assert "occ" in stats.snapshot()
    assert stats.get("occ") == 0
    stats.set_max("occ", 2)
    assert stats.get("occ") == 2


def test_set_max_first_observation_sticks_when_negative():
    stats = Stats()
    stats.set_max("margin", -3)
    assert stats.snapshot()["margin"] == -3
    stats.set_max("margin", -5)
    assert stats.snapshot()["margin"] == -3
    stats.set_max("margin", -1)
    assert stats.snapshot()["margin"] == -1


def test_set_max_never_observed_absent_from_snapshot():
    stats = Stats()
    assert "occ" not in stats.snapshot()
    assert stats.get("occ") == 0


def test_ipc_zero_when_no_cycles():
    stats = Stats()
    assert stats.ipc() == 0.0
    stats.counters["cycles"] = 100
    stats.counters["retired_instructions"] = 250
    assert stats.ipc() == 2.5


def test_frontend_stall_breakdown():
    stats = Stats()
    stats.add("stall.rob", 10)
    stats.add("stall.lq", 5)
    stats.add("other", 99)
    assert stats.frontend_stalls() == 15
    assert stats.stall_breakdown() == {"rob": 10, "lq": 5}


def test_stall_breakdown_empty_without_stall_counters():
    stats = Stats()
    stats.add("retired_instructions", 10)
    assert stats.stall_breakdown() == {}
    assert stats.frontend_stalls() == 0


def test_stall_breakdown_keeps_dotted_cause_names():
    # Only the leading "stall." prefix is stripped; a cause containing a
    # dot keeps the remainder intact.
    stats = Stats()
    stats.add("stall.retire.fence", 4)
    assert stats.stall_breakdown() == {"retire.fence": 4}


def test_ipc_instructions_without_cycles():
    # Counters set but cycles never stamped: ipc() must not divide by 0.
    stats = Stats()
    stats.add("retired_instructions", 500)
    assert stats.ipc() == 0.0


def test_nvm_write_breakdown():
    stats = Stats()
    stats.add("nvm.write.data", 7)
    stats.add("nvm.write.log", 3)
    stats.add("nvm.reads", 5)
    assert stats.nvm_writes() == 10
    assert stats.nvm_write_breakdown() == {"data": 7, "log": 3}
    assert stats.nvm_reads() == 5


def test_llt_miss_rate():
    stats = Stats()
    assert stats.llt_miss_rate() == 0.0
    stats.add("llt.hits", 3)
    stats.add("llt.misses", 1)
    assert stats.llt_miss_rate() == pytest.approx(0.25)


def test_merge_sums_counters():
    a, b = Stats(), Stats()
    a.add("x", 2)
    b.add("x", 3)
    b.add("y", 1)
    a.merge(b)
    assert a.get("x") == 5
    assert a.get("y") == 1


def test_format_filters_by_prefix():
    stats = Stats()
    stats.add("nvm.write.data", 1)
    stats.add("stall.rob", 2)
    text = stats.format(["stall."])
    assert "stall.rob" in text
    assert "nvm.write.data" not in text


def test_geometric_mean():
    assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
    assert geometric_mean([]) == 1.0
    with pytest.raises(ValueError):
        geometric_mean([1.0, 0.0])


def test_snapshot_is_a_copy():
    stats = Stats()
    stats.add("x")
    snap = stats.snapshot()
    snap["x"] = 99
    assert stats.get("x") == 1
