"""Crash-injection and recovery tests across schemes and phases."""

import pytest

from repro.core.schemes import Scheme
from repro.persistence.crash import (
    CrashImage,
    CrashPoint,
    InvariantViolation,
    Phase,
    crash_image,
)
from repro.persistence.model import build_functional_txs, image_after, images_equal
from repro.persistence.recovery import RecoveryError, recover, verify_atomicity
from repro.workloads import LinkedListWorkload
from repro.workloads.queue_wl import QueueWorkload

SAFE_SCHEMES = [Scheme.PMEM, Scheme.PMEM_PCOMMIT, Scheme.ATOM,
                Scheme.PROTEUS, Scheme.PROTEUS_NOLWR]


@pytest.fixture(scope="module")
def queue_setup():
    wl = QueueWorkload(thread_id=0, seed=23, init_ops=40, sim_ops=15)
    return wl.generate()


def phases_for(scheme):
    phases = [Phase.BEFORE, Phase.IN_FLIGHT, Phase.FLUSHED, Phase.COMMITTED]
    if scheme.is_software:
        phases += [Phase.LOGGING, Phase.FLAGGED]
    return phases


@pytest.mark.parametrize("scheme", SAFE_SCHEMES)
def test_recovery_restores_whole_transactions(queue_setup, scheme):
    initial, txs = build_functional_txs(queue_setup, scheme)
    for k in range(len(txs)):
        for phase in phases_for(scheme):
            image = crash_image(initial, txs, scheme, CrashPoint(k, phase))
            recovered = recover(image)
            expected_k = k + 1 if phase is Phase.COMMITTED else k
            expected = image_after(initial, txs, expected_k)
            assert images_equal(recovered, expected), (scheme, k, phase)


@pytest.mark.parametrize("scheme", [Scheme.PROTEUS, Scheme.ATOM])
def test_partial_data_durability_recovers(queue_setup, scheme):
    """Only some written lines persisted (cache evictions) — undo works."""
    initial, txs = build_functional_txs(queue_setup, scheme)
    k = len(txs) // 2
    tx = txs[k]
    n = len(tx.written_lines)
    for subset_mask in range(1 << min(n, 4)):
        data = frozenset(i for i in range(n) if subset_mask & (1 << i))
        crash = CrashPoint(k, Phase.IN_FLIGHT, log_durable=None, data_durable=data)
        image = crash_image(initial, txs, scheme, crash)
        recovered = recover(image)
        assert images_equal(recovered, image_after(initial, txs, k))


def test_atomicity_verifier(queue_setup):
    initial, txs = build_functional_txs(queue_setup, Scheme.PROTEUS)
    candidates = [image_after(initial, txs, k) for k in range(len(txs) + 1)]
    image = crash_image(initial, txs, Scheme.PROTEUS, CrashPoint(4, Phase.FLUSHED))
    recovered = recover(image)
    assert verify_atomicity(recovered, candidates) == 4
    committed = crash_image(
        initial, txs, Scheme.PROTEUS, CrashPoint(4, Phase.COMMITTED)
    )
    assert verify_atomicity(recover(committed), candidates) == 5


def test_invariant_violation_detected(queue_setup):
    """Data durable without its log entry is rejected by construction."""
    initial, txs = build_functional_txs(queue_setup, Scheme.PROTEUS)
    k = next(i for i, tx in enumerate(txs) if tx.written_lines)
    crash = CrashPoint(
        k, Phase.IN_FLIGHT, log_durable=frozenset(), data_durable=frozenset({0})
    )
    with pytest.raises(InvariantViolation):
        crash_image(initial, txs, Scheme.PROTEUS, crash)


def test_violating_the_invariant_breaks_atomicity(queue_setup):
    """Demonstrate *why* the LogQ ordering rule exists: skip it and
    recovery no longer lands on a transaction boundary."""
    initial, txs = build_functional_txs(queue_setup, Scheme.PROTEUS)
    candidates = [image_after(initial, txs, k) for k in range(len(txs) + 1)]
    # Find a tx whose durable-data-without-log crash is inconsistent.
    for k, tx in enumerate(txs):
        if not tx.written_lines:
            continue
        crash = CrashPoint(
            k, Phase.IN_FLIGHT, log_durable=frozenset(),
            data_durable=frozenset({0}),
        )
        image = crash_image(
            initial, txs, Scheme.PROTEUS, crash, enforce_invariant=False
        )
        recovered = recover(image)
        try:
            verify_atomicity(recovered, candidates)
        except RecoveryError:
            return  # atomicity violated, as expected
    pytest.fail("expected at least one inconsistent crash state")


def test_unenforced_sw_violation_is_caught_by_recovery_check():
    # Multi-line, multi-entry transactions (4 lines / 5+ log entries).
    trace = LinkedListWorkload(
        thread_id=0, seed=5, init_ops=6, sim_ops=3, elements_per_node=32
    ).generate()
    initial, txs = build_functional_txs(trace, Scheme.PMEM)
    candidates = [image_after(initial, txs, i) for i in range(len(txs) + 1)]
    caught = 0
    for k, tx in enumerate(txs):
        if len(tx.written_lines) < 2:
            continue
        # Flag clear, log absent, but half the data lines durable: the
        # Figure-2 fences forbid this; from_machine_state must refuse it
        # when enforcing and recovery checking must catch it otherwise.
        half = frozenset(tx.written_lines[: len(tx.written_lines) // 2])
        with pytest.raises(InvariantViolation):
            CrashImage.from_machine_state(
                Scheme.PMEM,
                initial,
                txs,
                committed=k,
                inflight_active=True,
                durable_data_lines=half,
                logflag=0,
                sw_log_entries=[],
            )
        image = CrashImage.from_machine_state(
            Scheme.PMEM,
            initial,
            txs,
            committed=k,
            inflight_active=True,
            durable_data_lines=half,
            logflag=0,
            sw_log_entries=[],
            enforce_invariant=False,
        )
        recovered = recover(image)
        try:
            verify_atomicity(recovered, candidates)
        except RecoveryError:
            caught += 1
    assert caught >= 1


def test_nolog_cannot_recover(queue_setup):
    initial, txs = build_functional_txs(queue_setup, Scheme.PMEM_NOLOG)
    image = crash_image(
        initial, txs, Scheme.PMEM_NOLOG, CrashPoint(2, Phase.IN_FLIGHT,
                                                    data_durable=frozenset({0}))
    )
    with pytest.raises(RecoveryError):
        recover(image)


def test_sw_partial_log_before_flag_is_harmless(queue_setup):
    """Crash during step 1: the flag is clear, garbage log is ignored."""
    initial, txs = build_functional_txs(queue_setup, Scheme.PMEM)
    for subset in (frozenset(), frozenset({0})):
        image = crash_image(
            initial, txs, Scheme.PMEM, CrashPoint(3, Phase.LOGGING, log_durable=subset)
        )
        recovered = recover(image)
        assert images_equal(recovered, image_after(initial, txs, 3))


def test_duplicate_entries_earliest_wins():
    """With a tiny LLT, re-logged blocks carry intra-tx values; recovery
    must prefer the earliest entry (paper section 4.2)."""
    from repro.isa.ops import Op, TxRecord
    from repro.isa.trace import OpTrace

    trace = OpTrace(thread_id=0)
    trace.initial_image = {0x1000: 1, 0x1020: 2, 0x1040: 3}
    tx = TxRecord(txid=1)
    tx.body = [
        Op.write(0x1000, 100),
        Op.write(0x1020, 101),
        Op.write(0x1040, 102),
        Op.write(0x1000, 103),
    ]
    tx.log_candidates = [(0x1000, 128)]
    trace.append(tx)
    initial, txs = build_functional_txs(trace, Scheme.PROTEUS, llt_capacity=2)
    image = crash_image(initial, txs, Scheme.PROTEUS, CrashPoint(0, Phase.FLUSHED))
    recovered = recover(image)
    assert recovered[0x1000] == 1  # earliest pre-image, not 100
    assert images_equal(recovered, image_after(initial, txs, 0))
