"""Functional persistence model: crash injection and recovery.

The timing simulator (:mod:`repro.sim`) answers *how fast*; this package
answers *is it correct*.  It replays the same workload traces through a
word-granular functional model of the persistency domain, lets a test
crash the machine at any transaction phase with any writeback
interleaving the scheme's ordering rules permit, runs the scheme's
recovery procedure, and checks transaction atomicity: the recovered
image must equal the image after some whole number of committed
transactions.

The nondeterministic choices (which log entries and which data lines
were durable at the crash) are explicit parameters, which makes the
model ideal for property-based testing with hypothesis.
"""

from repro.persistence.crash import (
    CrashImage,
    CrashPoint,
    InvariantViolation,
    Phase,
    crash_image,
)
from repro.persistence.model import (
    FunctionalTx,
    LogEntry,
    build_functional_txs,
    image_after,
    images_equal,
)
from repro.persistence.recovery import (
    RecoveryError,
    RecoveryVerdict,
    check_recovery,
    recover,
    recovery_cost,
    verify_atomicity,
)

__all__ = [
    "CrashImage",
    "CrashPoint",
    "FunctionalTx",
    "InvariantViolation",
    "LogEntry",
    "Phase",
    "RecoveryError",
    "RecoveryVerdict",
    "check_recovery",
    "build_functional_txs",
    "crash_image",
    "image_after",
    "images_equal",
    "recover",
    "recovery_cost",
    "verify_atomicity",
]
