"""Post-retirement store buffer.

Retired stores (and ``clwb``/``clflushopt``) wait here before touching
the cache.  The buffer drains in order at ``drain_per_cycle``; a drained
entry stays "in flight" (holding its store-queue slot) until its cache
write or flush acknowledgment completes.  The head may be held back by
the logging adapter — the Proteus rule that a store to a 32 B block with
an older pending log flush must not be released to the cache.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Optional

from repro.obs.tracer import NULL_TRACER, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cpu.ooo_core import DynInstr


class StoreBuffer:
    """In-order drain queue of retired store-class instructions."""

    def __init__(
        self,
        drain_per_cycle: int = 1,
        tracer: Optional[Tracer] = None,
        core_id: int = -1,
    ) -> None:
        self.drain_per_cycle = drain_per_cycle
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.core_id = core_id
        #: entries waiting to drain, oldest first
        self.queue: Deque["DynInstr"] = deque()
        self._in_flight = 0

    def push(self, dyn: "DynInstr") -> None:
        """Add a just-retired store-class instruction."""
        self.queue.append(dyn)
        if self.tracer.enabled:
            self.tracer.instant(
                "queue", "sb.push", tid=self.core_id, seq=dyn.seq,
                addr=dyn.instr.addr, occ=len(self.queue),
            )

    def pop_head(self) -> "DynInstr":
        """Remove the head for issue; caller must call :meth:`finished`
        when the issued operation completes."""
        self._in_flight += 1
        dyn = self.queue.popleft()
        if self.tracer.enabled:
            self.tracer.instant(
                "queue", "sb.drain", tid=self.core_id, seq=dyn.seq,
                addr=dyn.instr.addr, occ=len(self.queue),
            )
        return dyn

    def finished(self) -> None:
        """An issued entry's cache write / flush completed."""
        self._in_flight -= 1

    def is_empty(self) -> bool:
        """True when nothing is buffered *or* in flight (fence condition)."""
        return not self.queue and self._in_flight == 0

    def occupancy(self) -> int:
        """Entries waiting to drain (not counting in-flight ones)."""
        return len(self.queue)

    def in_flight(self) -> int:
        """Issued entries whose completion is pending."""
        return self._in_flight
