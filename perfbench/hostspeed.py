"""Host speed probe: a fixed pure-Python kernel timed throughout each run.

The shared hosts this benchmark runs on change speed by tens of percent
from one minute to the next, and identical work then takes that much
longer.  Every repetition therefore times :func:`probe` when it starts,
after set-up, after every few cells and when it ends, and its host times
are reported scaled by ``NOMINAL_PROBE_S / median(its probe times)``:
seconds of a host on which the probe takes :data:`NOMINAL_PROBE_S`.  The
raw host seconds are printed beside them.

The kernel uses nothing from the simulator, so a change to the simulator
moves the scaled metrics exactly as much as the raw ones.  It works in a
small working set (under a megabyte) and pauses the cyclic collector, so
it moves neither the measured process's peak memory nor its collections.
"""

from __future__ import annotations

import gc
import heapq
import time
from typing import Dict, List, Optional, Tuple

#: Typical probe time inside a repetition on the 2-core sizing host.
NOMINAL_PROBE_S = 0.09


class _Node:
    __slots__ = ("key", "value", "next")

    def __init__(self, key: int, value: int, next_node: Optional["_Node"]) -> None:
        self.key = key
        self.value = value
        self.next = next_node


def probe() -> float:
    """Seconds one run of the reference kernel takes on this host now.

    Interpreter-bound like the simulator: small objects, dict updates
    and a heap.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table: Dict[int, int] = {}
        heap: List[Tuple[int, int]] = []
        head: Optional[_Node] = None
        total = 0
        for i in range(60_000):
            key = (i * 2654435761) & 4095
            node = _Node(key, i, head)
            head = node if i & 7 else None
            table[key] = table.get(key, 0) + node.value
            heapq.heappush(heap, (key, i))
            if len(heap) > 64:
                total += heapq.heappop(heap)[1]
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()
