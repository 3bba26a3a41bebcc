"""Pipeline front end: trace feed plus dispatch-stall attribution.

The paper's Figure 7 reports front-end stall cycles — cycles in which no
instruction could dispatch because a back-end resource (ROB, load/store
queue, log registers, LogQ) was exhausted.  The front end records one
stall per cycle, attributed to the first blocking resource encountered.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.isa.trace import InstructionTrace
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim.stats import Stats


class Frontend:
    """Sequential instruction supply with stall accounting."""

    def __init__(
        self,
        trace: InstructionTrace,
        stats: Stats,
        core_id: int = 0,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.trace = trace
        #: the trace's own instruction list, shared (not copied): an
        #: instruction inserted into the trace after the machine is built
        #: is dispatched too, so the length is never cached.
        self.instructions = trace.instructions
        self.stats = stats
        self.core_id = core_id
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.pc = 0
        #: stall cause -> its counter name, built once per cause
        self._stall_counters: Dict[str, str] = {}

    def end_cycle(self, cause: Optional[str]) -> None:
        """Close a cycle in which nothing dispatched.

        It counts as a front-end stall unless the trace is exhausted, and
        is blamed on ``cause`` (the first blocking resource), else on
        ``"other"``.
        """
        if self.pc < len(self.instructions):
            cause = cause or "other"
            name = self._stall_counters.get(cause)
            if name is None:
                name = self._stall_counters[cause] = f"stall.{cause}"
            self.stats.counters[name] += 1
            if self.tracer.enabled:
                self.tracer.instant("stall", cause, tid=self.core_id, pc=self.pc)
