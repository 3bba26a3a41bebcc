"""Static <-> dynamic cross-validation of the crash-correctness pipeline.

The fault campaign (:mod:`repro.faults`) injects durability violations
*dynamically* — dropping WPQ/LPQ admissions on a timing machine — and
detection comes from recovery checking at sampled crash points.  Each
such mode that is expressible as a stream mutation has a *static
analog*: mutate the lowered stream so the same writes never persist,
and both static checkers must fire on the result:

* the model checker (:mod:`repro.verify`) must find a counterexample by
  exhaustive frontier enumeration — the static side is a **superset**
  of the dynamic side;
* ``persist-lint`` (:mod:`repro.lint`) must raise the analog's expected
  diagnostic code — the ordering shape is broken too.

:data:`STREAM_ANALOGS` is the one table of analogs.  A silent checker on
an analog mode means that checker has a hole.  The converse failures —
checker findings with no dynamic analog — are triaged explicitly:
value-level bugs (a corrupted log payload) are invisible to the
campaign's admission-drop vocabulary but caught statically, which is
exactly the checker's value-add.

Modes with no static analog (``torn`` tears a line mid-drain; ATOM's
``drop-log`` drops entries hardware generates at retirement, which never
appear in the stream) are recorded as dynamic-only by design — they are
why the campaign continues to exist alongside the checker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Union

from repro.core.codegen import ThreadLayout
from repro.core.schemes import Scheme
from repro.faults.campaign import VIOLATION_MODES, resolve_workload, run_campaign
from repro.isa.trace import InstructionTrace
from repro.lint.diagnostics import LintResult
from repro.lint.mutate import drop_clwb_tagged_every, drop_log_flush_every
from repro.lint.runner import lint_instruction_trace, lower_for_lint
from repro.verify.checker import CheckReport, verify_instruction_trace


class StreamAnalog(NamedTuple):
    """The static counterpart of one fault-campaign mode."""

    #: ``mutate(trace, every)`` drops every ``every``-th matching write,
    #: the way the fault injector drops periodically.
    mutate: Callable[[InstructionTrace, int], InstructionTrace]
    #: the lint code the mutated stream must raise.
    lint_code: str


#: scheme logging style -> fault mode -> static analog.
STREAM_ANALOGS: Dict[str, Dict[str, StreamAnalog]] = {
    "software": {
        # Dropped log-area write-backs leave entries that never become
        # durable before their data stores.
        "drop-log": StreamAnalog(
            lambda trace, every: drop_clwb_tagged_every(trace, "log", every),
            "P002",
        ),
        # Dropped logFlag write-backs leave flag transitions unfenced.
        "drop-flag": StreamAnalog(
            lambda trace, every: drop_clwb_tagged_every(trace, "logflag", every),
            "P003",
        ),
        "drop-data": StreamAnalog(
            lambda trace, every: drop_clwb_tagged_every(trace, "", every),
            "P005",
        ),
    },
    "sshl": {
        # Dropped log-flushes remove undo coverage entirely.
        "drop-log": StreamAnalog(
            lambda trace, every: drop_log_flush_every(trace, every),
            "P001",
        ),
        "drop-data": StreamAnalog(
            lambda trace, every: drop_clwb_tagged_every(trace, "", every),
            "P005",
        ),
    },
    "hardware": {
        "drop-data": StreamAnalog(
            lambda trace, every: drop_clwb_tagged_every(trace, "", every),
            "P005",
        ),
    },
}

#: Why a (style, mode) pair has no static analog.  These are triaged,
#: not ignored: each entry documents a dynamic-only failure class.
DYNAMIC_ONLY: Dict[str, str] = {
    "torn": "tears a line mid-drain; the stream never contains the tear",
    "hardware/drop-log": (
        "ATOM log entries are generated at store retirement and never "
        "appear in the stream"
    ),
    "sshl/drop-flag": "SSHL schemes have no logFlag writes to drop",
    "hardware/drop-flag": "hardware schemes have no logFlag writes to drop",
}


def analog_for(scheme: Union[Scheme, str], mode: str) -> Optional[StreamAnalog]:
    """The static analog of fault mode ``mode`` under ``scheme``, or None
    when the mode is dynamic-only."""
    scheme = Scheme.parse(scheme)
    return STREAM_ANALOGS.get(scheme.logging_style, {}).get(mode)


def dynamic_only_reason(scheme: Union[Scheme, str], mode: str) -> str:
    """Triage note for a mode without a static analog under ``scheme``."""
    scheme = Scheme.parse(scheme)
    return DYNAMIC_ONLY.get(
        f"{scheme.logging_style}/{mode}", DYNAMIC_ONLY.get(mode, "")
    )


@dataclass
class StaticVerdict:
    """Both static checkers' verdicts on one analog-mutated stream."""

    lint_code: str
    lint: LintResult
    verify: CheckReport

    @property
    def findings(self) -> int:
        """Model-checker counterexamples on the mutated stream."""
        return len(self.verify.findings)

    @property
    def lint_flagged(self) -> bool:
        """True when lint raised the expected code at least once."""
        return bool(self.lint.by_code(self.lint_code))


def static_verdict(
    scheme: Union[Scheme, str],
    mode: str,
    lowered: InstructionTrace,
    layout: ThreadLayout,
    initial_image: Optional[Dict[int, int]] = None,
    every: int = 1,
    budget: Optional[int] = None,
    seed: int = 1,
) -> StaticVerdict:
    """Apply the static analog of ``mode`` to a lowered stream and run
    both static checkers on the result.

    The model checker stops at the first counterexample: existence is
    what the superset claim needs.  Raises :class:`ValueError` for modes
    without a static analog.
    """
    scheme = Scheme.parse(scheme)
    analog = analog_for(scheme, mode)
    if analog is None:
        raise ValueError(
            f"fault mode {mode!r} has no static analog under {scheme} "
            f"(logging style {scheme.logging_style!r})"
        )
    mutated = analog.mutate(lowered, every)
    label = f"<{mode} analog>"
    return StaticVerdict(
        lint_code=analog.lint_code,
        lint=lint_instruction_trace(mutated, scheme, workload=label),
        verify=verify_instruction_trace(
            mutated,
            scheme,
            layout=layout,
            initial_image=initial_image,
            workload=label,
            budget=budget,
            seed=seed,
            max_findings=1,
        ),
    )


@dataclass
class CrossValCase:
    """One fault mode's verdicts on both sides of the validation."""

    scheme: Scheme
    mode: str
    #: inconsistencies the dynamic campaign recorded.
    dynamic_inconsistent: int
    #: both static verdicts on the analog stream (None when no analog).
    static: Optional[StaticVerdict] = None
    #: triage note for dynamic-only modes.
    note: str = ""

    @property
    def holds(self) -> bool:
        """Both static checkers catch the analog, so anything the campaign
        caught with an analog is also caught statically."""
        if self.static is None:
            return bool(self.note)  # dynamic-only must be triaged, not silent
        return self.static.findings > 0 and self.static.lint_flagged


@dataclass
class CrossValResult:
    """Verdict of one (scheme, workload) static/dynamic cross-validation."""

    scheme: Scheme
    workload: str
    cases: List[CrossValCase] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(case.holds for case in self.cases)

    def report(self) -> str:
        lines = [
            f"verify-crossval: scheme={self.scheme} workload={self.workload} "
            f"-> {'PASS' if self.passed else 'FAIL'}"
        ]
        for case in self.cases:
            if case.static is not None:
                lint = "hit" if case.static.lint_flagged else "MISS"
                status = (
                    f"campaign={case.dynamic_inconsistent} "
                    f"verify={case.static.findings} "
                    f"lint={case.static.lint_code}:{lint} "
                    f"{'ok' if case.holds else 'HOLE'}"
                )
            else:
                status = f"dynamic-only ({case.note or 'UNTRIAGED'})"
            lines.append(f"  {case.mode:<10} {status}")
        return "\n".join(lines) + "\n"


def cross_validate(
    scheme: Union[Scheme, str],
    workload: Union[str, type] = "QE",
    crashes: int = 12,
    seed: int = 1,
    budget: Optional[int] = None,
    modes: Optional[List[str]] = None,
    **workload_kwargs: int,
) -> CrossValResult:
    """Run both sides of the validation for every violation mode.

    The dynamic side runs one small crash campaign per mode; the static
    side lowers the same workload trace once and, per mode with an
    analog, records the model checker's and the linter's verdicts on
    the mutated stream.
    """
    scheme = Scheme.parse(scheme)
    workload_cls = resolve_workload(workload)
    result = CrossValResult(scheme=scheme, workload=workload_cls.name)

    from repro.workloads.base import generate_traces

    (op_trace,) = generate_traces(
        workload_cls, threads=1, seed=seed, **workload_kwargs
    )
    lowered, layout = lower_for_lint(op_trace, scheme)
    for mode in modes if modes is not None else list(VIOLATION_MODES):
        campaign = run_campaign(
            scheme,
            workload_cls,
            crashes=crashes,
            seed=seed,
            threads=1,
            mode=mode,
            **workload_kwargs,
        )
        case = CrossValCase(
            scheme=scheme,
            mode=mode,
            dynamic_inconsistent=campaign.inconsistent,
        )
        if analog_for(scheme, mode) is None:
            case.note = dynamic_only_reason(scheme, mode)
        else:
            case.static = static_verdict(
                scheme,
                mode,
                lowered,
                layout,
                initial_image=op_trace.initial_image,
                budget=budget,
                seed=seed,
            )
        result.cases.append(case)
    return result
