"""Model-checker tests: clean streams stay clean, seeded bugs are found.

Three claims, each tied to an acceptance criterion of the checker:

* **soundness on clean streams** — exhaustive frontier enumeration over
  every failure-safe scheme's correct lowering yields zero findings, and
  a sabotaged recovery procedure turns the same streams into findings;
* **completeness on the verify corpus** — every known-crash-inconsistent
  stream in :data:`tests.corpus.VERIFY_CORPUS` produces a counterexample
  with a concrete minimal frontier, including at least one case the
  ordering linter cannot see;
* **budget agreement** — budgeted (stratified-sampling) runs report
  honest coverage and agree with the exhaustive verdict on the corpus.
"""

import pytest

from repro.core.schemes import Scheme
from repro.isa.instructions import Kind
from repro.isa.ops import Op, TxRecord
from repro.isa.trace import OpTrace
from repro.lint import lint_instruction_trace
from repro.lint.runner import layout_for_thread, lower_for_lint
from repro.verify import (
    VERIFY_RULES,
    render_json,
    render_text,
    report_dict,
    verify_instruction_trace,
    verify_op_traces,
)
from repro.workloads.queue_wl import QueueWorkload
from tests.corpus import VERIFY_CORPUS, clean_op_trace, clean_trace

FAILURE_SAFE = tuple(s for s in Scheme if s.failure_safe)


def two_tx_trace():
    """Two hand-written transactions that overlap on one line."""
    trace = OpTrace(thread_id=0)
    trace.initial_image = {0x1000: 1, 0x1040: 2, 0x1080: 3}
    tx1 = TxRecord(txid=1)
    tx1.body = [Op.write(0x1000, 10), Op.write(0x1040, 11)]
    tx1.log_candidates = [(0x1000, 64), (0x1040, 64)]
    tx2 = TxRecord(txid=2)
    tx2.body = [Op.write(0x1040, 20), Op.write(0x1080, 21)]
    tx2.log_candidates = [(0x1040, 64), (0x1080, 64)]
    trace.append(tx1)
    trace.append(tx2)
    return trace


def queue_seed3_trace():
    return QueueWorkload(thread_id=0, seed=3, init_ops=8, sim_ops=3).generate()


#: Clean op traces; the corpus trace keeps the bare scheme as its test id.
CLEAN_INPUTS = {
    "corpus": clean_op_trace,
    "two-tx": two_tx_trace,
    "queue-seed3": queue_seed3_trace,
}


def _verify_case(case, **kwargs):
    op_trace = clean_op_trace()
    scheme = Scheme.parse(case.scheme)
    _, layout = lower_for_lint(op_trace, scheme)
    return verify_instruction_trace(
        case.buggy_trace(),
        scheme,
        layout=layout,
        initial_image=op_trace.initial_image,
        workload=case.name,
        **kwargs,
    )


@pytest.mark.parametrize(
    "scheme,inputs",
    [
        pytest.param(
            scheme,
            inputs,
            id=str(scheme) if inputs == "corpus" else f"{scheme}-{inputs}",
        )
        for inputs in CLEAN_INPUTS
        for scheme in FAILURE_SAFE
    ],
)
def test_clean_streams_verify_clean(scheme, inputs):
    """No false positives: the correct lowering has no bad frontier."""
    op_trace = CLEAN_INPUTS[inputs]()
    report = verify_op_traces([op_trace], scheme)
    assert report.clean, render_text(report)
    assert report.exhaustive
    assert report.coverage == 1.0
    assert report.positions > 0
    assert report.frontiers_checked > 0


def test_repeated_stores_to_one_block_log_it_each_time():
    """Proteus lowering logs a 32 B block before every store to it; the
    duplicate entries check out because recovery keeps the earliest."""
    trace = OpTrace(thread_id=0)
    trace.initial_image = {0x1000: 1, 0x1008: 2, 0x1010: 3}
    tx = TxRecord(txid=1)
    tx.body = [Op.write(0x1000, 10), Op.write(0x1008, 11), Op.write(0x1010, 12)]
    tx.log_candidates = [(0x1000, 32)]
    trace.append(tx)
    lowered, _ = lower_for_lint(trace, Scheme.PROTEUS)
    kinds = [instr.kind for instr in lowered if instr.kind is not Kind.TX_BEGIN]
    assert kinds[:9] == [Kind.LOG_LOAD, Kind.LOG_FLUSH, Kind.STORE] * 3
    assert {instr.addr for instr in lowered if instr.kind is Kind.LOG_FLUSH} == {
        0x1000
    }
    report = verify_op_traces([trace], Scheme.PROTEUS)
    assert report.clean, render_text(report)
    assert report.exhaustive


@pytest.mark.parametrize("scheme", [Scheme.PMEM, Scheme.PROTEUS], ids=str)
def test_sabotaged_recovery_is_caught(monkeypatch, scheme):
    """The verdict comes from running recovery: a "recovery" that undoes
    nothing turns the clean two-transaction stream into findings."""
    import repro.persistence.recovery as recovery_mod

    assert verify_op_traces([two_tx_trace()], scheme).clean
    monkeypatch.setattr(recovery_mod, "recover", lambda image: dict(image.durable))
    report = verify_op_traces([two_tx_trace()], scheme)
    assert not report.clean


@pytest.mark.parametrize("case", VERIFY_CORPUS, ids=lambda c: c.name)
def test_verify_corpus_case_is_counterexampled(case):
    report = _verify_case(case, max_findings=3)
    assert not report.clean, f"{case.name}: checker missed the seeded bug"
    for finding in report.findings:
        assert finding.rule in VERIFY_RULES
        assert finding.message
        assert finding.timeline, "counterexample must carry its timeline"
        assert "--- crash" in "\n".join(finding.timeline)


@pytest.mark.parametrize("case", VERIFY_CORPUS, ids=lambda c: c.name)
def test_verify_corpus_minimal_frontier_is_concrete(case):
    """The minimized frontier names real lines with real version windows."""
    report = _verify_case(case, max_findings=1)
    (finding,) = report.findings
    for deviation in finding.deviations:
        assert deviation.floor <= deviation.version <= deviation.executed
        assert deviation.version != deviation.floor, (
            "minimization must strip floor-level (guaranteed) choices"
        )
        assert deviation.region in ("data", "sw-log", "hw-log", "flag")


@pytest.mark.parametrize("case", VERIFY_CORPUS, ids=lambda c: c.name)
def test_lint_verdict_matches_corpus_annotation(case):
    """``lint_detects`` pins what the ordering linter sees; the checker
    must strictly subsume it on this corpus."""
    result = lint_instruction_trace(case.buggy_trace(), case.scheme)
    if case.lint_detects:
        assert result.errors >= 1, f"{case.name}: lint was expected to flag this"
    else:
        assert result.errors == 0, (
            f"{case.name}: annotated lint-invisible but lint found "
            f"{result.codes()}"
        )


def test_corpus_contains_a_lint_miss():
    """At least one seeded inconsistency must be invisible to lint —
    the gap that justifies the checker."""
    assert any(not case.lint_detects for case in VERIFY_CORPUS)


@pytest.mark.parametrize("case", VERIFY_CORPUS, ids=lambda c: c.name)
def test_budgeted_run_agrees_with_exhaustive(case):
    """Stratified sampling under a tight budget still finds every corpus
    bug, and reports honest sub-1.0 coverage when it actually samples."""
    exhaustive = _verify_case(case, max_findings=1)
    budgeted = _verify_case(case, budget=16, seed=3, max_findings=1)
    assert not exhaustive.clean
    assert not budgeted.clean, (
        f"{case.name}: budget=16 sampling missed a bug the exhaustive "
        f"run proves exists"
    )
    assert budgeted.frontiers_checked <= exhaustive.frontiers_checked
    if not budgeted.exhaustive:
        assert budgeted.coverage < 1.0


def test_budgeted_clean_stream_stays_clean():
    scheme = Scheme.parse("pmem")
    op_trace = clean_op_trace()
    report = verify_op_traces([op_trace], scheme, budget=8, seed=5)
    assert report.clean, render_text(report)
    assert 0.0 < report.coverage <= 1.0


def test_non_failure_safe_scheme_is_rejected():
    trace = clean_trace("pmem")
    with pytest.raises(ValueError, match="failure safe"):
        verify_instruction_trace(trace, Scheme.PMEM_NOLOG)


def test_bad_budget_is_rejected():
    trace = clean_trace("pmem")
    with pytest.raises(ValueError, match="budget"):
        verify_instruction_trace(trace, Scheme.PMEM, budget=0)


def test_layout_threading_matches_lint():
    """The checker and the linter must agree on the per-thread layout."""
    op_trace = clean_op_trace()
    lowered, layout = lower_for_lint(op_trace, Scheme.PMEM)
    assert layout == layout_for_thread(op_trace.thread_id)
    report = verify_instruction_trace(
        lowered, Scheme.PMEM, layout=layout,
        initial_image=op_trace.initial_image,
    )
    assert report.clean


def test_report_json_shape():
    case = next(c for c in VERIFY_CORPUS if not c.lint_detects)
    report = _verify_case(case, max_findings=2)
    doc = report_dict(report)
    assert doc["version"] == 1
    assert doc["tool"] == "persist-verify"
    assert doc["summary"]["findings"] == len(report.findings) > 0
    assert doc["summary"]["clean"] is False
    for entry in doc["findings"]:
        assert entry["rule"] in VERIFY_RULES
        assert entry["timeline"]
    # the multi-report wrapper nests the same documents
    import json

    wrapped = json.loads(render_json([report, report]))
    assert len(wrapped["results"]) == 2
    assert wrapped["results"][0] == doc
