"""Benchmark of the Proteus simulator: end-to-end host metrics per workload.

    python3 perfbench/run.py --workload setup-avl|sweep-fig6 \
        --seed N --seconds S --trace 0|1

Each repetition runs in a fresh process (``rep.py``) with an empty result
cache directory, so no repetition profits from state another one left.
An untraced run repeats the workload until ``--seconds`` would be
exceeded (at least once) and reports medians of host times scaled by the
host speed each repetition saw (``hostspeed.py``); set-up is repeated on
its own until there are at least five set-up samples.  A traced run
alternates an untraced and a traced repetition, reports the per-layer
metrics of ``layers.py`` and the tracing overhead (scaled the same way),
and requires the two repetitions to have produced identical ``Stats``.
Workload names and metric units are read from ``BENCHMARK.json``.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  All files go under ``.perfbench-run/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from hostspeed import NOMINAL_PROBE_S
from layers import LAYER_MOVES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-run"
DIGESTS = HERE / "digests.json"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [workload["name"] for workload in SPEC["workloads"]]
#: Metric name -> unit, for the untraced and the traced result line.
END_TO_END = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}

#: A benchmark run may take 180 s; stop starting work well before.
DEADLINE_S = 170.0
MIN_SETUP_SAMPLES = 5


class RepetitionFailed(RuntimeError):
    """A repetition process exited abnormally or printed no result."""


def repetition(
    workload: str,
    seed: int,
    deadline: float,
    trace: bool = False,
    setup_only: bool = False,
    spans: Optional[Path] = None,
    tiny: bool = False,
) -> Dict[str, Any]:
    """Run ``rep.py`` once in a fresh process and return its result.

    ``tiny`` shrinks the workload to a plumbing smoke (tests only).
    """
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=WORK / "tmp")
    command = [
        sys.executable, str(HERE / "rep.py"), "--workload", workload,
        "--seed", str(seed), "--cache-dir", cache_dir, "--trace", str(int(trace)),
    ]
    if setup_only:
        command.append("--setup-only")
    if spans is not None:
        command += ["--spans", str(spans)]
    if tiny:
        command.append("--tiny")
    try:
        proc = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise RepetitionFailed(f"{workload} repetition ran past the deadline") from exc
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RepetitionFailed(
            f"{workload} repetition exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def recorded_digests(workload: str, seed: int) -> Optional[Dict[str, str]]:
    if not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed))


def digests_of(rep: Dict[str, Any]) -> Dict[str, str]:
    return {cell["cell"]: cell.get("digest", "") for cell in rep["cells"]}


def quartiles(values: List[float]) -> str:
    median = statistics.median(values)
    if len(values) < 2:
        return f"{median:.4g}, 1 sample"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{median:.4g}, median of {len(values)}, quartiles {q1:.4g}..{q3:.4g}"


def report_cells(workload: str, seed: int, reps: List[Dict[str, Any]]) -> bool:
    """Print per-cell digests and checks; False if reps disagree."""
    first = digests_of(reps[0])
    for cell in reps[0]["cells"]:
        status = "ok" if not cell["failed"] else "FAILED: " + "; ".join(cell["failed"])
        print(f"  cell {cell['cell']:<22} digest {cell.get('digest', '-'):<16} {status}")
    consistent = all(digests_of(rep) == first for rep in reps[1:])
    if not consistent:
        print("  digests differ between repetitions of the same seed")
    observed = WORK / "digests" / f"{workload}-seed{seed}.json"
    observed.parent.mkdir(parents=True, exist_ok=True)
    observed.write_text(json.dumps(first, indent=1, sort_keys=True) + "\n")
    recorded = recorded_digests(workload, seed)
    if recorded is None:
        print(f"  digests: no record for seed {seed}")
    else:
        differing = sorted(cell for cell in first if recorded.get(cell) != first[cell])
        verdict = "match the record" if not differing else (
            f"DIFFER from the record in {len(differing)} cell(s): {', '.join(differing)}"
        )
        print(f"  digests: {verdict}")
    return consistent


def repeat(seconds: int, deadline: float, once: Callable[[], None]) -> None:
    """Call ``once`` while another call still fits in ``seconds``; at least once."""
    start = time.monotonic()
    longest = 0.0
    while True:
        began = time.monotonic()
        once()
        longest = max(longest, time.monotonic() - began)
        now = time.monotonic()
        if now - start + longest > seconds or now + longest > deadline:
            return


def scaled(reps: List[Dict[str, Any]], key: str) -> Tuple[List[float], List[float]]:
    """Each repetition's ``key`` in nominal-host seconds, and raw.

    A repetition is scaled by the host speed its own probes saw, so a
    slow minute of the host does not read as a slow simulator.
    """
    raw = [rep[key] for rep in reps]
    return [
        value * NOMINAL_PROBE_S / statistics.median(rep["probes"])
        for value, rep in zip(raw, reps)
    ], raw


def print_probes(reps: List[Dict[str, Any]]) -> None:
    probes = [probe for rep in reps for probe in rep["probes"]]
    print(f"  host speed probe: median {statistics.median(probes):.4f} s over "
          f"{len(probes)} probes (nominal {NOMINAL_PROBE_S} s)")


def untraced_run(workload: str, seed: int, seconds: int, deadline: float) -> Dict[str, Any]:
    reps: List[Dict[str, Any]] = []
    repeat(seconds, deadline, lambda: reps.append(repetition(workload, seed, deadline)))
    setup_reps: List[Dict[str, Any]] = []
    while len(reps) + len(setup_reps) < MIN_SETUP_SAMPLES:
        setup_reps.append(repetition(workload, seed, deadline, setup_only=True))

    walls, raw_walls = scaled(reps, "wall_s")
    setups, raw_setups = scaled(reps + setup_reps, "setup_s")
    kips = [
        rep["retired"] / (wall - setup) / 1e3
        for rep, wall, setup in zip(reps, walls, setups)
    ]
    raw_kips = [
        rep["retired"] / (rep["wall_s"] - rep["setup_s"]) / 1e3 for rep in reps
    ]
    rss = [rep["peak_rss_mb"] for rep in reps]
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    fidelity = reps[0]["fidelity_err"]
    print(f"perfbench {workload} seed={seed}: {len(reps)} repetition(s), untraced")
    print_probes(reps + setup_reps)
    rows = [
        ("wall_s", statistics.median(walls), "raw " + quartiles(raw_walls)),
        ("setup_s", statistics.median(setups), "raw " + quartiles(raw_setups)),
        ("sim_kips", statistics.median(kips), "raw " + quartiles(raw_kips)),
        ("peak_rss_mb", statistics.median(rss), quartiles(rss)),
    ]
    for name, value, note in rows:
        print(f"  {name:<13} {value:>12.4f} {END_TO_END[name]:<9} ({note})")
    print(f"  {'fail_ratio':<13} {failed / attempted:>12.4f} {'fraction':<9} "
          f"({failed}/{attempted} cells)")
    if fidelity is None:
        why = "sweep-fig6 only" if workload != "sweep-fig6" else "not computed, see error"
        print(f"  {'fidelity_err':<13} {'n/a':>12} {'fraction':<9} ({why})")
    else:
        print(f"  {'fidelity_err':<13} {fidelity:>12.4f} {'fraction':<9} "
              "(simulated; gate entries of fig6/fig7/fig8/table4)")
    for rep in reps:
        if rep["error"]:
            print(f"  error: {rep['error']}")
    consistent = report_cells(workload, seed, reps)
    return {
        "correct": failed == 0 and consistent and not any(rep["error"] for rep in reps),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": END_TO_END[name]} for name, value, _ in rows
        },
    }


def traced_run(workload: str, seed: int, seconds: int, deadline: float) -> Dict[str, Any]:
    plain: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []

    def pair() -> None:
        plain.append(repetition(workload, seed, deadline))
        spans = WORK / "traces" / f"{workload}-seed{seed}-rep{len(traced)}.json"
        traced.append(repetition(workload, seed, deadline, trace=True, spans=spans))

    repeat(seconds, deadline, pair)
    traced_walls, _ = scaled(traced, "wall_s")
    plain_walls, _ = scaled(plain, "wall_s")
    overhead = statistics.median(traced_walls) - statistics.median(plain_walls)
    values: Dict[str, float] = {
        name: statistics.median(rep["layers"][name] for rep in traced)
        for name in traced[0]["layers"]
    }
    values["bench.trace_overhead_s"] = overhead
    attempted = sum(rep["attempted"] for rep in plain + traced)
    failed = sum(rep["failed"] for rep in plain + traced)
    print(f"perfbench {workload} seed={seed}: {len(traced)} traced + "
          f"{len(plain)} untraced repetition(s)")
    print_probes(plain + traced)
    for name, unit in PER_LAYER.items():
        print(f"  {name:<28} {values[name]:>16.6g} {unit:<12} moves {LAYER_MOVES[name]}")
    print(f"  traced wall_s minus untraced wall_s: {overhead:.3f} s (nominal-host seconds)")
    for rep in plain + traced:
        if rep["error"]:
            print(f"  error: {rep['error']}")
    identical = report_cells(workload, seed, plain + traced)
    print("  traced Stats digests "
          + ("equal the untraced ones" if identical else "DIFFER from the untraced ones"))
    return {
        "correct": failed == 0 and identical and not any(
            rep["error"] for rep in plain + traced
        ),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()
        },
    }


def _terminate(signum: int, frame: Any) -> None:
    # Unwinding through subprocess.run kills and reaps the running repetition.
    raise SystemExit(128 + signum)


def main() -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    run = traced_run if args.trace else untraced_run
    try:
        result = run(args.workload, args.seed, args.seconds, deadline)
    except RepetitionFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
