"""Byte-identity gate for the timing model.

Every simulated counter of a small sweep matrix is pinned in
``tests/golden/stats_digests.json``: per cell, the final cycle count and
a digest of the full ``Stats`` counter set (sha256 of the sorted counters
as JSON, the same digest ``perfbench/workloads.stats_digest`` computes).
A host-speed change to the core, the caches or the lowering must leave
every entry unchanged; a change that means to alter the simulated machine
regenerates the file and says why.

One traced run is pinned as well: with a live ``repro.obs`` tracer the
counters must equal the untraced run's, and the recorded event stream
has its own digest, so a hot-path edit cannot drop or reorder trace
events either.

Regenerate (only when the simulated machine is meant to change)::

    PYTHONPATH=src python tests/test_stats_golden.py
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Tuple

import pytest

from repro.analysis.experiments import bench_cell, evaluation_cells
from repro.core.schemes import Scheme
from repro.obs.tracer import Tracer
from repro.parallel.cellspec import CellSpec
from repro.parallel.runner import traces_for
from repro.sim.config import fast_nvm_config
from repro.sim.simulator import SimResult, run_trace

GOLDEN = Path(__file__).parent / "golden" / "stats_digests.json"

CONFIG = fast_nvm_config(cores=2)
SIZE = dict(threads=2, scale=0.005, seed=5)

#: Strict persistency is not in the figure matrix; pin it on two workloads.
STRICT_WORKLOADS = ("HM", "QE")

#: The traced cell: an SSHL scheme exercises the most tracer sites.
TRACED_CELL = ("BT", Scheme.PROTEUS)


def stats_digest(counters: Dict[str, int]) -> str:
    """sha256 of the sorted counters as compact JSON."""
    payload = json.dumps(sorted(counters.items()), separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def events_digest(tracer: Tracer) -> str:
    """sha256 over every recorded trace event, in emission order."""
    digest = hashlib.sha256()
    for event in tracer.events:
        digest.update(repr(event).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def cells() -> Dict[str, CellSpec]:
    """Label -> cell of the pinned matrix, in a fixed order."""
    matrix = {
        f"{name}/{scheme.value}": spec
        for (name, scheme), spec in evaluation_cells(CONFIG, **SIZE).items()
    }
    for name in STRICT_WORKLOADS:
        spec = bench_cell(name, Scheme.PMEM_STRICT, CONFIG, **SIZE)
        matrix[f"{name}/{Scheme.PMEM_STRICT.value}"] = spec
    return matrix


def _simulate(spec: CellSpec, tracer=None) -> SimResult:
    return run_trace(
        traces_for(spec), spec.scheme, spec.config,
        max_cycles=spec.max_cycles, tracer=tracer,
    )


def _entry(result: SimResult) -> Dict[str, object]:
    return {"cycles": result.cycles, "digest": stats_digest(result.stats.counters)}


@lru_cache(maxsize=1)
def observed() -> Dict[str, Dict[str, object]]:
    """Simulate the whole matrix plus the traced cell once per session."""
    matrix = cells()
    out: Dict[str, Dict[str, object]] = {
        label: _entry(_simulate(spec)) for label, spec in matrix.items()
    }
    name, scheme = TRACED_CELL
    tracer = Tracer()
    traced = _simulate(matrix[f"{name}/{scheme.value}"], tracer=tracer)
    out["traced"] = {
        "cell": f"{name}/{scheme.value}",
        **_entry(traced),
        "events": len(tracer.events),
        "events_digest": events_digest(tracer),
    }
    return out


def golden() -> Dict[str, Dict[str, object]]:
    return json.loads(GOLDEN.read_text())


def _labels() -> List[str]:
    return list(cells())


@pytest.mark.parametrize("label", _labels())
def test_cell_stats_match_golden(label):
    assert observed()[label] == golden()[label], (
        f"{label}: simulated counters changed"
    )


def test_traced_run_matches_untraced_and_golden():
    traced = observed()["traced"]
    untraced = observed()[traced["cell"]]
    assert (traced["cycles"], traced["digest"]) == (
        untraced["cycles"], untraced["digest"]
    ), "a live tracer changed the simulated counters"
    assert traced == golden()["traced"], "trace event stream changed"


def test_golden_covers_exactly_the_matrix():
    expected: Tuple[str, ...] = (*_labels(), "traced")
    assert sorted(golden()) == sorted(expected)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(observed(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(observed())} entries to {GOLDEN}")
