"""One cold repetition of a benchmark workload, in a fresh process.

Started by ``run.py`` once per repetition, so every repetition begins
with an empty trace memo and imports nothing an earlier one left behind.
Prints one JSON object on its last line of standard output.

    python3 perfbench/rep.py --workload setup-avl --seed 1 --cache-dir DIR \
        [--trace 0|1] [--setup-only] [--spans FILE] [--tiny]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from typing import List

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

#: An untraced repetition probes the host speed when it starts, after
#: set-up, after every this many cells, and when it ends.  A traced one
#: probes only before the tracer is installed and after the workload ran,
#: so no probe lands inside a span.
PROBE_EVERY_CELLS = 3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="write the traced spans to this JSON file")
    parser.add_argument(
        "--tiny", action="store_true", help="tiny sizes, for the benchmark's own tests"
    )
    args = parser.parse_args()

    from hostspeed import probe
    from layers import LayerTracer, layer_metrics
    from workloads import CellObserver, run_repetition

    probes: List[float] = [probe()]

    def between_cells() -> None:
        if len(observer.cells) % PROBE_EVERY_CELLS == 0:
            probes.append(probe())

    tracer = None
    if args.trace:
        tracer = LayerTracer()
        tracer.install()
    observer = CellObserver(None if args.trace else between_cells)
    observer.install()
    rep = run_repetition(
        args.workload, args.seed, args.cache_dir, observer,
        setup_only=args.setup_only, tiny=args.tiny,
    )
    probes.append(probe())
    rep["probes"] = probes
    runner = rep.pop("runner", None)
    if tracer is not None and runner is not None:
        rep["layers"] = layer_metrics(
            tracer,
            observer.stats,
            sum(cell.get("drain_cycles", 0) for cell in observer.cells),
            runner,
        )
        if args.spans:
            tracer.dump(Path(args.spans))
    rep["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(rep))
    return 0


if __name__ == "__main__":
    sys.exit(main())
