"""Record the ``Stats`` digests that benchmark runs observed.

    python3 perfbench/record_digests.py

Every run of ``run.py`` leaves the per-cell digests it saw under
``.perfbench-run/digests/<workload>-seed<N>.json``.  This merges them
into ``perfbench/digests.json``, the record later runs compare against.
A digest that disagrees with one already recorded is an error: record
only from runs of the commit the record belongs to.
"""

from __future__ import annotations

import json
import re
import sys

from run import DIGESTS, WORK, WORKLOAD_NAMES


def main() -> int:
    record = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    pattern = re.compile(r"(?P<workload>.+)-seed(?P<seed>-?\d+)\.json$")
    added = 0
    for path in sorted((WORK / "digests").glob("*.json")):
        match = pattern.match(path.name)
        if match is None or match["workload"] not in WORKLOAD_NAMES:
            continue
        observed = json.loads(path.read_text())
        seeds = record.setdefault(match["workload"], {})
        known = seeds.get(match["seed"])
        if known is not None and known != observed:
            print(f"error: {path.name} disagrees with the record", file=sys.stderr)
            return 1
        if known is None:
            seeds[match["seed"]] = observed
            added += 1
    DIGESTS.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"recorded {added} new (workload, seed) digest set(s) in {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
