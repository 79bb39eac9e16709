"""Record the workload fingerprints that ``run.py`` checks at set-up.

    python3 perfbench/record_fingerprints.py

Writes ``perfbench/fingerprints.json``: per workload and seed 0-31, the digest
of the per-graph fingerprint rows.  Re-record only when a change to the
generator is intended; a run whose seed is recorded fails when its graphs
no longer match.
"""

from __future__ import annotations

import json
import sys

import run
import workloads as wl


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    (run.OUT / "graphs").mkdir(parents=True, exist_ok=True)
    recorded = {}
    for workload in wl.WORKLOADS.values():
        digests = {}
        for seed in range(32):
            vconn, sets = run.setup(workload, seed)
            refs = [[vconn.two_vccs_domtree(g) for g in graphs] for _, graphs, _ in sets]
            digests[str(seed)] = run.fingerprint(vconn, sets, refs)[1]
        recorded[workload.name] = digests
    (run.BENCH / "fingerprints.json").write_text(json.dumps(recorded, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
