"""Summarise benchmark runs across seeds.

    python3 perfbench/summarize.py [RESULT.json ...] [--json]

Reads the per-run files that ``run.py`` writes (by default every file in
``perfbench/out/results``) and prints, per workload and metric, the number
of runs, the median, the quartiles, the spread (quartile distance over the
median, as ``statistics.quantiles(values, n=4)`` gives the quartiles) and
the highest percentile with at least ten runs beyond it.  ``--json`` prints
the same as one JSON object, the form of ``perfbench/baseline/*.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from run import OUT, tail_percentile


def summarize(paths) -> dict:
    runs: dict[tuple[str, int], list[dict]] = {}
    for path in paths:
        result = json.loads(Path(path).read_text())
        runs.setdefault((result["workload"], result["trace"]), []).append(result)
    summary: dict = {}
    for (workload, trace), results in sorted(runs.items()):
        by_metric: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for r in results:
            for name, m in r["metrics"].items():
                by_metric.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            by_metric.setdefault("failed_ratio", []).append(r["failed_ratio"])
            units["failed_ratio"] = "ratio"
        rows = {}
        for name, values in by_metric.items():
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            p, tail = tail_percentile(values)
            rows[name] = {
                "unit": units[name], "runs": len(values), "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median if median else 0.0,
                "tail_percentile": p, "tail": tail, "values": values,
            }
        summary[f"{workload} trace={trace}"] = {
            "seeds": [r["seed"] for r in results],
            "environment": results[0]["environment"],
            "metrics": rows,
        }
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description="summarise benchmark result files")
    parser.add_argument("results", nargs="*")
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args()
    paths = args.results or sorted((OUT / "results").glob("*.json"))
    summary = summarize(paths)
    if args.json:
        print(json.dumps(summary, indent=1))
        return 0
    for group, data in summary.items():
        print(f"{group}  seeds {data['seeds']}")
        for name, row in data["metrics"].items():
            tail = f"p{row['tail_percentile']} {row['tail']:.4g}" if row["tail_percentile"] else "tail n/a"
            print(f"  {name:44s} median {row['median']:.4g} {row['unit']:6s} "
                  f"spread {row['spread']:.3f}  {tail}  ({row['runs']} runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
