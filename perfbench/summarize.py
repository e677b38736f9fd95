"""Summarize benchmark runs recorded in perfbench/results/runs.jsonl.

    python3 perfbench/summarize.py [RUNS_JSONL]

For each workload and metric: the number of runs, the median, the
quartiles, the interquartile range as a share of the median, and the
highest of p50/p75/p90/p95/p99 that still has at least ten runs above it
(none below 20 runs).  It also reports the failed share and whether runs
with the same workload and seed produced the same output_sha256.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

LADDER = (50, 75, 90, 95, 99)


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest ladder percentile with at least ten values beyond it, by nearest rank."""
    ordered = sorted(values)
    n = len(ordered)
    best = None
    for p in LADDER:
        rank = -(-p * n // 100)  # ceil(p n / 100), nearest-rank position
        if n - rank >= 10:
            best = (p, ordered[rank - 1])
    return best


def summarize(records: list[dict]) -> list[str]:
    lines = []
    by_key: dict[tuple[str, int], list[dict]] = defaultdict(list)
    for rec in records:
        by_key[(rec["workload"], rec["trace"])].append(rec)
    for (workload, trace), recs in sorted(by_key.items()):
        attempted = sum(r["attempted"] for r in recs)
        failed = sum(r["failed"] for r in recs)
        lines.append(
            f"{workload} trace={trace}: {len(recs)} runs, failed {failed}/{attempted}"
            f" = {failed / attempted:.4f}"
        )
        digests: dict[int, set] = defaultdict(set)
        for r in recs:
            digests[r["seed"]].add(json.dumps(r["output_sha256"]))
        split = sorted(seed for seed, d in digests.items() if len(d) > 1)
        lines.append(f"  output_sha256 agrees across runs of each seed: {'no, seeds ' + str(split) if split else 'yes'}")
        for name in recs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in recs]
            unit = recs[0]["metrics"][name]["unit"]
            median = statistics.median(values)
            line = f"  {name} [{unit}]: n={len(values)} median={median:.6g}"
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / median if median else float("nan")
                line += f" q1={q1:.6g} q3={q3:.6g} iqr/median={spread:.4f}"
            tail = tail_percentile(values)
            line += f" p{tail[0]}={tail[1]:.6g}" if tail else " (tail percentile needs >= 20 runs)"
            lines.append(line)
    return lines


def main(argv: list[str]) -> int:
    path = Path(argv[0]) if argv else Path(__file__).resolve().parent / "results" / "runs.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines() if line.strip()]
    print("\n".join(summarize(records)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
