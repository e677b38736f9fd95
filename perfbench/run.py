"""mexkit benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (the benchmark imports mexkit from its
src/ directory, nothing installed).  A run starts child.py in a fresh
interpreter again and again, one process and workers=1 each time, until
the next child would overrun S seconds by more than half its length; it
always starts at least three.  The metrics are medians over those children.

With --trace 0 the children run untraced and the run reports the end-to-end
metrics.  wall_s and setup_s are rescaled to a nominal machine speed: each
child times a fixed calibration loop just before and after its measured
region, and its timings are multiplied by NOMINAL_CALIBRATION_S over that
time.  The raw seconds stay in the run record.

With --trace 1 every untraced child is followed by a traced one, and the
run reports the per-layer metrics, including trace.overhead_s: traced minus
untraced median wall_s.  Span self times are rescaled like wall_s, so they
and wall_s are seconds on the same nominal machine.

The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The line before it is the full run record, which is also appended to
perfbench/results/runs.jsonl; traced runs write their span aggregates to
perfbench/results/trace-<workload>-seed<N>.json.  summarize.py reads
runs.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
CHILD_TIMEOUT_S = 150
# A median needs three samples to shrug off one slow child.
MIN_UNITS = 3
# Timings are rescaled to a machine on which child.calibrate() takes this long.
NOMINAL_CALIBRATION_S = 0.1


class ChildFailed(RuntimeError):
    """A child process crashed, timed out or printed no result."""


def run_child(workload: str, seed: int, traced: bool) -> dict:
    command = [sys.executable, str(HERE / "child.py"), workload, str(seed), "1" if traced else "0"]
    spawn_ns = time.monotonic_ns()
    try:
        proc = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{workload} child timed out after {CHILD_TIMEOUT_S} s") from exc
    duration_s = (time.monotonic_ns() - spawn_ns) / 1e9
    if proc.returncode != 0:
        raise ChildFailed(f"{workload} child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise ChildFailed(f"{workload} child printed no result: {proc.stdout[-500:]!r}") from exc
    # CLOCK_MONOTONIC is shared by all processes on Linux, so this spans
    # interpreter start, the mexkit import and input generation
    result["setup_raw_s"] = (result.pop("ready_ns") - spawn_ns) / 1e9
    result["wall_raw_s"] = result.pop("wall_s")
    speed = NOMINAL_CALIBRATION_S / result["calibration_s"]
    result["setup_s"] = result["setup_raw_s"] * speed
    result["wall_s"] = result["wall_raw_s"] * speed
    if traced:
        result["trace"]["self_s"] = {k: v * speed for k, v in result["trace"]["self_s"].items()}
    result["duration_s"] = duration_s
    result["traced"] = traced
    return result


def measure(workload: str, seed: int, seconds: int, with_trace: bool) -> list[dict]:
    children = []
    start = time.monotonic()
    while True:
        unit_start = time.monotonic()
        children.append(run_child(workload, seed, False))
        if with_trace:
            children.append(run_child(workload, seed, True))
        unit = time.monotonic() - unit_start
        if len(children) >= MIN_UNITS * (1 + with_trace) and time.monotonic() - start + unit / 2 > seconds:
            return children


def aggregate(children: list[dict], with_trace: bool) -> dict[str, dict]:
    untraced = [c for c in children if not c["traced"]]
    if not with_trace:
        return {
            name: {"value": statistics.median(c[name] for c in untraced), "unit": unit}
            for name, unit in metrics.END_TO_END.items()
        }
    traced = [c for c in children if c["traced"]]
    layers = [metrics.per_layer_values(c["trace"]) for c in traced]
    values = {name: statistics.median(v[name] for v in layers) for name in layers[0]}
    values["trace.overhead_s"] = statistics.median(c["wall_s"] for c in traced) - statistics.median(
        c["wall_s"] for c in untraced
    )
    return {
        name: {"value": values[name], "unit": unit} for name, unit in metrics.PER_LAYER.items()
    }


def git_sha(root: Path) -> str:
    """The checked-out commit, read from .git without running git; "unknown" outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=metrics.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "mexkit" / "__init__.py").is_file():
        print(f"error: no mexkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(ROOT),
        "loadavg_start": os.getloadavg(),
    }
    try:
        children = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    digests = sorted({c["output_sha256"] for c in children})
    attempted = sum(c["attempted"] for c in children)
    # a child whose output differs from the first child's is one more failure
    failed = sum(c["failed"] for c in children) + sum(
        c["output_sha256"] != children[0]["output_sha256"] for c in children
    )
    result_metrics = aggregate(children, bool(args.trace))
    record.update(
        children=[
            {
                k: c[k]
                for k in (
                    "traced", "setup_s", "wall_s", "setup_raw_s", "wall_raw_s", "calibration_s",
                    "peak_rss_mb", "duration_s", "attempted", "failed",
                )
            }
            for c in children
        ],
        attempted=attempted,
        failed=failed,
        failed_share=failed / attempted,
        output_sha256=digests[0] if len(digests) == 1 else digests,
        failures=[f for c in children for f in c["failures"]][:20],
        metrics=result_metrics,
    )
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(record, separators=(",", ":")) + "\n")
    if args.trace:
        spans = [c["trace"] for c in children if c["traced"]]
        path = RESULTS / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(spans, indent=1) + "\n")

    print(json.dumps(record, separators=(",", ":")))
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": result_metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
