"""One measurement of one workload, in a fresh interpreter.

run.py starts this script once per measurement, because mexkit keeps
process-wide caches (the connected-graph levels of the enumeration and the
lru_cache on degeneracy orders) that every real `mexkit` invocation starts
without.  Usage:

    python3 perfbench/child.py <workload> <seed> <traced: 0|1>

It prints one JSON line: the monotonic time at which mexkit was imported
and the inputs were built, the timed wall clock, the calibration time,
peak RSS, the checks' outcome and, when traced, the span aggregates.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from contextlib import nullcontext  # noqa: E402

import mexkit  # noqa: E402

import metrics  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, traced  # noqa: E402

CALIBRATION_ITERATIONS = 200_000


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop that never touches mexkit.

    On a machine whose cores are shared with other tenants, the speed of
    the same code drifts by a third over minutes, in phases that last
    seconds.  Timed right next to the measured region, this loop tells how
    fast the machine is at that moment, so run.py can rescale timings to
    one nominal speed.
    Like mexkit's kernels, it mixes integer bit operations, tuples and
    dictionary stores.
    """
    start = time.perf_counter()
    total = 0
    table = {}
    masks = [0] * 64
    for i in range(CALIBRATION_ITERATIONS):
        x = (i * 2654435761) & 0xFFFFFFFFFFFF
        total += (x & masks[i & 63]).bit_count()
        masks[i & 63] |= 1 << (x & 127)
        table[x & 4095] = (i, total)
    return time.perf_counter() - start


def main(argv: list[str]) -> int:
    name, seed, is_traced = argv[0], int(argv[1]), argv[2] == "1"
    if not Path(mexkit.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported mexkit from {mexkit.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[name]
    inputs = workload.prepare(seed)
    ready_ns = time.monotonic_ns()

    calibration_s = calibrate()
    tracer = Tracer() if is_traced else None
    with traced(tracer, metrics.TARGETS, metrics.HOOKS) if is_traced else nullcontext():
        start = time.perf_counter()
        outputs = workload.execute(inputs)
        wall_s = time.perf_counter() - start
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    calibration_s = (calibration_s + calibrate()) / 2

    outcome = workload.check(inputs, outputs)
    result = {
        "ready_ns": ready_ns,
        "wall_s": wall_s,
        "calibration_s": calibration_s,
        "peak_rss_mb": peak_rss_kb / 1024,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "failures": outcome.failures[:10],
        "output_sha256": hashlib.sha256(outcome.transcript.encode()).hexdigest(),
        "trace": tracer.to_json() if tracer is not None else None,
    }
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
