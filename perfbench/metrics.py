"""The benchmark's metrics, read from BENCHMARK.json, and how traced runs produce them.

BENCHMARK.json is the one list of workloads and metrics.  Every per-layer
metric named ``<module>.<function>.calls`` or ``<module>.<function>.self_s``
makes the traced runs wrap ``mexkit.<module>.<function>``; the others are
computed below or, for trace.overhead_s, by run.py.  The end-to-end metric
each per-layer metric should move is listed in perfbench/README.md.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# (module, function) pairs wrapped in traced runs, at every module binding them
TARGETS = sorted(
    {
        tuple(name.rsplit(".", 1)[0].split("."))
        for name in PER_LAYER
        if name.endswith((".calls", ".self_s"))
    }
)


def _count_search_space(counters: Counter, result) -> None:
    counters["oracle.search_space"] += result.search_space_size


def _count_steps(counters: Counter, result) -> None:
    counters["processes.steps"] += len(result.steps)


HOOKS = {
    "oracle.brute_force_mex": _count_search_space,
    "oracle.brute_force_ex": _count_search_space,
    "processes.edge_deletion_process": _count_steps,
    "processes.vertex_deletion_process": _count_steps,
}


def per_layer_values(trace: dict) -> dict[str, float]:
    """Per-layer values from one traced child's Tracer.to_json(); trace.overhead_s is added by the caller."""
    values: dict[str, float] = {}
    for name in PER_LAYER:
        span, _, kind = name.rpartition(".")
        if kind == "calls":
            values[name] = trace["calls"].get(span, 0)
        elif kind == "self_s":
            values[name] = trace["self_s"].get(span, 0.0)
    site = {(n, s): c for n, s, c in trace["site_calls"]}
    probes = site.get(("graphs.contains_clique", "oracle"), 0)
    counted = site.get(("graphs.count_cliques", "oracle"), 0)
    # share of enumerated graphs that pass the K_{r+1}-freeness filter (0 when none are probed)
    values["oracle.free_ratio"] = counted / probes if probes else 0.0
    values["oracle.search_space"] = trace["counters"].get("oracle.search_space", 0)
    values["processes.steps"] = trace["counters"].get("processes.steps", 0)
    return values
