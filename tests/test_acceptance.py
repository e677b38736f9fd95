"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance and budget is pinned here; everything else is
exact integer or rational arithmetic.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

from mexkit.colex import ffk_min_shadow, kk_min_shadow
from mexkit.constructions import (
    colex_graph,
    colex_turan_graph,
    complete_graph,
    critical_edge_gadget,
    turan_graph,
    turan_number,
)
from mexkit.extremal import (
    closed_form_check,
    lovasz_kk_bound,
    mex_clique,
    verify_constant_identities,
    zykov_ex,
)
from mexkit.graphs import cliques_at_edge, count_cliques
from mexkit.oracle import (
    DEFAULT_EDGE_CAP,
    DEFAULT_VERTEX_CAP,
    brute_force_ex,
    brute_force_mex,
    brute_force_min_shadow,
    canonical_graph,
    enumerate_graphs,
    find_blowup,
    min_edits_to_r_partite,
)
from mexkit.processes import (
    ProcessConfig,
    default_edge_config,
    default_vertex_config,
    edge_deletion_process,
    stability_experiment,
    vertex_deletion_process,
)

from corpus import process_corpus
from oracles import naive_min_edits, naive_nonisomorphic_graphs


def _report(name: str, ok: bool, elapsed: float, budget: float) -> None:
    status = "PASS" if ok and elapsed <= budget else "FAIL"
    print(f"ACCEPTANCE {name}: {status} ({elapsed:.1f}s, budget {budget:.0f}s)")
    assert ok
    assert elapsed <= budget, f"{name} exceeded its runtime budget"


def test_01_figure_reproduction():
    start = time.perf_counter()
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "mexkit.cli", "construct", "ct", "--r", "3", "--m", "25"],
        capture_output=True,
        text=True,
        check=True,
        env=env,
    )
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    got = {tuple(sorted(map(int, line.split()))) for line in lines}
    turan_edges = set(turan_graph(3, 8).edges())
    assert turan_number(3, 8) == 21 and len(turan_edges) == 21
    expected = turan_edges | {(1, 9), (2, 9), (4, 9), (5, 9)}
    ok = len(lines) == 25 and got == expected
    _report("01 figure reproduction", ok, time.perf_counter() - start, 1.0)


def test_02_frohmader_exhaustive():
    start = time.perf_counter()
    ok = True
    for m in range(1, DEFAULT_EDGE_CAP + 1):
        ok &= brute_force_mex(m, 3, complete_graph(4)).optimum == mex_clique(m, 3, 3)
    for s, r in ((3, 4), (4, 4)):
        for m in range(1, DEFAULT_EDGE_CAP + 1):
            ok &= brute_force_mex(m, s, complete_graph(5)).optimum == mex_clique(m, s, r)
    _report("02 frohmader exhaustive", ok, time.perf_counter() - start, 600.0)


def test_03_zykov_exhaustive():
    start = time.perf_counter()
    ok = True
    for t, r in ((2, 2), (2, 3), (3, 3)):
        for n in range(max(r, t), DEFAULT_VERTEX_CAP + 1):
            res = brute_force_ex(n, t, complete_graph(r + 1))
            ok &= res.optimum == zykov_ex(n, t, r)
            ok &= res.witness_count == 1
            ok &= res.witnesses[0] == canonical_graph(turan_graph(r, n))
    _report("03 zykov exhaustive", ok, time.perf_counter() - start, 300.0)


def test_04_shadow_bounds_at_desk_scale():
    start = time.perf_counter()
    ok = True
    for size in range(7):
        ok &= brute_force_min_shadow(6, 3, size, 2) == kk_min_shadow(3, size, 2)
        ok &= brute_force_min_shadow(6, 3, size, 2, r_colorable=3) == ffk_min_shadow(
            3, 3, size, 2
        )
    _report("04 shadow minima", ok, time.perf_counter() - start, 120.0)


def test_05_closed_form_lattice():
    start = time.perf_counter()
    ok = True
    for r in (2, 3, 4, 5):
        for s in range(2, r + 1):
            for n in range(r, 21, r):
                ok &= closed_form_check(r, s, n)
    for r in (2, 3, 4, 5):
        for n in range(r, 21, r):
            ct = colex_turan_graph(r, turan_number(r, n))
            want = n * (r - 1) // r
            ok &= all(
                ct.degree(v) == want for v in ct.vertices() if ct.adjacency[v]
            )
    _report("05 closed-form lattice", ok, time.perf_counter() - start, 1.0)


def test_06_constant_identities():
    start = time.perf_counter()
    ok = True
    for r in range(2, 13):
        for s in range(3, r + 1):
            ok &= verify_constant_identities(r, s)
    for r in range(2, 13):
        for s in range(max(3, r + 1), 15):
            ok &= verify_constant_identities(r, s)
    _report("06 constant identities", ok, time.perf_counter() - start, 1.0)


def test_07_gadget_beats_colex_turan():
    start = time.perf_counter()
    g24 = count_cliques(critical_edge_gadget(3, 24), 3)
    g25 = count_cliques(critical_edge_gadget(3, 25), 3)
    ct24 = mex_clique(24, 3, 3)
    ct25 = mex_clique(25, 3, 3)
    ok = (g24, ct24) == (21, 20) and g24 > ct24
    ok &= (g25, ct25) == (23, 22) and g25 > ct25
    _report("07 gadget inequality", ok, time.perf_counter() - start, 1.0)


def test_08_lovasz_bound_on_corpus():
    start = time.perf_counter()
    ok = True
    for m in range(1, 9):
        b3 = lovasz_kk_bound(m, 3)
        b4 = lovasz_kk_bound(m, 4)
        for g in enumerate_graphs(m):
            ok &= count_cliques(g, 3) <= b3 + 1e-6
            ok &= count_cliques(g, 4) <= b4 + 1e-6
    for m, x in ((3, 3), (6, 4), (10, 5)):
        bound = lovasz_kk_bound(m, 3)
        tight = count_cliques(colex_graph(m), 3)
        ok &= abs(bound - math.comb(x, 3)) < 1e-9
        ok &= tight == math.comb(x, 3)
    _report("08 edge-count clique bound", ok, time.perf_counter() - start, 600.0)


def test_09_process_identities_on_corpus():
    start = time.perf_counter()
    graphs = process_corpus()
    assert len(graphs) == 200
    ok = True
    for g in graphs:
        cfg = default_edge_config(g, 3, 3, 0.3)
        trace = edge_deletion_process(g, cfg)
        removed = sum(step.value for step in trace.steps)
        ok &= count_cliques(g, 3) - count_cliques(trace.final_graph, 3) == removed
        if not trace.budget_exhausted:
            final = trace.final_graph
            bound = cfg.coefficient * final.edge_count**cfg.exponent
            ok &= all(
                cliques_at_edge(final, e, cfg.s) >= bound for e in final.edges()
            )
        aggressive = ProcessConfig(
            "edge", 3, 3, 0.3, 10.0, 0.0, math.floor(0.6 * g.edge_count)
        )
        atrace = edge_deletion_process(g, aggressive)
        removed = sum(step.value for step in atrace.steps)
        ok &= count_cliques(g, 3) - count_cliques(atrace.final_graph, 3) == removed
        for vcfg in (
            default_vertex_config(g, 3, 3, 0.2),
            ProcessConfig("vertex", 3, 3, 0.3, 100.0, 0.5, math.floor(0.7 * g.edge_count)),
        ):
            vtrace = vertex_deletion_process(g, vcfg)
            lost = sum(step.value for step in vtrace.steps)
            if vtrace.partial_last_vertex is not None:
                lost += len(vtrace.partial_last_vertex.removed_edges)
            ok &= g.edge_count - vtrace.final_graph.edge_count == lost
            if vtrace.partial_last_vertex is None:
                removed_set = {step.item for step in vtrace.steps}
                final = vtrace.final_graph
                bound = vcfg.coefficient * final.edge_count**vcfg.exponent
                ok &= all(
                    final.degree(v) >= bound
                    for v in g.vertices()
                    if v not in removed_set
                )
    _report("09 process identities (200 graphs)", ok, time.perf_counter() - start, 120.0)


def test_10_blowup_stability_and_edits():
    start = time.perf_counter()
    found, _ = find_blowup(turan_graph(3, 9), 3, 3)
    ok = found
    for m in range(1, 61):
        report = stability_experiment(colex_turan_graph(3, m), 3, 3, 0.1)
        ok &= report.edits_to_partite == 0
    for g in process_corpus():
        if g.vertex_count > 10:
            continue
        ok &= min_edits_to_r_partite(g, 3) == naive_min_edits(g, 3)
    _report("10 blowup, stability, edit distance", ok, time.perf_counter() - start, 300.0)


def test_11_enumeration_soundness():
    start = time.perf_counter()
    expected = [1, 2, 5, 11, 26, 68]
    naive_counts = [len(naive_nonisomorphic_graphs(m)) for m in range(1, 7)]
    main_counts = [sum(1 for _ in enumerate_graphs(m)) for m in range(1, 7)]
    ok = naive_counts == expected and main_counts == expected
    _report("11 enumeration soundness", ok, time.perf_counter() - start, 120.0)
