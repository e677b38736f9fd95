"""The benchmark's references agree with mexkit at small sizes, and catch tampering."""

from __future__ import annotations

import dataclasses
import math
import random
import sys
import unittest
from itertools import combinations
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

from mexkit import extremal, graphs, oracle, processes  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402


class ElementarySymmetricTest(unittest.TestCase):
    def test_matches_subset_products(self):
        values = [3, 1, 4, 1, 5]
        for k in range(len(values) + 2):
            want = sum(math.prod(c) for c in combinations(values, k))
            self.assertEqual(reference.elementary_symmetric(values, k), want)


class ClosedFormsTest(unittest.TestCase):
    def test_mex_against_profile_and_clique_count(self):
        for r in range(2, 7):
            for s in range(2, r + 1):
                profile = extremal.mex_profile(r, s, 299)
                want = [reference.mex_reference(m, s, r) for m in range(1, 300)]
                self.assertEqual(profile, want, (r, s))
                for m in range(0, 300, 23):
                    self.assertEqual(extremal.mex_clique(m, s, r), reference.mex_reference(m, s, r))

    def test_zykov(self):
        for r in range(2, 6):
            for t in range(2, r + 1):
                for n in range(r, 40):
                    self.assertEqual(extremal.zykov_ex(n, t, r), reference.zykov_reference(n, t, r))

    def test_closed_form_grid(self):
        for r, s, n in workloads.CLOSED_FORM_GRID:
            self.assertTrue(reference.closed_form_reference(r, s, n))
            self.assertEqual(extremal.closed_form_check(r, s, n), reference.closed_form_reference(r, s, n))

    def test_enumeration_counts(self):
        for m, want in enumerate(reference.A000664[:6], start=1):
            self.assertEqual(sum(1 for _ in oracle.enumerate_graphs(m)), want)


class TraceCheckTest(unittest.TestCase):
    def setUp(self):
        rng = random.Random(5)
        self.runs = []
        for s, r, n, m in [(3, 3, 30, 150), (4, 4, 24, 120)]:
            g = workloads.greedy_clique_free(n, m, r, rng)
            edge = processes.default_edge_config(g, s, r, 0.3)
            # a threshold every vertex meets, so the budget stops the run mid-vertex
            vertex = processes.ProcessConfig("vertex", s, r, 0.3, 100.0, 0.5, m // 2)
            self.runs.append((g, edge, processes.edge_deletion_process(g, edge)))
            self.runs.append((g, vertex, processes.vertex_deletion_process(g, vertex)))

    def test_accepts_real_traces(self):
        for g, config, trace in self.runs:
            self.assertTrue(trace.steps)
            self.assertEqual(trace.partial_last_vertex is not None, config.mode == "vertex")
            self.assertEqual(reference.check_trace(g.adjacency, config, trace), [])

    def test_rejects_a_wrong_value(self):
        for g, config, trace in self.runs:
            bad = dataclasses.replace(trace.steps[0], value=trace.steps[0].value + 1)
            tampered = dataclasses.replace(trace, steps=(bad,) + trace.steps[1:])
            self.assertTrue(reference.check_trace(g.adjacency, config, tampered))

    def test_rejects_a_qualifying_item_that_is_not_the_minimum(self):
        for g, config, trace in self.runs:
            adj = g.adjacency
            threshold = config.coefficient * g.edge_count**config.exponent
            first = trace.steps[0]
            if config.mode == "edge":
                candidates = [
                    ((u, v), reference.cliques_inside(adj, adj[u] & adj[v], config.s - 2))
                    for u, v in g.edges()
                ]
            else:
                candidates = [(v, bin(adj[v]).count("1")) for v in g.vertices()]
            others = [(item, value) for item, value in candidates
                      if value < threshold and item != first.item]
            self.assertTrue(others)
            item, value = others[-1]
            edges_after = first.edges_after + first.value - value if config.mode == "vertex" else first.edges_after
            swapped = dataclasses.replace(first, item=item, value=value, edges_after=edges_after)
            tampered = dataclasses.replace(trace, steps=(swapped,) + trace.steps[1:])
            problems = reference.check_trace(adj, config, tampered)
            self.assertTrue(problems and problems[0].startswith("step 0:"), problems)
            self.assertIn("the rule picks", problems[0])

    def test_rejects_a_missing_step(self):
        for g, config, trace in self.runs:
            tampered = dataclasses.replace(trace, steps=trace.steps[:-1])
            self.assertTrue(reference.check_trace(g.adjacency, config, tampered))

    def test_generator_avoids_the_forbidden_clique(self):
        for g, config, _ in self.runs:
            self.assertFalse(graphs.contains_clique(g, config.r + 1))
            self.assertTrue(graphs.contains_clique(g, config.r))


if __name__ == "__main__":
    unittest.main()
