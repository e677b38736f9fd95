import dataclasses
import math
import random
from itertools import combinations

import pytest

from mexkit import processes
from mexkit.constructions import (
    colex_turan_graph,
    complete_graph,
    critical_edge_gadget,
    turan_graph,
)
from mexkit.extremal import beta
from mexkit.graphs import Graph, contains_clique, count_cliques, graph_from_edges
from mexkit.processes import (
    PartialVertex,
    ProcessConfig,
    default_edge_config,
    default_vertex_config,
    edge_deletion_process,
    proof_constants,
    replay_trace,
    stability_experiment,
    vertex_deletion_process,
)

from corpus import process_corpus
from oracles import (
    naive_cliques_at_edge,
    naive_edge_deletion_process,
    naive_vertex_deletion_process,
)

PAW = graph_from_edges([(1, 2), (1, 3), (2, 3), (3, 4)])


def edge_config(g, coefficient, exponent, budget, s=3):
    return ProcessConfig("edge", s, 3, 0.25, coefficient, exponent, budget)


def vertex_config(g, coefficient, budget):
    return ProcessConfig("vertex", 3, 3, 0.25, coefficient, 0.5, budget)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ProcessConfig("both", 3, 3, 0.1, 1.0, 0.5, 1)
        with pytest.raises(ValueError):
            ProcessConfig("edge", 3, 3, 1.5, 1.0, 0.5, 1)
        with pytest.raises(ValueError):
            ProcessConfig("edge", 3, 3, 0.1, 0.0, 0.5, 1)
        with pytest.raises(ValueError):
            ProcessConfig("edge", 3, 3, 0.1, 1.0, 0.5, -1)

    @pytest.mark.parametrize(
        "config, run",
        [
            (ProcessConfig("edge", 3, 3, 0.25, 1.0, 1e308, 1), edge_deletion_process),
            (ProcessConfig("vertex", 3, 3, 0.25, 1.0, 1e308, 1), vertex_deletion_process),
        ],
        ids=["edge", "vertex"],
    )
    def test_threshold_overflow_named_before_any_step(self, config, run):
        g = colex_turan_graph(3, 40)
        with pytest.raises(ValueError, match=r"exponent=1e\+308, m=40"):
            run(g, config)
        # with no edge and a negative exponent the threshold is never a power of 0
        empty = Graph(3, (0, 0, 0, 0))
        negative = dataclasses.replace(config, exponent=-1e308, edge_budget=0)
        trace = run(empty, negative)
        # the budget 0 covers each isolated vertex, so the vertex process
        # deletes all three at no cost
        want = [("vertex", v, 0, 0) for v in (1, 2, 3)] if config.mode == "vertex" else []
        assert [dataclasses.astuple(step) for step in trace.steps] == want
        assert not trace.budget_exhausted

    def test_defaults(self):
        g = turan_graph(3, 6)
        cfg = default_edge_config(g, 3, 3, 0.5)
        assert cfg.coefficient == pytest.approx(2 * 0.25)
        assert cfg.exponent == 0.5
        assert 0 <= cfg.edge_budget <= g.edge_count
        vcfg = default_vertex_config(g, 3, 3, 0.1)
        assert vcfg.coefficient == pytest.approx(beta(3).float_value * 0.8)
        assert vcfg.edge_budget == math.floor(0.1 * g.edge_count)

    def test_large_s_defaults_name_the_constant(self):
        g = colex_turan_graph(3, 40)
        # 2^(s-2) eps^(2s-4)/(s-2)! is 0.0 in floats long before s! overflows
        with pytest.raises(ValueError, match=r"coefficient underflows to 0 \(s=120, epsilon=0\.2\)"):
            default_edge_config(g, 120, 3, 0.2)
        default_edge_config(g, 119, 3, 0.2)
        for call in (lambda: proof_constants(3, 171, 0.9), lambda: default_edge_config(g, 171, 3, 0.9)):
            with pytest.raises(ValueError, match=r"s! overflows a float in rho_lower \(s=171, epsilon=0\.9\)"):
                call()
        assert proof_constants(3, 170, 0.9).rho == 0.5

    def test_budget_cannot_exceed_edges(self):
        g = complete_graph(3)
        with pytest.raises(ValueError, match="budget"):
            edge_deletion_process(g, edge_config(g, 1.0, 0.0, 4))


class TestEdgeProcess:
    def test_pendant_deleted_first(self):
        trace = edge_deletion_process(PAW, edge_config(PAW, 1.0, 0.0, 4))
        assert len(trace.steps) == 1
        assert trace.steps[0].item == (3, 4)
        assert trace.steps[0].value == 0
        assert trace.final_graph.edge_count == 3
        assert not trace.budget_exhausted

    def test_no_deletions_below_every_value(self):
        g = turan_graph(3, 6)
        trace = edge_deletion_process(g, edge_config(g, 1e-9, 0.0, 5))
        assert trace.steps == () and trace.final_graph == g

    def test_zero_budget(self):
        trace = edge_deletion_process(PAW, edge_config(PAW, 1.0, 0.0, 0))
        assert trace.steps == () and trace.final_graph == PAW

    def test_colex_tie_break(self):
        # two pendant edges both have value 0; colex order picks {3,4} before {3,5}
        g = graph_from_edges([(1, 2), (1, 3), (2, 3), (3, 4), (3, 5)])
        trace = edge_deletion_process(g, edge_config(g, 1.0, 0.0, 1))
        assert trace.steps[0].item == (3, 4)

    def test_budget_exhaustion_flag(self):
        g = graph_from_edges([(1, 2), (3, 4), (5, 6)])
        trace = edge_deletion_process(g, edge_config(g, 1.0, 0.0, 2))
        assert len(trace.steps) == 2
        assert trace.budget_exhausted

    def test_clique_accounting_identity(self):
        for g in (PAW, turan_graph(3, 7), colex_turan_graph(3, 20), complete_graph(5)):
            cfg = default_edge_config(g, 3, 3, 0.4)
            trace = edge_deletion_process(g, cfg)
            removed = sum(step.value for step in trace.steps)
            assert count_cliques(g, 3) - count_cliques(trace.final_graph, 3) == removed

    def test_post_state_threshold(self):
        g = colex_turan_graph(3, 20)
        cfg = default_edge_config(g, 3, 3, 0.4)
        trace = edge_deletion_process(g, cfg)
        if not trace.budget_exhausted:
            final = trace.final_graph
            bound = cfg.coefficient * final.edge_count**cfg.exponent
            from mexkit.graphs import cliques_at_edge

            for e in final.edges():
                assert cliques_at_edge(final, e, cfg.s) >= bound

    def test_step_values_match_naive_count(self):
        import random

        rng = random.Random(11)
        graphs = [complete_graph(5), turan_graph(4, 8), colex_turan_graph(4, 30)]
        for _ in range(6):
            n = rng.randint(5, 9)
            pairs = [(u, v) for v in range(2, n + 1) for u in range(1, v)]
            edges = rng.sample(pairs, rng.randint(len(pairs) // 2, len(pairs)))
            graphs.append(graph_from_edges(edges, explicit_vertex_count=n))
        for s in (2, 4):
            for g in graphs:
                # every edge qualifies, so each step takes a least-valued edge
                cfg = edge_config(g, 1e9, 0.0, g.edge_count // 2, s=s)
                trace = edge_deletion_process(g, cfg)
                assert len(trace.steps) == cfg.edge_budget
                adj = list(g.adjacency)
                for step in trace.steps:
                    before = Graph(g.vertex_count, tuple(adj))
                    values = {e: naive_cliques_at_edge(before, e, s) for e in before.edges()}
                    assert step.value == values[step.item] == min(values.values())
                    u, v = step.item
                    adj[u] &= ~(1 << v)
                    adj[v] &= ~(1 << u)
                assert Graph(g.vertex_count, tuple(adj)) == trace.final_graph

    def test_replay_and_determinism(self):
        g = colex_turan_graph(3, 18)
        cfg = default_edge_config(g, 3, 3, 0.4)
        t1 = edge_deletion_process(g, cfg)
        t2 = edge_deletion_process(g, cfg)
        assert t1 == t2
        assert replay_trace(g, t1) == t1.final_graph


def _random_graph(rng, n):
    pairs = [(u, v) for v in range(2, n + 1) for u in range(1, v)]
    edges = rng.sample(pairs, rng.randint(len(pairs) // 3, len(pairs)))
    return graph_from_edges(edges, explicit_vertex_count=n)


def _greedy_clique_free(rng, k, r):
    """The pairs of 1..k in random order, each kept unless it closes a K_{r+1}."""
    pairs = list(combinations(range(1, k + 1), 2))
    rng.shuffle(pairs)
    edges = []
    for e in pairs:
        if not contains_clique(graph_from_edges(edges + [e], k), r + 1):
            edges.append(e)
    return graph_from_edges(edges, k)


def _relabel(g, labels, n):
    """g on n vertices with vertex i renamed labels[i - 1]; increasing labels keep colex order."""
    return graph_from_edges([(labels[u - 1], labels[v - 1]) for u, v in g.edges()], n)


def _relabel_trace(trace, labels, n):
    steps = tuple(
        dataclasses.replace(step, item=(labels[step.item[0] - 1], labels[step.item[1] - 1]))
        for step in trace.steps
    )
    return dataclasses.replace(trace, steps=steps, final_graph=_relabel(trace.final_graph, labels, n))


class TestEdgeProcessAgainstRescan:
    """Traces equal those of the rescan oracle, which recounts every edge at every step."""

    def test_random_graphs(self):
        rng = random.Random(4)
        stops = set()
        for s in (2, 3, 4, 5, 6):
            for exponent in (0.0, 0.5, (s - 2) / 2, -0.5):
                for _ in range(3):
                    g = _random_graph(rng, rng.randint(5, 9))
                    m = g.edge_count
                    # a threshold near the middle of the initial values stops
                    # most runs on the threshold; a huge one stops them on the budget
                    values = sorted(naive_cliques_at_edge(g, e, s) for e in g.edges())
                    middle = (values[m // 2] + 0.5) / m**exponent
                    for coefficient in (middle, 1e9):
                        for budget in (0, m // 2, m):
                            cfg = edge_config(g, coefficient, exponent, budget, s=s)
                            trace = edge_deletion_process(g, cfg)
                            assert trace == naive_edge_deletion_process(g, cfg)
                            stops.add((trace.budget_exhausted, len(trace.steps) == budget))
        # runs ended on the threshold before the budget, on the budget with an
        # edge still qualifying, and on both at once
        assert {(False, False), (True, True), (False, True)} <= stops

    def test_recount_inside_common_neighbourhood(self):
        # a core K_s on 1..s, and one more K_s on each core edge {x, y} with
        # x in {1, 2} and y >= 3, through s - 2 fresh vertices.  {1, 2} goes
        # first; that leaves {3, 4}, inside N(1) & N(2), in no s-clique, while
        # every edge at 1 or 2 keeps its own.  A stale value of {3, 4} would
        # let {1, 3} go before it.
        for s in (4, 5):
            cliques = [tuple(range(1, s + 1))]
            fresh = s + 1
            for x in (1, 2):
                for y in range(3, s + 1):
                    cliques.append((x, y) + tuple(range(fresh, fresh + s - 2)))
                    fresh += s - 2
            g = graph_from_edges(sorted({e for c in cliques for e in combinations(c, 2)}))
            cfg = edge_config(g, 1e9, 0.0, 3, s=s)
            trace = edge_deletion_process(g, cfg)
            first_two = [(step.item, step.value) for step in trace.steps[:2]]
            assert first_two == [((1, 2), 1), ((3, 4), 0)]
            assert trace == naive_edge_deletion_process(g, cfg)

    def test_dense_graphs(self):
        # Turan and colex Turan graphs are dense in s-cliques: one deletion
        # takes several from an edge, while edges of W meeting the partial
        # colex vertex lose none.  A full budget takes every edge, so the
        # trace records each edge's value at the step that takes it.
        for r in (4, 5, 6):
            for g in (turan_graph(r, 10), colex_turan_graph(r, 35)):
                m = g.edge_count
                for s in range(4, r + 1):
                    for budget in (0, m // 2, m):
                        cfg = edge_config(g, 1e9, 0.0, budget, s=s)
                        trace = edge_deletion_process(g, cfg)
                        assert len(trace.steps) == budget
                        assert trace == naive_edge_deletion_process(g, cfg)

    def test_labels_past_six_bits(self):
        # an edge u < v is packed as v << b | u with b = len(adj).bit_length():
        # b = 6 at n = 62 and 7 at n = 63, 64 and 100.  The rescan oracle pays
        # C(n - 2, s - 2) per edge, so it runs on the graph's non-isolated
        # vertices relabelled 1, 2, ... in order, and its trace is relabelled back
        rng = random.Random(27)
        cases = [(Graph(0, (0,)), [], 100), (complete_graph(2), [64, 100], 100)]
        for n in (62, 63, 64, 100):
            labels = sorted(rng.sample(range(1, n), 9)) + [n]
            cases.append((_greedy_clique_free(rng, 10, 5), labels, n))
        wide = set()
        for h, labels, n in cases:
            g = _relabel(h, labels, n)
            for s in (3, 4, 5):
                default = default_edge_config(g, s, 5, 0.5)
                for cfg in (
                    default,
                    dataclasses.replace(default, coefficient=4 * default.coefficient),
                    dataclasses.replace(default, coefficient=1e9, edge_budget=g.edge_count),
                ):
                    trace = edge_deletion_process(g, cfg)
                    assert trace == _relabel_trace(naive_edge_deletion_process(h, cfg), labels, n)
                    wide.update(step.item[0] >= 64 for step in trace.steps)
        assert wide == {False, True}  # some deleted edges have both ends past bit 5

    def test_tie_above_bit_five(self):
        # value-0 edges alike in their low six bits: (3, 70) and (67, 70)
        # differ in u only at bit 6, (5, 10) and (5, 74) in v only
        g = graph_from_edges([(67, 70), (5, 74), (3, 70), (5, 10), (1, 2), (1, 99), (2, 99)], 100)
        cfg = edge_config(g, 1e9, 0.0, g.edge_count)
        trace = edge_deletion_process(g, cfg)
        assert [step.item for step in trace.steps[:4]] == [(5, 10), (3, 70), (67, 70), (5, 74)]
        assert trace == naive_edge_deletion_process(g, cfg)

    def test_no_recount_after_the_initial_values(self, monkeypatch):
        # the up-front values take one count at depth s - 2 per edge; after
        # that a deletion only subtracts losses, counted at depth <= s - 3
        # (not at all at s = 3)
        depths = []

        def counting(succ, cand, depth):
            depths.append(depth)
            return count_within(succ, cand, depth)

        count_within = processes._count_within
        monkeypatch.setattr(processes, "_count_within", counting)
        g = turan_graph(5, 10)
        m = g.edge_count
        for s in (3, 4, 5):
            depths.clear()
            cfg = edge_config(g, 1e9, 0.0, m, s=s)
            trace = edge_deletion_process(g, cfg)
            assert depths[:m] == [s - 2] * m
            assert all(depth <= s - 3 for depth in depths[m:])
            if s == 3:
                assert len(depths) == m
            else:
                assert len(depths) > m
            assert trace == naive_edge_deletion_process(g, cfg)

    def test_process_corpus(self):
        for g in process_corpus():
            configs = [
                default_edge_config(g, 3, 3, 0.3),
                ProcessConfig("edge", 3, 3, 0.3, 10.0, 0.0, math.floor(0.6 * g.edge_count)),
                ProcessConfig("edge", 4, 3, 0.3, 1e9, 0.0, g.edge_count // 3),
            ]
            for cfg in configs:
                assert edge_deletion_process(g, cfg) == naive_edge_deletion_process(g, cfg)


class TestVertexProcess:
    def test_leaves_go_first(self):
        star_plus_triangle = graph_from_edges(
            [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (7, 8), (8, 9), (7, 9)]
        )
        cfg = vertex_config(star_plus_triangle, 100.0, 8)
        trace = vertex_deletion_process(star_plus_triangle, cfg)
        order = [step.item for step in trace.steps]
        # all star vertices (degree <= 1 as the star shrinks) go before any
        # triangle vertex
        assert order[:4] == [2, 3, 4, 5]
        assert set(order[:6]) == {1, 2, 3, 4, 5, 6}
        assert all(item in {7, 8, 9} for item in order[6:])

    def test_regular_graph_above_threshold(self):
        g = turan_graph(3, 9)
        cfg = default_vertex_config(g, 3, 3, 0.1)
        trace = vertex_deletion_process(g, cfg)
        assert trace.steps == ()
        assert not trace.budget_exhausted

    def test_zero_budget(self):
        g = PAW
        cfg = vertex_config(g, 100.0, 0)
        trace = vertex_deletion_process(g, cfg)
        assert trace.steps == () and trace.final_graph == g
        assert trace.budget_exhausted  # a qualifying vertex existed
        assert trace.partial_last_vertex.removed_edges == ()

    def test_zero_budget_deletes_zero_cost_vertices(self):
        # a vertex of degree 0 costs nothing, so the budget 0 covers it;
        # the next qualifying vertex is spared with no edge trimmed
        g = graph_from_edges([(1, 2), (2, 3)], 4)
        trace = vertex_deletion_process(g, vertex_config(g, 1.0, 0))
        assert [dataclasses.astuple(step) for step in trace.steps] == [("vertex", 4, 0, 2)]
        assert trace.partial_last_vertex == PartialVertex(1, ())
        assert trace.budget_exhausted and trace.final_graph == g

    def test_partial_final_vertex(self):
        g = complete_graph(4)
        cfg = vertex_config(g, 100.0, 4)
        trace = vertex_deletion_process(g, cfg)
        assert len(trace.steps) == 1
        assert trace.steps[0].value == 3
        assert trace.partial_last_vertex is not None
        assert len(trace.partial_last_vertex.removed_edges) == 1
        assert trace.budget_exhausted
        assert g.edge_count - trace.final_graph.edge_count == 4

    def test_exact_budget_spares_next_vertex(self):
        g = complete_graph(4)
        cfg = vertex_config(g, 100.0, 3)
        trace = vertex_deletion_process(g, cfg)
        assert len(trace.steps) == 1
        # budget met exactly, but a qualifying vertex remains: it is spared
        # with zero trimmed edges so the post-state contract stays honest
        assert trace.partial_last_vertex is not None
        assert trace.partial_last_vertex.removed_edges == ()
        assert trace.budget_exhausted

    def test_post_state_or_partial_always(self):
        for budget in range(7):
            g = graph_from_edges([(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (2, 5)])
            cfg = vertex_config(g, 10.0, budget)
            trace = vertex_deletion_process(g, cfg)
            if trace.partial_last_vertex is None:
                removed = {step.item for step in trace.steps}
                final = trace.final_graph
                bound = cfg.coefficient * final.edge_count**cfg.exponent
                for v in g.vertices():
                    if v not in removed:
                        assert final.degree(v) >= bound

    def test_post_state_degree_condition(self):
        g = colex_turan_graph(3, 25)
        cfg = default_vertex_config(g, 3, 3, 0.2)
        trace = vertex_deletion_process(g, cfg)
        if trace.partial_last_vertex is None and not trace.budget_exhausted:
            removed = {step.item for step in trace.steps}
            final = trace.final_graph
            bound = cfg.coefficient * math.sqrt(final.edge_count)
            for v in g.vertices():
                if v not in removed:
                    assert final.degree(v) >= bound

    def test_replay_with_partial(self):
        g = complete_graph(4)
        cfg = vertex_config(g, 100.0, 4)
        trace = vertex_deletion_process(g, cfg)
        assert replay_trace(g, trace) == trace.final_graph

    def test_edge_sum_matches(self):
        for budget in range(6):
            g = graph_from_edges([(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (2, 5)])
            cfg = vertex_config(g, 10.0, budget)
            trace = vertex_deletion_process(g, cfg)
            removed = sum(step.value for step in trace.steps)
            if trace.partial_last_vertex is not None:
                removed += len(trace.partial_last_vertex.removed_edges)
            assert g.edge_count - trace.final_graph.edge_count == removed



class TestVertexProcessAgainstNaive:
    """Traces equal those of the neighbour-set oracle, which recomputes the threshold every step."""

    def test_random_graphs(self):
        rng = random.Random(19)
        stops = set()
        for _ in range(500):
            n = rng.randint(1, 9)
            density = rng.random()
            pairs = [(u, v) for v in range(2, n + 1) for u in range(1, v)]
            g = graph_from_edges([e for e in pairs if rng.random() < density], n)
            m = g.edge_count
            for exponent in (0.0, 0.5, -0.5, 1.0):
                for coefficient in (0.5, 1.5, 3.0, 100.0):
                    for budget in (0, m // 2, m):
                        cfg = ProcessConfig("vertex", 3, 3, 0.25, coefficient, exponent, budget)
                        trace = vertex_deletion_process(g, cfg)
                        naive = naive_vertex_deletion_process(g, cfg)
                        assert trace == naive
                        assert trace.final_graph == naive.final_graph
                        partial = trace.partial_last_vertex
                        stops.add((trace.budget_exhausted, partial and len(partial.removed_edges) > 0))
        # runs ended on the threshold, and on the budget with the spared
        # vertex trimmed of no edge and of some
        assert {(False, None), (True, False), (True, True)} <= stops

    def test_labels_past_six_bits(self):
        # a heap entry is degree << b | v with b = len(adj).bit_length():
        # b = 6 at n = 62 and 7 from n = 63 on
        rng = random.Random(44)
        wide = set()
        for n in (62, 63, 64, 100, 130):
            for _ in range(3):
                density = rng.uniform(0.03, 0.15)
                pairs = combinations(range(1, n + 1), 2)
                g = graph_from_edges([e for e in pairs if rng.random() < density], n)
                m = g.edge_count
                for cfg in (
                    default_vertex_config(g, 3, 3, 0.2),
                    ProcessConfig("vertex", 3, 3, 0.25, 1e9, 0.0, m // 2),
                    ProcessConfig("vertex", 3, 3, 0.25, 4.0, -0.5, m),
                ):
                    trace = vertex_deletion_process(g, cfg)
                    naive = naive_vertex_deletion_process(g, cfg)
                    assert trace == naive
                    assert trace.final_graph == naive.final_graph
                    wide.update(step.item >= 64 for step in trace.steps)
        assert wide == {False, True}


class TestFinalGraphs:
    """final_graph skips Graph's re-check; it must still pass it and equal the replay."""

    def _check(self, g, trace):
        final = trace.final_graph
        assert Graph(final.vertex_count, final.adjacency) == final
        assert replay_trace(g, trace) == final

    def test_every_return_path_on_the_corpus(self):
        stops = set()
        for g in process_corpus():
            m = g.edge_count
            for budget in (m // 3, m):
                for coefficient in (1.0, 1e9):
                    cfg = ProcessConfig("edge", 3, 3, 0.3, coefficient, 0.0, budget)
                    trace = edge_deletion_process(g, cfg)
                    self._check(g, trace)
                    stops.add(("edge", len(trace.steps) == budget))
                    cfg = ProcessConfig("vertex", 3, 3, 0.3, coefficient, 0.5, budget)
                    trace = vertex_deletion_process(g, cfg)
                    self._check(g, trace)
                    stops.add(("vertex", trace.partial_last_vertex is not None))
        # both edge returns (threshold, budget) and both vertex returns
        # (no qualifying vertex, partial last vertex) were reached
        assert stops == {("edge", False), ("edge", True), ("vertex", False), ("vertex", True)}


class TestStability:
    def test_colex_turan_is_extremal_and_partite(self):
        report = stability_experiment(colex_turan_graph(3, 25), 3, 3, 0.1)
        assert report.input_clique_free
        assert report.ratio == 1.0
        assert report.edits_to_partite == 0
        assert report.edits_within_epsilon

    def test_balanced_graph(self):
        report = stability_experiment(turan_graph(3, 9), 3, 3, 0.1)
        assert report.ratio is not None and report.ratio <= 1.0
        assert report.edits_to_partite == 0
        assert report.meets_sqrt_degree_bound
        assert report.meets_order_degree_bound

    def test_reporting_only_for_precondition_violations(self):
        g = critical_edge_gadget(3, 24)
        adj = list(g.adjacency)
        adj[1] |= 1 << 4
        adj[4] |= 1 << 1
        broken = Graph(g.vertex_count, tuple(adj))
        report = stability_experiment(broken, 3, 3, 0.1)
        assert not report.input_clique_free
        assert report.edits_to_partite > 0


class TestProofConstants:
    def test_values(self):
        pc = proof_constants(3, 3, 0.1)
        assert 0.0 < pc.rho < 1.0
        assert pc.rho_lower < pc.rho
        assert pc.delta == pytest.approx(3 * 1 * (1 / 27) ** 0.5 * 0.01 / 16)
        assert pc.epsilon_prime == pytest.approx(0.1 / 49)
        assert 0.0 < pc.alpha <= 0.01
        assert pc.eta == pytest.approx(0.01 * pc.alpha)

    def test_validation(self):
        with pytest.raises(ValueError):
            proof_constants(1, 3, 0.1)
        with pytest.raises(ValueError):
            proof_constants(3, 3, 1.5)
