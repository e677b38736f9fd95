import random
from itertools import combinations
from math import comb

import pytest

from mexkit import graphs
from mexkit.constructions import blowup, colex_turan_graph, complete_graph, turan_graph
from mexkit.graphs import (
    Graph,
    clique_profile,
    cliques_at_edge,
    cliques_at_vertex,
    contains_clique,
    contains_subgraph,
    count_cliques,
    format_edge_list,
    graph_from_edges,
    min_clique_degrees,
    non_isolated_subgraph,
    parse_edge_list,
)

from corpus import named_small_graphs, small_corpus
from oracles import (
    naive_cliques_at_edge,
    naive_cliques_at_vertex,
    naive_contains,
    naive_count_cliques,
    naive_degeneracy_successors,
)

TRIANGLE = graph_from_edges([(1, 2), (1, 3), (2, 3)])
PATH3 = graph_from_edges([(1, 2), (2, 3)])
C5 = graph_from_edges([(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
PAW = graph_from_edges([(1, 2), (1, 3), (2, 3), (3, 4)])


class TestGraphFromEdges:
    def test_triangle(self):
        assert TRIANGLE.vertex_count == 3
        assert TRIANGLE.edge_count == 3

    def test_isolated_padding(self):
        g = graph_from_edges([], explicit_vertex_count=4)
        assert g.vertex_count == 4 and g.edge_count == 0

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            graph_from_edges([(1, 2), (1, 2)])
        with pytest.raises(ValueError, match="duplicate"):
            graph_from_edges([(1, 2), (2, 1)])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            graph_from_edges([(1, 1)])

    def test_bad_endpoints_rejected(self):
        with pytest.raises(ValueError):
            graph_from_edges([(0, 2)])
        with pytest.raises(ValueError):
            graph_from_edges([(1, 2, 3)])

    def test_explicit_count_below_max_rejected(self):
        with pytest.raises(ValueError):
            graph_from_edges([(1, 5)], explicit_vertex_count=4)

    def test_adjacency_validation(self):
        with pytest.raises(ValueError, match="asymmetric"):
            Graph(2, (0, 0b100, 0))
        # a bit past n, bit 0 (the padding) and a negative mask
        for mask in (0b1000, 0b1, -0b100):
            with pytest.raises(ValueError, match="neighbor of 1 out of range"):
                Graph(2, (0, mask, 0b10))
        assert Graph(2, (0, 0b100, 0b10)).edge_count == 1


class TestCountCliques:
    def test_complete(self):
        assert count_cliques(complete_graph(4), 3) == 4

    def test_balanced_tripartite(self):
        assert count_cliques(turan_graph(3, 6), 3) == 8

    def test_path_has_no_triangle(self):
        assert count_cliques(PATH3, 3) == 0

    def test_low_orders(self):
        assert count_cliques(C5, 1) == 5
        assert count_cliques(C5, 2) == 5

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            count_cliques(C5, 0)


class TestCliquesAtVertexAndEdge:
    def test_vertex_examples(self):
        assert cliques_at_vertex(complete_graph(4), 2, 3) == 3
        star = graph_from_edges([(1, 2), (1, 3), (1, 4)])
        assert cliques_at_vertex(star, 1, 2) == 3
        assert cliques_at_vertex(TRIANGLE, 3, 3) == 1

    def test_vertex_out_of_range(self):
        with pytest.raises(ValueError):
            cliques_at_vertex(TRIANGLE, 4, 3)

    def test_edge_examples(self):
        assert cliques_at_edge(complete_graph(4), (1, 2), 3) == 2
        assert cliques_at_edge(TRIANGLE, (2, 3), 3) == 1
        assert cliques_at_edge(colex_turan_graph(3, 25), (1, 9), 3) == 2

    def test_non_edge_rejected(self):
        with pytest.raises(ValueError, match="not an edge"):
            cliques_at_edge(PATH3, (1, 3), 3)


class TestMinCliqueDegrees:
    def test_complete(self):
        assert min_clique_degrees(complete_graph(4), 3) == (3, 2)

    def test_pendant(self):
        assert min_clique_degrees(PAW, 3) == (0, 0)

    def test_colex_turan(self):
        assert min_clique_degrees(colex_turan_graph(3, 25), 3)[1] == 2

    def test_edgeless_marker(self):
        g = graph_from_edges([], explicit_vertex_count=3)
        assert min_clique_degrees(g, 3) == (0, None)
        empty = graph_from_edges([])
        assert min_clique_degrees(empty, 3) == (None, None)

    def test_colex_turan_pinned(self):
        g = colex_turan_graph(6, 2000)
        assert min_clique_degrees(g, 5) == (648, 135)
        assert min_clique_degrees(g, 6) == (432, 108)

    def test_matches_naive_minima(self):
        # planted false-twin classes share their masks; isolated vertices
        # count 0 at s = 2 and up, and an edgeless graph leaves no edge minimum
        rng = random.Random(407)
        seen = dict.fromkeys(["isolated", "edgeless", "twins"], 0)
        for _ in range(150):
            n = rng.randint(0, 12)
            g = _planted_twins(rng, n)[0] if n else Graph(0, (0,))
            for s in range(2, 6):
                want_vertex = min(
                    (naive_cliques_at_vertex(g, v, s) for v in g.vertices()), default=None
                )
                want_edge = min(
                    (naive_cliques_at_edge(g, e, s) for e in g.edges()), default=None
                )
                assert min_clique_degrees(g, s) == (want_vertex, want_edge), (g, s)
            seen["isolated"] += 0 in g.adjacency[1:]
            seen["edgeless"] += g.edge_count == 0
            seen["twins"] += len(set(g.adjacency[1:])) < n
        assert min(seen.values()) >= 10, seen


class TestCliqueProfile:
    def test_examples(self):
        assert clique_profile(TRIANGLE).counts == (3, 3, 1)
        assert clique_profile(turan_graph(3, 6)).counts == (6, 12, 8)
        assert clique_profile(graph_from_edges([], explicit_vertex_count=5)).counts == (5,)

    def test_omega(self):
        profile = clique_profile(complete_graph(4))
        assert profile.omega == 4 and profile.counts == (4, 6, 4, 1)

    def test_colex_turan_profile_pinned(self):
        # the counts the unit kernel gives on all 70 vertices
        g = colex_turan_graph(6, 2000)
        assert clique_profile(g).counts == (70, 2000, 30498, 262143, 1202904, 2300400)
        assert graphs._twin_classes(g.adjacency)[0].bit_count() == 12

    def test_extremal_graphs_have_few_twin_classes(self):
        # T_r(n) collapses to K_r, and CT_r(m) to at most 2r classes
        from mexkit.graphs import _bits, _count_within

        g = turan_graph(5, 20)
        firsts, sizes, big = graphs._twin_classes(g.adjacency)
        assert [sizes[v] for v in _bits(firsts)] == [4] * 5 and big == firsts
        assert _count_within(g._successors, firsts, 5) == 1
        for r in range(2, 8):
            for m in range(1, 3000):
                assert len(set(colex_turan_graph(r, m).adjacency) - {0}) <= 2 * r, (r, m)


def _random_graph(rng, n):
    """n vertices at a random density; half the time no edge joins 1..c to c+1..n, c random."""
    p, cut = rng.random(), rng.randint(0, n) if rng.random() < 0.5 else 0
    pairs = combinations(range(1, n + 1), 2)
    return graph_from_edges([(u, v) for u, v in pairs if not u <= cut < v and rng.random() < p], n)


def _edge_component_count(g):
    """Number of components of g that have an edge."""
    root = list(range(g.vertex_count + 1))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for u, v in g.edges():
        root[find(u)] = find(v)
    return len({find(v) for v in g.vertices() if g.adjacency[v]})


def _planted_twins(rng, n):
    """A random graph on k classes blown up to n vertices, relabeled at random, and whether
    an edge was put inside a class.

    Half the time k is at most n/2, so the classes halve the vertices; about
    one vertex in ten is left isolated.
    """
    k = rng.randint(1, n if rng.random() < 0.5 else max(1, n // 2))
    part = [rng.randrange(k) if rng.random() < 0.9 else None for _ in range(n)]
    p, inside = rng.uniform(0.5, 1), rng.uniform(0, 0.15)
    base = {(a, b) for a in range(k) for b in range(a) if rng.random() < p}
    label = rng.sample(range(1, n + 1), n)
    edges, split = [], False
    for u, v in combinations(range(n), 2):
        a, b = part[u], part[v]
        if a is None or b is None:
            continue
        if a == b and rng.random() < inside:
            split = True
        elif (max(a, b), min(a, b)) not in base:
            continue
        edges.append((label[u], label[v]))
    return graph_from_edges(edges, explicit_vertex_count=n), split


class TestContainsSubgraph:
    def test_examples(self):
        assert contains_subgraph(complete_graph(4), TRIANGLE)
        assert not contains_subgraph(C5, TRIANGLE)
        ct = colex_turan_graph(3, 25)
        assert not contains_subgraph(ct, complete_graph(4))
        assert count_cliques(ct, 4) == 0

    def test_isolated_pattern_vertices_need_only_order(self):
        pattern = graph_from_edges([(1, 2)], explicit_vertex_count=4)
        assert contains_subgraph(complete_graph(4), pattern)
        assert not contains_subgraph(TRIANGLE, pattern)

    def test_non_induced(self):
        # a triangle sits inside K_4 even though K_4 has extra edges
        assert contains_subgraph(complete_graph(4), PAW)

    def test_matches_naive_embedding(self):
        # seeded hosts on 0-7 vertices and patterns on 0-5, each of a random
        # density and half of them cut in two, so patterns with isolated
        # vertices, with two or more components with an edge, and with more
        # vertices than the host all occur
        rng = random.Random(21)
        seen = dict.fromkeys(["isolated", "disconnected", "larger", "contained", "free"], 0)
        for _ in range(3000):
            g, f = _random_graph(rng, rng.randint(0, 7)), _random_graph(rng, rng.randint(0, 5))
            want = naive_contains(g, f)
            assert contains_subgraph(g, f) == want, (g, f)
            seen["isolated"] += 0 in f.adjacency[1:]
            seen["disconnected"] += _edge_component_count(f) > 1
            seen["larger"] += f.vertex_count > g.vertex_count
            seen["contained" if want else "free"] += 1
        assert min(seen.values()) >= 50, seen


class TestInvariants:
    def test_handshake_and_edge_sum(self):
        from math import comb

        for g in small_corpus():
            for s in range(2, 6):
                total = count_cliques(g, s)
                assert sum(
                    cliques_at_vertex(g, v, s) for v in g.vertices()
                ) == s * total
                assert sum(
                    cliques_at_edge(g, e, s) for e in g.edges()
                ) == comb(s, 2) * total

    def test_agrees_with_naive_subset_scan(self):
        # the 0-vertex and the edgeless graphs reach the kernel's depth-1 and
        # depth-2 answers with nothing to count
        for g in [Graph(0, (0,)), *small_corpus()]:
            for t in range(1, 6):
                expected = naive_count_cliques(g, t)
                assert count_cliques(g, t) == expected
                assert contains_clique(g, t) == (expected > 0)
            for v in g.vertices():
                assert cliques_at_vertex(g, v, 3) == naive_cliques_at_vertex(g, v, 3)
            for e in g.edges():
                assert cliques_at_edge(g, e, 3) == naive_cliques_at_edge(g, e, 3)

    def test_agrees_with_naive_scan_on_random_graphs(self):
        import random

        rng = random.Random(404)
        for _ in range(40):
            n = rng.randint(4, 12)
            pairs = [(u, v) for v in range(2, n + 1) for u in range(1, v)]
            edges = rng.sample(pairs, rng.randint(1, len(pairs)))
            g = graph_from_edges(edges, explicit_vertex_count=n)
            for t in range(1, 7):
                expected = naive_count_cliques(g, t)
                assert count_cliques(g, t) == expected
                assert contains_clique(g, t) == (expected > 0)
            v = rng.randint(1, n)
            e = tuple(sorted(rng.choice(edges)))
            for s in (1, 2, 3, 4, 5):
                assert cliques_at_vertex(g, v, s) == naive_cliques_at_vertex(g, v, s)
            for s in (2, 3, 4, 5):
                assert cliques_at_edge(g, e, s) == naive_cliques_at_edge(g, e, s)

    def test_kernel_is_independent_of_the_orientation(self, monkeypatch):
        # each clique is reached once from its first vertex in any acyclic
        # orientation, so the count and the number of calls cannot depend on it
        import random

        from mexkit import graphs

        rng = random.Random(405)
        corpus = [Graph(0, (0,)), colex_turan_graph(3, 300), turan_graph(4, 13)]
        for _ in range(200):
            n = rng.randint(1, 14)
            pairs = [(u, v) for v in range(2, n + 1) for u in range(1, v)]
            edges = rng.sample(pairs, rng.randint(0, len(pairs)))
            corpus.append(graph_from_edges(edges, explicit_vertex_count=n))
        count_within = graphs._count_within
        calls = 0

        def counted(succ, cand, depth):
            nonlocal calls
            calls += 1
            return count_within(succ, cand, depth)

        monkeypatch.setattr(graphs, "_count_within", counted)
        for g in corpus:
            rank = list(g.vertices())
            rng.shuffle(rank)
            rank = [0, *rank]  # a random topological order: u before v iff rank[u] < rank[v]
            random_order = [
                sum(1 << u for u in graphs._bits(a) if rank[u] > rank[v])
                for v, a in enumerate(g.adjacency)
            ]
            orientations = [g._successors, naive_degeneracy_successors(g), random_order]
            everything = graphs._vertex_mask(g.vertex_count)
            for t in range(3, 7):
                seen = set()
                for succ in orientations:
                    calls = 0
                    seen.add((counted(succ, everything, t), calls))
                # one call per clique with at most t - 2 vertices, the empty one included
                expected_calls = 1 + sum(naive_count_cliques(g, k) for k in range(1, t - 1))
                assert seen == {(naive_count_cliques(g, t), expected_calls)}
            for cand in (0, everything, g.adjacency[-1]):
                for depth in range(7):
                    for succ in orientations:
                        assert graphs._has_within(succ, cand, depth) == (
                            count_within(succ, cand, depth) > 0
                        )

    def test_twin_quotient_matches_the_unit_kernel(self, monkeypatch):
        # graphs on both sides of the halving rule, quotients holding a K_4 and
        # classes split by an edge inside them all meet the naive scan and the
        # unit kernel on the whole vertex set; with no size floor every graph
        # that passes the rule is counted on its twin classes
        from mexkit import graphs

        monkeypatch.setattr(graphs, "_TWIN_MIN_VERTICES", 0)
        rng = random.Random(406)
        seen = dict.fromkeys(["quotient", "none", "quotient with K_4", "split class"], 0)
        for _ in range(200):
            n = rng.randint(1, 14)
            g, split = _planted_twins(rng, n)
            has_quotient = graphs._twin_classes(g.adjacency) is not None
            profile = []
            for t in range(1, 7):
                expected = naive_count_cliques(g, t)
                whole = graphs._count_within(g._successors, graphs._vertex_mask(n), t)
                assert count_cliques(g, t) == expected == whole, (g, t)
                assert contains_clique(g, t) == (expected > 0), (g, t)
                profile.append(expected)
            assert clique_profile(g).counts[:6] == tuple(c for c in profile if c), g
            seen["quotient" if has_quotient else "none"] += 1
            seen["quotient with K_4"] += has_quotient and profile[3] > 0
            seen["split class"] += has_quotient and split
        assert min(seen.values()) >= 10, seen

    def test_complete_split_graph_at_the_halving_rule(self):
        # K_a joined to b independent vertices has a + 1 twin classes, so the
        # rule takes it exactly when b >= a + 2; its t-cliques number
        # C(a, t) + b C(a, t - 1) either way
        for a in (10, 11, 30):
            for b in (a + 1, a + 2):
                edges = [(u, v) for v in range(2, a + 1) for u in range(1, v)]
                edges += [(u, a + w) for u in range(1, a + 1) for w in range(1, b + 1)]
                g = graph_from_edges(edges)
                assert (graphs._twin_classes(g.adjacency) is not None) == (b == a + 2), (a, b)
                for t in range(2, 6):
                    assert count_cliques(g, t) == comb(a, t) + b * comb(a, t - 1), (a, b, t)

    def test_twin_classes_match_their_definition(self):
        # the non-isolated vertices grouped by mask, each group filed under its
        # least vertex, and None when the groups do not halve those vertices;
        # the blowups, up to 6,000 vertices, pass the rule and must count as
        # the unit kernel does on the whole vertex set
        rng = random.Random(408)
        path = graph_from_edges([(v, v + 1) for v in range(1, 2000)])
        inputs = [_planted_twins(rng, rng.randint(1, 14))[0] for _ in range(200)]
        blowups = [blowup(h, t) for h in (path, colex_turan_graph(3, 100)) for t in (2, 3)]
        seen = dict.fromkeys(["quotient", "none"], 0)
        for g in inputs + blowups:
            groups = {}
            for v in g.vertices():
                if g.adjacency[v]:
                    groups.setdefault(g.adjacency[v], []).append(v)
            want = None
            if 2 * len(groups) <= sum(len(members) for members in groups.values()):
                firsts, big, sizes = 0, 0, [0] * (g.vertex_count + 1)
                for least, *rest in groups.values():
                    firsts |= 1 << least
                    big |= bool(rest) << least
                    sizes[least] = 1 + len(rest)
                want = (firsts, sizes, big)
            assert graphs._twin_classes(g.adjacency) == want, g.vertex_count
            seen["none" if want is None else "quotient"] += 1
        assert min(seen.values()) >= 10, seen
        for g in blowups:
            assert graphs._twin_classes(g.adjacency) is not None
            everything = graphs._vertex_mask(g.vertex_count)
            for t in (2, 3, 4):
                assert count_cliques(g, t) == graphs._count_within(g._successors, everything, t)

    def test_subgraph_matches_clique_count(self):
        for g in named_small_graphs():
            for t in range(2, 6):
                assert contains_subgraph(g, complete_graph(t)) == (
                    count_cliques(g, t) > 0
                )
                assert contains_clique(g, t) == (count_cliques(g, t) > 0)

    def test_profile_monotone_under_edge_addition(self):
        for g in small_corpus():
            base = clique_profile(g).counts
            for v in g.vertices():
                for u in range(1, v):
                    if g.has_edge(u, v):
                        continue
                    adj = list(g.adjacency)
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
                    bigger = clique_profile(Graph(g.vertex_count, tuple(adj))).counts
                    assert len(bigger) >= len(base)
                    for c_old, c_new in zip(base, bigger):
                        assert c_new >= c_old


class TestEdgeListFormat:
    def test_round_trip(self):
        for g in named_small_graphs():
            assert parse_edge_list(format_edge_list(g)) == g

    def test_header_comments_blank_lines(self):
        text = "# a comment\nn 5\n\n1 2  # trailing comment\n2 3\n"
        g = parse_edge_list(text)
        assert g.vertex_count == 5 and g.edge_count == 2

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            parse_edge_list("1 2 3\n")
        with pytest.raises(ValueError):
            parse_edge_list("1 x\n")
        with pytest.raises(ValueError):
            parse_edge_list("1 2\n1 2\n")

    def test_header_only_when_needed(self):
        no_isolated = graph_from_edges([(1, 2), (2, 3)])
        assert not format_edge_list(no_isolated).startswith("n ")
        padded = graph_from_edges([(1, 2)], explicit_vertex_count=3)
        assert format_edge_list(padded).startswith("n 3")


class TestNonIsolatedSubgraph:
    def test_relabels_in_order(self):
        g = graph_from_edges([(2, 5), (5, 7)], explicit_vertex_count=8)
        core = non_isolated_subgraph(g)
        assert core.vertex_count == 3
        assert set(core.edges()) == {(1, 2), (2, 3)}
