import pytest

from mexkit.constructions import (
    _e_balanced,
    blowup,
    colex_graph,
    colex_turan_graph,
    complete_graph,
    critical_edge_gadget,
    critical_edge_gadget_params,
    turan_graph,
    turan_number,
)
from mexkit.graphs import (
    Graph,
    contains_clique,
    count_cliques,
    graph_from_edges,
    non_isolated_subgraph,
)
from mexkit.oracle import canonical_form

from oracles import naive_colex_pairs


class TestTuran:
    def test_edge_count_examples(self):
        assert turan_number(3, 8) == 21
        assert turan_number(2, 4) == 4
        g = turan_graph(3, 6)
        assert g.edge_count == 12 and count_cliques(g, 3) == 8

    def test_part_sizes_balanced(self):
        for r in range(1, 8):
            for n in range(41):
                sizes = [(n + i) // r for i in range(r)]
                assert sum(sizes) == n and max(sizes) - min(sizes) <= 1
                pairs = sum(1 for v in range(1, n + 1) for u in range(1, v) if (v - u) % r)
                want = (n * n - sum(x * x for x in sizes)) // 2
                assert turan_number(r, n) == want == _e_balanced(2, r, n) == pairs, (r, n)

    def test_e_balanced_matches_the_product_recurrence(self):
        # e_k of the parts by multiplying in (1 + part x) one part at a time
        for size in range(1, 9):
            for total in range(31):
                e = [1] + [0] * 6
                for part in [(total + i) // size for i in range(size)]:
                    for j in range(6, 0, -1):
                        e[j] += part * e[j - 1]
                for k in range(7):
                    assert _e_balanced(k, size, total) == e[k], (k, size, total)

    @pytest.mark.parametrize(
        "build, r, n",
        [(turan_number, 0, 5), (turan_number, 3, -1), (turan_graph, 0, 5), (turan_graph, 3, -1)],
    )
    def test_validation(self, build, r, n):
        # r = 0 is a ValueError, not a ZeroDivisionError from the residue classes
        with pytest.raises(ValueError):
            build(r, n)

    def test_clique_free(self):
        for r in range(1, 6):
            for n in range(13):
                assert not contains_clique(turan_graph(r, n), r + 1)

    def test_single_part_is_edgeless(self):
        assert turan_graph(1, 5).edge_count == 0

    def test_matches_pair_definition(self):
        # r = n and r = n + 3 are complete graphs, as complete_graph builds them
        for n in range(41):
            for r in {*range(1, 8), max(n, 1), n + 3}:
                pairs = [
                    (u, v) for v in range(1, n + 1) for u in range(1, v) if (v - u) % r
                ]
                g = turan_graph(r, n)
                assert g == graph_from_edges(pairs, explicit_vertex_count=n), (r, n)
                assert Graph(n, g.adjacency) == g


class TestColexGraph:
    def test_examples(self):
        assert set(colex_graph(3).edges()) == {(1, 2), (1, 3), (2, 3)}
        assert canonical_form(colex_graph(6)) == canonical_form(complete_graph(4))
        assert set(colex_graph(4).edges()) == {(1, 2), (1, 3), (2, 3), (1, 4)}

    def test_empty(self):
        assert colex_graph(0).vertex_count == 0

    def test_matches_unrank_oracle(self):
        pairs = naive_colex_pairs(500)
        for m in range(501):
            assert colex_graph(m) == graph_from_edges(pairs[:m]), m


class TestColexTuranGraph:
    def test_figure_edges(self):
        ct = colex_turan_graph(3, 25)
        expected = set(turan_graph(3, 8).edges()) | {(1, 9), (2, 9), (4, 9), (5, 9)}
        assert set(ct.edges()) == expected

    def test_lattice_point_equals_turan(self):
        ct = colex_turan_graph(3, 12)
        assert canonical_form(non_isolated_subgraph(ct)) == canonical_form(
            turan_graph(3, 6)
        )

    def test_smallest(self):
        for r in range(2, 6):
            assert set(colex_turan_graph(r, 1).edges()) == {(1, 2)}

    def test_isomorphic_to_turan_at_every_lattice_point(self):
        for r in range(2, 5):
            for n in range(1, 11):
                ct = colex_turan_graph(r, turan_number(r, n))
                core = non_isolated_subgraph(ct)
                target = non_isolated_subgraph(turan_graph(r, n))
                assert canonical_form(core) == canonical_form(target)

    def test_matches_unrank_oracle(self):
        for r in range(2, 7):
            pairs = naive_colex_pairs(500, r)
            for m in range(501):
                assert colex_turan_graph(r, m) == graph_from_edges(pairs[:m]), (r, m)

    def test_revalidates(self):
        for m in range(501):
            g = colex_graph(m)
            assert Graph(g.vertex_count, g.adjacency) == g, m
            for r in range(2, 8):
                g = colex_turan_graph(r, m)
                assert Graph(g.vertex_count, g.adjacency) == g, (r, m)

    def test_around_every_turan_number(self):
        for r in range(2, 8):
            for n in range(2, 61):  # t_r(1) - 1 < 0; n = 2 covers m = 0, 1
                t = turan_number(r, n)
                for m in (t - 1, t, t + 1):
                    g = colex_turan_graph(r, m)
                    assert g.edge_count == m, (r, m)
                    # the residue classes colour it properly, so it has no K_{r+1}
                    for v in g.vertices():
                        for u in range(v + r, g.vertex_count + 1, r):
                            assert not g.has_edge(v, u), (r, m, v, u)
                    if r <= 3:
                        assert not contains_clique(g, r + 1), (r, m)

    def test_edge_counts_match_parameter(self):
        for r in (2, 3, 4):
            for m in range(61):
                assert colex_turan_graph(r, m).edge_count == m

    def test_clique_free_up_to_60_edges(self):
        for r in (2, 3, 4):
            for m in range(61):
                assert not contains_clique(colex_turan_graph(r, m), r + 1)

    def test_regular_at_divisible_lattice_points(self):
        for r in (2, 3, 4):
            for n in range(r, 13, r):
                ct = colex_turan_graph(r, turan_number(r, n))
                want = n * (r - 1) // r
                degrees = {ct.degree(v) for v in ct.vertices() if ct.adjacency[v]}
                assert degrees == {want}


class TestBlowup:
    def test_identity(self):
        g = graph_from_edges([(1, 2), (2, 3)])
        assert canonical_form(blowup(g, 1)) == canonical_form(g)

    def test_examples(self):
        c4 = graph_from_edges([(1, 2), (2, 3), (3, 4), (1, 4)])
        assert canonical_form(blowup(complete_graph(2), 2)) == canonical_form(c4)
        octa = blowup(complete_graph(3), 2)
        assert octa.vertex_count == 6 and octa.edge_count == 12
        assert count_cliques(octa, 3) == 8

    def test_clique_structure(self):
        for r in (1, 2, 3):
            for t in (1, 2, 3):
                b = blowup(complete_graph(r + 1), t)
                assert contains_clique(b, r + 1)
                assert not contains_clique(b, r + 2)

    def test_edge_count_scales(self):
        g = graph_from_edges([(1, 2), (2, 3), (1, 3), (3, 4)])
        for t in (1, 2, 3):
            assert blowup(g, t).edge_count == g.edge_count * t * t


class TestCriticalEdgeGadget:
    def test_attachment_params(self):
        p = critical_edge_gadget_params(3, 24)
        assert (p.host_order, p.attach_count) == (9, 3)
        p = critical_edge_gadget_params(3, 25)
        assert (p.host_order, p.attach_count) == (9, 4)

    def test_params_match_linear_scan(self):
        for r in range(2, 9):
            n = 1
            for m in range(1, 2001):
                while turan_number(r, n) < m:
                    n += 1
                p = critical_edge_gadget_params(r, m)
                assert (p.host_order, p.attach_count) == (n, m - turan_number(r, n - 1)), (r, m)
                # the apex has a neighbour, and no more than its row holds
                assert 1 <= p.attach_count <= (n - 1) - (n - 1) // r, (r, m)

    def test_triangle_counts(self):
        g24 = critical_edge_gadget(3, 24)
        assert g24.edge_count == 24 and count_cliques(g24, 3) == 21
        g25 = critical_edge_gadget(3, 25)
        assert g25.edge_count == 25 and count_cliques(g25, 3) == 23

    def test_beats_colex_turan(self):
        from mexkit.extremal import mex_clique

        assert count_cliques(critical_edge_gadget(3, 24), 3) > mex_clique(24, 3, 3)

    def test_apex_neighbors_spread_evenly(self):
        g = critical_edge_gadget(3, 24)
        apex = g.vertex_count
        neighbors = [u for u in g.vertices() if g.has_edge(apex, u)]
        assert neighbors == [1, 2, 3]
        residues = {(u - 1) % 3 for u in neighbors}
        assert len(residues) == 3

    def test_edge_totals(self):
        for m in range(1, 40):
            assert critical_edge_gadget(3, m).edge_count == m

    def test_matches_pair_definition(self):
        # T_r(n - 1) on 1..n-1 plus the apex n joined to 1..attach_count
        for r in range(2, 8):
            for m in range(1, 301):
                p = critical_edge_gadget_params(r, m)
                n = p.host_order
                pairs = [
                    (u, v) for v in range(1, n) for u in range(1, v) if (v - u) % r
                ] + [(u, n) for u in range(1, p.attach_count + 1)]
                g = critical_edge_gadget(r, m)
                assert g == graph_from_edges(pairs, explicit_vertex_count=n), (r, m)
                assert Graph(n, g.adjacency) == g

    def test_impossible_attachment(self):
        with pytest.raises(ValueError):
            critical_edge_gadget(3, 0)
        with pytest.raises(ValueError):
            critical_edge_gadget(1, 5)
