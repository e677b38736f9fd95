import random
from itertools import combinations, permutations, product
from math import comb

import pytest

from mexkit import oracle
from mexkit.cli import _EXPECTED_GRAPH_COUNTS
from mexkit.constructions import (
    blowup,
    colex_turan_graph,
    complete_graph,
    turan_graph,
)
from mexkit.extremal import mex_clique, zykov_ex
from mexkit.graphs import Graph, contains_subgraph, count_cliques, graph_from_edges
from mexkit.oracle import (
    DEFAULT_EDGE_CAP,
    DEFAULT_WITNESS_LIMIT,
    CapExceededError,
    brute_force_ex,
    brute_force_mex,
    brute_force_min_shadow,
    canonical_form,
    canonical_graph,
    enumerate_graphs,
    find_blowup,
    min_edits_to_r_partite,
)

from corpus import labeling_hard_graphs, named_small_graphs
from oracles import (
    are_isomorphic,
    naive_brute_force_ex,
    naive_brute_force_mex,
    naive_min_edits,
    naive_nonisomorphic_graphs,
)

P3 = graph_from_edges([(1, 2), (2, 3)])
C4 = graph_from_edges([(1, 2), (2, 3), (3, 4), (1, 4)])
C5 = graph_from_edges([(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
K13 = graph_from_edges([(1, 2), (1, 3), (1, 4)])
TWO_K2 = graph_from_edges([(1, 2), (3, 4)])
K2_K1 = graph_from_edges([(1, 2)], explicit_vertex_count=3)


@pytest.fixture
def all_witnesses(monkeypatch):
    """Lift the witness truncation, so a search returns every attainer."""
    monkeypatch.setattr(oracle, "DEFAULT_WITNESS_LIMIT", 10**6)


class TestCanonicalForm:
    def test_invariant_under_relabeling(self):
        rng = random.Random(11)
        pool = named_small_graphs() + list(enumerate_graphs(5))
        for g in pool:
            for _ in range(3):
                assert canonical_form(_shuffled(g, rng)) == canonical_form(g)

    def test_separates_non_isomorphic(self):
        p4 = graph_from_edges([(1, 2), (2, 3), (3, 4)])
        star = graph_from_edges([(1, 2), (1, 3), (1, 4)])
        assert canonical_form(p4) != canonical_form(star)

    def test_canonical_graph_is_fixed_point(self):
        for g in named_small_graphs():
            c = canonical_graph(g)
            assert canonical_graph(c) == c
            assert canonical_form(c) == canonical_form(g)

    def test_canonical_graph_is_isomorphic_to_input(self):
        rng = random.Random(5)
        for m in range(1, 7):
            for g in naive_nonisomorphic_graphs(m):
                c = canonical_graph(g)
                assert are_isomorphic(c, g)
                assert canonical_form(_shuffled(g, rng)) == canonical_form(g)

    def test_invariant_under_relabeling_on_hard_graphs(self):
        rng = random.Random(23)
        for g in labeling_hard_graphs():
            form = canonical_form(g)
            c = canonical_graph(g)
            assert are_isomorphic(c, g)
            assert canonical_graph(c) == c
            for _ in range(5):
                assert canonical_form(_shuffled(g, rng)) == form


def _connected(edges):
    """True iff the edges form one connected graph on the vertices they touch."""
    reached = {edges[0][0]}
    grew = True
    while grew:
        grew = False
        for u, v in edges:
            if (u in reached) != (v in reached):
                reached |= {u, v}
                grew = True
    return reached == {w for e in edges for w in e}


def _shuffled(g, rng):
    """g with its vertex labels permuted at random."""
    perm = list(g.vertices())
    rng.shuffle(perm)
    return graph_from_edges(
        [(perm[u - 1], perm[v - 1]) for u, v in g.edges()],
        explicit_vertex_count=g.vertex_count,
    )


class TestEnumeration:
    def test_tiny_levels(self):
        assert [canonical_form(g) for g in enumerate_graphs(1)] == [
            canonical_form(graph_from_edges([(1, 2)]))
        ]
        two = {canonical_form(g) for g in enumerate_graphs(2)}
        assert two == {
            canonical_form(graph_from_edges([(1, 2), (2, 3)])),
            canonical_form(graph_from_edges([(1, 2), (3, 4)])),
        }

    def test_m3_classes(self):
        got = {canonical_form(g) for g in enumerate_graphs(3)}
        expected = {
            canonical_form(graph_from_edges(e))
            for e in (
                [(1, 2), (1, 3), (2, 3)],
                [(1, 2), (2, 3), (3, 4)],
                [(1, 2), (1, 3), (1, 4)],
                [(1, 2), (2, 3), (4, 5)],
                [(1, 2), (3, 4), (5, 6)],
            )
        }
        assert got == expected

    def test_counts_match_independent_enumerator(self):
        for m in range(1, 6):
            main = list(enumerate_graphs(m))
            naive = naive_nonisomorphic_graphs(m)
            assert len(main) == len(naive)
            forms = {canonical_form(g) for g in naive}
            assert {canonical_form(g) for g in main} == forms

    def test_no_isolated_vertices_and_exact_edges(self):
        for m in range(1, 6):
            for g in enumerate_graphs(m):
                assert g.edge_count == m
                assert all(g.adjacency[v] for v in g.vertices())

    def test_order_and_representatives(self):
        # _mex_by_enumeration's witness order rests on this order
        for m in range(1, 8):
            graphs = list(enumerate_graphs(m))
            keys = [(g.vertex_count, canonical_form(g)) for g in graphs]
            assert all(a < b for a, b in zip(keys, keys[1:])), m
            assert all(g == canonical_graph(g) for g in graphs), m
            assert len(graphs) == _EXPECTED_GRAPH_COUNTS[m - 1], m

    def test_connected_levels_match_oeis(self):
        # connected graphs with m = 1..10 edges, OEIS A002905
        want = [1, 1, 3, 5, 12, 30, 79, 227, 710, 2322]
        assert [len(level) for level in oracle._connected_upto(10)[1:11]] == want

    def test_least_deletable_edge_leaves_a_connected_parent(self):
        # two diamonds joined through their degree-2 vertices by a 3-edge
        # path: the middle path edge alone has the least key (2, 2), but it
        # is a bridge; at 13 edges this is past the levels built above
        diamond = [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)]
        dumbbell = graph_from_edges(
            diamond + [(u + 6, v + 6) for u, v in diamond] + [(4, 5), (5, 6), (6, 7)]
        )

        def deletable(g, u, v):
            # g minus uv is connected, and only a leaf endpoint drops out
            rest = [e for e in g.edges() if e != (u, v)]
            pendant = min(g.degree(u), g.degree(v)) == 1
            return _connected(rest) and len({w for e in rest for w in e}) == (
                g.vertex_count - pendant
            )

        graphs = [dumbbell, C5, *named_small_graphs(), *labeling_hard_graphs()]
        for g in graphs:
            if g.edge_count < 2 or not _connected(list(g.edges())):
                continue
            assert any(
                deletable(g, *e) and oracle._least_deletable(g.adjacency, *e)
                for e in g.edges()
            ), g
        # ties are kept: every edge of an edge-transitive graph qualifies
        for g in (C5, complete_graph(4), K13, turan_graph(2, 6)):
            assert all(oracle._least_deletable(g.adjacency, *e) for e in g.edges())

    def test_cap_and_validation(self):
        with pytest.raises(CapExceededError):
            list(enumerate_graphs(11))
        with pytest.raises(ValueError):
            list(enumerate_graphs(0))


def _is_automorphism(g, p):
    return all(g.has_edge(p[u], p[v]) for u, v in g.edges())


def _orbits(points, maps, image):
    """The orbits of points under the group the maps span, as a set of frozensets."""
    orbits, seen = set(), set()
    for x in points:
        if x in seen:
            continue
        orbit, stack = {x}, [x]
        while stack:
            y = stack.pop()
            for p in maps:
                z = image(p, y)
                if z not in orbit:
                    orbit.add(z)
                    stack.append(z)
        seen |= orbit
        orbits.add(frozenset(orbit))
    return orbits


def _vertex_and_pair_orbits(n, maps):
    vertices = range(1, n + 1)
    pairs = [frozenset(pair) for pair in combinations(vertices, 2)]
    return (
        _orbits(vertices, maps, lambda p, v: p[v]),
        _orbits(pairs, maps, lambda p, pair: frozenset(p[v] for v in pair)),
    )


def _labeled_generators(g):
    """_class_generators of g's class, from labeling each component of g itself."""
    found = {}
    for verts in oracle._component_vertex_lists(g.adjacency):
        bits, gens = oracle._component_bits(g.adjacency, verts)
        found[(len(verts), bits)] = gens
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_AUTOMORPHISMS", found)
        return oracle._class_generators(canonical_form(g)[1])


def _level_classes():
    """(form, representative) of every class to m = 8 and of the K_3/4/5-free levels to n = 7."""
    classes = [(canonical_form(g), g) for m in range(1, 9) for g in enumerate_graphs(m)]
    for k in (3, 4, 5):
        for level in oracle._free_upto(7, complete_graph(k))[1:]:
            classes.extend(level.items())
    return classes


class TestTrustedRepresentatives:
    def test_checked_constructor_accepts_every_representative(self):
        # the levels build their representatives unchecked; the checked
        # constructor must accept each one and give back an equal graph
        levels = oracle._connected_upto(8) + oracle._free_upto(7, complete_graph(4))
        reps = [g for level in levels for g in level.values()]
        assert len(reps) > 1000
        for g in reps:
            assert type(g.adjacency) is tuple
            assert Graph(g.vertex_count, g.adjacency) == g


class TestAutomorphisms:
    def test_generators_are_automorphisms(self):
        # the builders' generators, and those of relabeled copies, which the
        # search meets at other leaves and moves by another final least leaf
        rng = random.Random(11)
        for form, g in _level_classes():
            for p in oracle._class_generators(form[1]):
                assert _is_automorphism(g, p), form
            for p in _labeled_generators(_shuffled(g, rng)):
                assert _is_automorphism(g, p), form
        *symmetric, frucht = labeling_hard_graphs()
        for g in symmetric:
            rep = canonical_graph(g)
            for _ in range(3):
                gens = _labeled_generators(_shuffled(g, rng))
                assert gens and all(_is_automorphism(rep, p) for p in gens)
        # the Frucht graph has no automorphism but the identity
        assert _labeled_generators(_shuffled(frucht, rng)) == []

    def test_orbits_match_all_permutations(self):
        # every graph on at most 6 vertices, disconnected ones with repeated
        # components and isolated vertices included
        rng = random.Random(12)
        for level in oracle._free_upto(6, complete_graph(7))[1:]:
            for form, g in level.items():
                n = g.vertex_count
                group = [(0, *q) for q in permutations(range(1, n + 1))]
                want = _vertex_and_pair_orbits(n, [p for p in group if _is_automorphism(g, p)])
                assert _vertex_and_pair_orbits(n, oracle._class_generators(form[1])) == want, form
                gens = _labeled_generators(_shuffled(g, rng))
                assert _vertex_and_pair_orbits(n, gens) == want, form

    def test_store_order_does_not_matter(self, monkeypatch):
        # both builders share _LEVELS and _AUTOMORPHISMS; building one
        # first must not change the other's levels
        built = []
        for connected_first in (True, False):
            monkeypatch.setattr(oracle, "_LEVELS", {})
            monkeypatch.setattr(oracle, "_AUTOMORPHISMS", {})
            if connected_first:
                oracle._connected_upto(7)
            oracle._free_upto(6, complete_graph(7))
            oracle._connected_upto(7)
            store = oracle._LEVELS
            built.append({key: [list(level.items()) for level in store[key]] for key in store})
        assert built[0] == built[1]
        assert sorted(move for move, _ in built[0]) == ["edge", "vertex"]

    def test_pruning_keeps_labelings_down(self, monkeypatch):
        # cold levels: one labeling per orbit of a parent's automorphisms,
        # so only children of different parents repeat a class
        calls = []
        label = oracle._component_bits

        def counted(adjacency, verts):
            calls.append(len(verts))
            return label(adjacency, verts)

        monkeypatch.setattr(oracle, "_component_bits", counted)
        monkeypatch.setattr(oracle, "_AUTOMORPHISMS", {})
        monkeypatch.setattr(oracle, "_LEVELS", {})
        assert sum(map(len, oracle._connected_upto(7)[1:])) == 131
        assert len(calls) <= 139
        calls.clear()
        oracle._free_upto(6, complete_graph(3))
        oracle._free_upto(6, complete_graph(4))
        assert len(calls) <= 196


class TestBruteForceMex:
    def test_triangle_is_optimal_at_three_edges(self):
        res = brute_force_mex(3, 3, complete_graph(4))
        assert res.optimum == 1
        assert res.search_space_size == 5
        assert any(w.edge_count == 3 and count_cliques(w, 3) == 1 for w in res.witnesses)

    def test_examples(self):
        assert brute_force_mex(7, 3, complete_graph(4)).optimum == 3
        assert brute_force_mex(6, 3, complete_graph(3)).optimum == 0

    def test_matches_closed_form_small(self):
        for m in range(1, 7):
            assert brute_force_mex(m, 3, complete_graph(4)).optimum == mex_clique(m, 3, 3)

    def test_witnesses_attain_optimum_and_pass_filter(self):
        forbidden = complete_graph(4)
        res = brute_force_mex(6, 3, forbidden)
        assert res.witnesses
        for w in res.witnesses:
            assert count_cliques(w, 3) == res.optimum
            assert not contains_subgraph(w, forbidden)

    def test_witnesses_in_canonical_form_order(self, monkeypatch):
        # every triangle-free graph attains s = 2 (m edges)
        tri = complete_graph(3)
        expected = sorted(
            (g for g in enumerate_graphs(6) if not contains_subgraph(g, tri)),
            key=canonical_form,
        )
        res = brute_force_mex(6, 2, tri)
        assert res.witness_count == len(expected) > DEFAULT_WITNESS_LIMIT
        assert list(res.witnesses) == expected[:DEFAULT_WITNESS_LIMIT]
        monkeypatch.setattr(oracle, "DEFAULT_WITNESS_LIMIT", len(expected))
        assert list(brute_force_mex(6, 2, tri).witnesses) == expected

    @pytest.mark.parametrize(
        "forbidden",
        [complete_graph(k) for k in range(1, 5)]
        + [P3, C4, K13, TWO_K2, K2_K1, Graph(0, (0,))],
        ids=["K1", "K2", "K3", "K4", "P3", "C4", "K13", "2K2", "K2+K1", "empty"],
    )
    @pytest.mark.usefixtures("all_witnesses")
    def test_matches_naive_enumeration(self, forbidden):
        for m in range(1, 7):
            for s in range(1, 5):
                res = brute_force_mex(m, s, forbidden)
                best, classes, space = naive_brute_force_mex(m, s, forbidden)
                assert (res.optimum, res.witness_count, res.search_space_size) == (
                    best, len(classes), space
                ), (m, s)
                # one-to-one: each witness matches one class, each class one witness
                hits = [
                    [i for i, h in enumerate(classes) if are_isomorphic(w, h)]
                    for w in res.witnesses
                ]
                assert sorted(hits) == [[i] for i in range(len(classes))], (m, s)
                forms = [canonical_form(w) for w in res.witnesses]
                assert forms == sorted(forms), (m, s)

    @pytest.mark.parametrize(
        "forbidden",
        [complete_graph(k) for k in range(1, 6)] + [P3, C4, K13],
        ids=["K1", "K2", "K3", "K4", "K5", "P3", "C4", "K13"],
    )
    @pytest.mark.usefixtures("all_witnesses")
    def test_knapsack_matches_enumeration(self, forbidden):
        # connected forbidden graphs take the knapsack; the enumerate-and-filter
        # loop kept for disconnected ones must give every field alike
        def fields(res):
            return (res.optimum, res.witnesses, res.witness_count, res.search_space_size)

        for m in range(1, 9):
            for s in range(1, 5):
                fast = brute_force_mex(m, s, forbidden)
                slow = oracle._mex_by_enumeration(m, s, forbidden, DEFAULT_EDGE_CAP)
                assert fields(fast) == fields(slow), (m, s)

    def test_search_space_is_a000664(self):
        # the knapsack counts the classes with m edges instead of listing them;
        # the reference counts run past the edge cap, which bounds this check
        for m, want in enumerate(_EXPECTED_GRAPH_COUNTS[:DEFAULT_EDGE_CAP], start=1):
            assert brute_force_mex(m, 2, complete_graph(3)).search_space_size == want

    def test_cap_and_validation(self):
        for forbidden in (complete_graph(4), TWO_K2):
            with pytest.raises(CapExceededError):
                brute_force_mex(11, 3, forbidden)
            with pytest.raises(ValueError):
                brute_force_mex(0, 3, forbidden)
            with pytest.raises(ValueError):
                brute_force_mex(3, 0, forbidden)

    @pytest.mark.parametrize("m", [9, 10])
    def test_matches_closed_form_at_the_edge_cap(self, m):
        assert brute_force_mex(m, 3, complete_graph(4)).optimum == mex_clique(m, 3, 3)


class TestBruteForceEx:
    def test_examples(self):
        res = brute_force_ex(6, 3, complete_graph(4))
        assert res.optimum == 8
        assert res.witness_count == 1
        assert res.witnesses[0] == canonical_graph(turan_graph(3, 6))

        res = brute_force_ex(4, 2, complete_graph(3))
        assert res.optimum == 4 and res.witness_count == 1
        assert res.witnesses[0] == canonical_graph(turan_graph(2, 4))

        res = brute_force_ex(5, 3, complete_graph(4))
        assert res.optimum == 4
        assert res.witnesses[0] == canonical_graph(turan_graph(3, 5))

    def test_matches_closed_form_small(self):
        for n in range(3, 6):
            assert brute_force_ex(n, 3, complete_graph(4)).optimum == zykov_ex(n, 3, 3)

    def test_search_space_size(self):
        # F-free classes on n vertices: OEIS A006785 for triangle-free graphs;
        # K_9 forbids nothing on 8 vertices, so that is every graph (A000088)
        triangle_free = [1, 2, 3, 7, 14, 38, 107, 410]
        k4_free = [1, 2, 4, 10, 29, 120, 685, 6431]
        for n, want in enumerate(triangle_free, start=1):
            assert brute_force_ex(n, 2, complete_graph(3)).search_space_size == want
        for n, want in enumerate(k4_free, start=1):
            assert brute_force_ex(n, 2, complete_graph(4)).search_space_size == want
        assert brute_force_ex(8, 2, complete_graph(9)).search_space_size == 12346

    def test_nothing_is_free_of_k1_or_the_empty_graph(self):
        for forbidden in (complete_graph(1), Graph(0, (0,))):
            res = brute_force_ex(3, 1, forbidden)
            assert (res.optimum, res.witnesses, res.witness_count) == (0, (), 0)
            assert res.search_space_size == 0
        res = brute_force_mex(3, 2, Graph(0, (0,)))
        assert (res.optimum, res.witness_count, res.search_space_size) == (0, 0, 5)

    @pytest.mark.parametrize(
        "forbidden, n_max",
        [(complete_graph(k), 6) for k in range(1, 5)]
        + [(C4, 5), (P3, 5), (K13, 5), (TWO_K2, 5), (K2_K1, 5)],
        ids=["K1", "K2", "K3", "K4", "C4", "P3", "K13", "2K2", "K2+K1"],
    )
    @pytest.mark.usefixtures("all_witnesses")
    def test_matches_labeled_scan(self, forbidden, n_max):
        for n in range(1, n_max + 1):
            for t in range(1, 5):
                res = brute_force_ex(n, t, forbidden)
                best, classes = naive_brute_force_ex(n, t, forbidden)
                assert (res.optimum, res.witness_count) == (best, len(classes)), (n, t)
                # one-to-one: each witness matches one class, each class one witness
                hits = [
                    [i for i, h in enumerate(classes) if are_isomorphic(w, h)]
                    for w in res.witnesses
                ]
                assert sorted(hits) == [[i] for i in range(len(classes))], (n, t)
                forms = [canonical_form(w) for w in res.witnesses]
                assert forms == sorted(forms), (n, t)

    def test_cap(self):
        with pytest.raises(CapExceededError):
            brute_force_ex(9, 2, complete_graph(3))

    def test_warm_levels_give_cold_results(self, monkeypatch):
        # the levels are kept across calls; a warm call must return what a
        # call on empty levels returns, for every forbidden graph, including
        # different ones on the same number of vertices
        def fields(res):
            return (res.optimum, res.witnesses, res.witness_count, res.search_space_size)

        calls = [(n, 3, complete_graph(4)) for n in (7, 4, 5, 6)]
        calls += [
            (n, t, f) for n in range(2, 7) for f in (complete_graph(4), C4, K13) for t in (1, 2)
        ]
        cold = []
        for n, t, f in calls:
            monkeypatch.setattr(oracle, "_LEVELS", {})
            cold.append(fields(brute_force_ex(n, t, f)))
        monkeypatch.setattr(oracle, "_LEVELS", {})
        warm = [fields(brute_force_ex(n, t, f)) for n, t, f in calls]
        assert warm == cold
        assert [move for move, _ in oracle._LEVELS] == ["vertex"] * 3

    def test_general_forbidden_graph(self):
        # forbidding the 4-cycle on 4 vertices: 5 edges force the diamond,
        # which contains a 4-cycle, so the optimum is 4 (the paw)
        res = brute_force_ex(4, 2, C4)
        assert res.optimum == 4
        paw = graph_from_edges([(1, 2), (1, 3), (2, 3), (3, 4)])
        assert res.witnesses[0] == canonical_graph(paw)


class TestBruteForceMinShadow:
    def test_examples(self):
        assert brute_force_min_shadow(6, 3, 2, 2) == 5
        assert brute_force_min_shadow(5, 3, 10, 2) == 10
        assert brute_force_min_shadow(6, 3, 2, 2, r_colorable=3) == 5

    def test_size_zero(self):
        assert brute_force_min_shadow(6, 3, 0, 2) == 0

    def test_cap(self):
        with pytest.raises(CapExceededError):
            brute_force_min_shadow(10, 5, 100, 4, cap=100)

    def test_validation(self):
        with pytest.raises(ValueError):
            brute_force_min_shadow(6, 3, 2, 3)
        with pytest.raises(ValueError):
            brute_force_min_shadow(6, 3, 2, 2, r_colorable=2)
        # 3-colourings of [5] and of [6] make at most 4 and 8 rainbow 3-sets
        with pytest.raises(ValueError, match="no qualifying family"):
            brute_force_min_shadow(5, 3, 5, 2, r_colorable=3)
        with pytest.raises(ValueError, match="no qualifying family"):
            brute_force_min_shadow(6, 3, 9, 2, r_colorable=3)

    def test_colorable_most_matches_all_colourings(self):
        # the largest qualifying family: the most k-sets one colouring of
        # [n] with min(r, n) colours makes rainbow
        for n in range(2, 6):
            for k in range(2, n + 1):
                for r in range(k, n + 2):
                    rr = min(r, n)
                    want = max(
                        sum(len({c[x] for x in s}) == k for s in combinations(range(n), k))
                        for c in product(range(rr), repeat=n)
                    )
                    assert oracle._colorable_most(n, k, r, None) == want, (n, k, r)

    def test_range_check_is_the_first_failing_size(self):
        # checking sizes 0..size_max at once raises what the first size
        # to fail would raise on its own, and nothing when none fails
        def outcome(check):
            try:
                check()
            except (ValueError, CapExceededError) as exc:
                return type(exc), str(exc)
            return None

        seen = set()
        for n in range(1, 7):
            for k in range(1, n + 2):
                for p in (1, 2):
                    for r in (None, 0, 1, 2, 3, 9):
                        for cap in (None, 1, 30, 10**4):
                            for size_max in range(-1, comb(n, k) + 3 if k <= n else 3):
                                args = (n, k, p, r, cap)
                                first = None
                                for size in range(size_max + 1):
                                    first = outcome(
                                        lambda: oracle._check_min_shadow(
                                            n, k, range(size, size + 1), p, r, cap
                                        )
                                    )
                                    if first:
                                        break
                                got = outcome(
                                    lambda: oracle._check_min_shadow(
                                        n, k, range(size_max + 1), p, r, cap
                                    )
                                )
                                assert got == first, (args, size_max)
                                seen.add(first and first[1].split()[0])
        assert {"size", "family", "no", "r_colorable", "coloring", "need", None} <= seen


class TestMinEdits:
    def test_examples(self):
        assert min_edits_to_r_partite(complete_graph(4), 3) == 1
        assert min_edits_to_r_partite(turan_graph(3, 6), 3) == 0
        assert min_edits_to_r_partite(C5, 2) == 1

    def test_colex_turan_is_already_partite(self):
        for r in (2, 3, 4):
            for m in range(31):
                assert min_edits_to_r_partite(colex_turan_graph(r, m), r) == 0

    def test_matches_naive_scan(self):
        for g in named_small_graphs():
            if g.vertex_count > 8:
                continue
            for r in (2, 3):
                assert min_edits_to_r_partite(g, r) == naive_min_edits(g, r), (
                    list(g.edges()),
                    r,
                )

    def test_cap(self):
        big = graph_from_edges([(i, i + 1) for i in range(1, 17)])
        with pytest.raises(CapExceededError):
            min_edits_to_r_partite(big, 2)
        assert min_edits_to_r_partite(big, 2, cap=None) == 0

    def test_cap_applies_per_component(self):
        matching = graph_from_edges([(2 * i - 1, 2 * i) for i in range(1, 10)])
        assert matching.vertex_count == 18
        assert min_edits_to_r_partite(matching, 2) == 0


class TestFindBlowup:
    def test_blowup_is_its_own_witness(self):
        host = blowup(complete_graph(3), 2)
        found, parts = find_blowup(host, 3, 2)
        assert found and len(parts) == 3
        for part in parts:
            assert len(part) == 2

    def test_balanced_tripartite_is_a_triple_blowup(self):
        found, parts = find_blowup(turan_graph(3, 9), 3, 3)
        assert found
        flat = [v for p in parts for v in p]
        assert len(set(flat)) == 9

    def test_triangle_free_host(self):
        found, parts = find_blowup(C5, 3, 1)
        assert not found and parts is None

    def test_witness_parts_completely_joined(self):
        host = turan_graph(4, 8)
        found, parts = find_blowup(host, 4, 2)
        assert found
        for i, p in enumerate(parts):
            for q in parts[i + 1 :]:
                for u in p:
                    for v in q:
                        assert host.has_edge(u, v)

    def test_caps(self):
        with pytest.raises(CapExceededError):
            find_blowup(complete_graph(4), 2, 4)

    def test_agrees_with_containment_oracle(self):
        # a 2-part blowup of size 2 is the 4-cycle; a 3-part size-1 blowup
        # is the triangle
        tri = graph_from_edges([(1, 2), (1, 3), (2, 3)])
        for m in range(1, 7):
            for g in enumerate_graphs(m):
                assert find_blowup(g, 2, 2)[0] == contains_subgraph(g, C4)
                assert find_blowup(g, 3, 1)[0] == contains_subgraph(g, tri)


class TestCrossChecks:
    def test_isomorphism_oracle_agrees_with_canonical_form(self):
        graphs = [
            g
            for m in range(1, 7)
            for g in list(enumerate_graphs(m)) + naive_nonisomorphic_graphs(m)
        ]
        for i, g in enumerate(graphs):
            for h in graphs[i:]:
                same = canonical_form(g) == canonical_form(h)
                assert are_isomorphic(g, h) == same
