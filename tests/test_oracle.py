import hashlib
import random
from array import array
from collections import defaultdict
from itertools import combinations, combinations_with_replacement, permutations, product
from math import comb

import pytest

from mexkit import oracle
from mexkit.colex import KSetFamily, ffk_min_shadow
from mexkit.cli import _EXPECTED_GRAPH_COUNTS
from mexkit.constructions import (
    blowup,
    colex_turan_graph,
    complete_graph,
    turan_graph,
    turan_number,
)
from mexkit.extremal import mex_clique, zykov_ex
from mexkit.graphs import Graph, contains_subgraph, count_cliques, graph_from_edges
from mexkit.oracle import (
    DEFAULT_EDGE_CAP,
    DEFAULT_WITNESS_LIMIT,
    CapExceededError,
    brute_force_ex,
    brute_force_mex,
    brute_force_mex_profile,
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
    naive_equitable_partition,
    naive_least_deletable,
    naive_min_edits,
    naive_nonisomorphic_graphs,
    naive_r_colorable,
)

P3 = graph_from_edges([(1, 2), (2, 3)])
C4 = graph_from_edges([(1, 2), (2, 3), (3, 4), (1, 4)])
C5 = graph_from_edges([(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
K4_MINUS_E = graph_from_edges([(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
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


def _twin_free_graphs():
    """Seeded graphs on 5 to 9 vertices where no two vertices share an open or closed mask."""
    rng = random.Random(31)
    found = []
    while len(found) < 40:
        n = rng.randint(5, 9)
        p = rng.uniform(0.2, 0.8)
        g = graph_from_edges(
            [(u, v) for u, v in combinations(range(1, n + 1), 2) if rng.random() < p],
            explicit_vertex_count=n,
        )
        closed = {a | 1 << v for v, a in enumerate(g.adjacency) if v}
        if len(set(g.adjacency[1:])) == len(closed) == n:
            found.append(g)
    return found


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
                deletable(g, *e) and naive_least_deletable(g.adjacency, *e)
                for e in g.edges()
            ), g
        # ties are kept: every edge of an edge-transitive graph qualifies
        for g in (C5, complete_graph(4), K13, turan_graph(2, 6)):
            assert all(naive_least_deletable(g.adjacency, *e) for e in g.edges())

    def test_deletion_rule_matches_the_naive_rule(self):
        # every move of every class on levels 0..8, of the hard graphs, and of
        # the dumbbell above and its connected one-edge deletions, each also
        # under three shuffles so a bridge's far side may hold vertex 1:
        # child(move) keeps a move exactly when the rule holds on the child,
        # and returns it
        levels = oracle._connected_upto(8)
        expand = oracle._edge_expand
        diamond = [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)]
        dumbbell = diamond + [(u + 6, v + 6) for u, v in diamond] + [(4, 5), (5, 6), (6, 7)]
        cut = [[f for f in dumbbell if f != e] for e in dumbbell]
        parents = [g for level in levels for g in level.values()] + labeling_hard_graphs()
        bells = [graph_from_edges(edges, 10) for edges in [dumbbell, *cut] if _connected(edges)]
        rng = random.Random(7)
        parents += bells + [_shuffled(g, rng) for g in bells for _ in range(3)]
        outcomes = set()
        for h in parents:
            n = h.vertex_count
            moves, child = expand(h)
            for move in moves:
                u, v = (move & -move).bit_length() - 1, move.bit_length() - 1
                adj = [*h.adjacency, 0] if v > n else list(h.adjacency)
                adj[u] |= 1 << v
                adj[v] |= 1 << u
                kept = naive_least_deletable(adj, u, v)
                assert child(move) == (adj if kept else None), (h, u, v)
                outcomes.add(kept)
        assert outcomes == {False, True}
        # (5, 6) alone has a smaller key than (1, 2) in the dumbbell, and it is a bridge
        h = graph_from_edges(cut[0], 10)
        assert expand(h)[1](0b110) == list(graph_from_edges(dumbbell).adjacency)

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
    for comp in oracle._components(g.adjacency):
        bits, gens = oracle._component_bits(g.adjacency, comp)
        found[(comp.bit_count(), bits)] = gens
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
                group = [(0, *q, n + 1) for q in permutations(range(1, n + 1))]
                group = [p for p in group if _is_automorphism(g, p)]
                want = _vertex_and_pair_orbits(n, group)
                class_gens = oracle._class_generators(form[1])
                assert _vertex_and_pair_orbits(n, class_gens) == want, form
                gens = _labeled_generators(_shuffled(g, rng))
                assert _vertex_and_pair_orbits(n, gens) == want, form
                # _levels' moves: the edge builder's non-edges as pair masks,
                # pendant pairs {u, n+1} included, and every neighbourhood of
                # the fresh vertex n+1, which the whole group fixes
                pairs = [
                    1 << u | 1 << v
                    for v in range(2, n + 2)
                    for u in range(1, v)
                    if not g.has_edge(u, v)
                ]
                for moves in (pairs, list(range(0, 1 << n + 1, 2))):
                    index = {x: i for i, x in enumerate(moves)}
                    first = [
                        x
                        for i, x in enumerate(moves)
                        if i == min(index[sum(1 << p[v] for v in oracle._bits(x))] for p in group)
                    ]
                    assert oracle._orbit_leaders(moves, class_gens) == first, form

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

        def counted(adjacency, comp):
            calls.append(comp)
            return label(adjacency, comp)

        monkeypatch.setattr(oracle, "_component_bits", counted)
        monkeypatch.setattr(oracle, "_AUTOMORPHISMS", {})
        monkeypatch.setattr(oracle, "_LEVELS", {})
        assert sum(map(len, oracle._connected_upto(7)[1:])) == 131
        assert len(calls) <= 139
        calls.clear()
        oracle._free_upto(6, complete_graph(3))
        oracle._free_upto(6, complete_graph(4))
        assert len(calls) <= 196


def _refined(g, start):
    """_refine of the ordered partition start (ascending vertex lists), every cell a splitter."""
    masks = [sum(1 << v for v in cell) for cell in start]
    return [set(oracle._bits(cell)) for cell in oracle._refine(g.adjacency, masks, masks)]


class TestRefine:
    def test_coarsest_equitable_refinement_in_order(self):
        # seeded graphs with n <= 10 and random ordered starting partitions
        rng = random.Random(20)
        for _ in range(600):
            n = rng.randint(1, 10)
            p = rng.random()
            pairs = [e for e in combinations(range(1, n + 1), 2) if rng.random() < p]
            g = graph_from_edges(pairs, explicit_vertex_count=n)
            verts = list(g.vertices())
            rng.shuffle(verts)
            cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
            start = [sorted(verts[a:b]) for a, b in zip([0, *cuts], [*cuts, n])]
            out = _refined(g, start)
            # it refines start and keeps start's cell order
            owners = [next(i for i, cell in enumerate(start) if sub <= set(cell)) for sub in out]
            assert owners == sorted(owners) and set(owners) == set(range(len(start)))
            # it is equitable
            for sub in out:
                for other in out:
                    assert len({sum(g.has_edge(v, u) for u in other) for v in sub}) == 1
            # as a set partition, it is the coarsest equitable refinement
            assert set(map(frozenset, out)) == naive_equitable_partition(g, start), (pairs, start)


def _level_digest(build):
    """sha256 of repr of the levels build() makes cold, with their forms and _AUTOMORPHISMS."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_LEVELS", {})
        mp.setattr(oracle, "_AUTOMORPHISMS", {})
        levels = build()
        store = ([list(level.items()) for level in levels], sorted(oracle._AUTOMORPHISMS.items()))
        return hashlib.sha256(repr(store).encode()).hexdigest()


class TestLevelDigests:
    # recorded before the mask-cell refinement kernel: a labeling change that
    # reorders a form, a level or a generator list changes these
    CONNECTED = "3857d1b75e5399d042b0da60ee6c89942d09f9d35570cf8ba58e044c937b21a0"

    def test_connected_levels(self):
        assert _level_digest(lambda: oracle._connected_upto(9)) == self.CONNECTED

    def test_pending_level_finishes_as_a_cold_build(self):
        # the profile leaves level 9 as kept children, unlabeled, which meet
        # every class; labeling them gives the levels and generators of a
        # cold build
        forms = set()

        def build():
            brute_force_mex_profile(9, 3, complete_graph(4))
            levels = oracle._LEVELS[("edge", None)]
            assert len(levels) == 9 and levels.pending
            forms.update(map(canonical_form, oracle._top_level(*oracle._EDGE_BUILDER, 9)))
            assert len(levels) == 9
            levels = oracle._connected_upto(9)
            assert forms == set(levels[9])
            return levels

        assert _level_digest(build) == self.CONNECTED

    @pytest.mark.parametrize(
        "k, digest",
        [
            (3, "adc57a81286dcd6dd5d6bd7f55f9213a417943ba6f3b01923f607ee7a3872b73"),
            (4, "a57c41f77d05b5bab8339a9c5cd5de399f52f564805d08a7abca6de9073387fa"),
            (5, "b9bb8c701dfc13ca8b0191bcc61e5a58d63c7c01d238f9186511073344a384b5"),
        ],
    )
    def test_free_levels(self, k, digest):
        assert _level_digest(lambda: oracle._free_upto(7, complete_graph(k))) == digest


def test_component_bits_digest():
    # the labeling kernel outside the levels, which reach only 9-10
    # vertices: every component of seeded graphs on 2-12 vertices and of
    # the hard graphs, each also under three shuffles.  Recorded before the
    # root refinement split by degree and the loops lost their generators;
    # a change to a form or to a generator list, or to its order, changes it
    rng = random.Random(30)
    graphs = []
    for _ in range(300):
        n = rng.randint(2, 12)
        p = rng.uniform(0.2, 0.8)
        pairs = [e for e in combinations(range(1, n + 1), 2) if rng.random() < p]
        graphs.append(graph_from_edges(pairs, explicit_vertex_count=n))
    digest = hashlib.sha256()
    for g in graphs + labeling_hard_graphs():
        for h in (g, *(_shuffled(g, rng) for _ in range(3))):
            for comp in oracle._components(h.adjacency):
                digest.update(repr(oracle._component_bits(h.adjacency, comp)).encode())
    assert digest.hexdigest() == "75215f9bdc00b8ef41781cb6eb5d1b9ce4daed8150df9fb82fe2dcdcb2e530c6"


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


class TestBruteForceMexProfile:
    @pytest.mark.parametrize(
        "forbidden",
        [complete_graph(k) for k in range(1, 6)]
        + [P3, C4, C5, K4_MINUS_E, K13, TWO_K2, K2_K1, Graph(0, (0,))],
        ids=[
            "K1", "K2", "K3", "K4", "K5", "P3", "C4", "C5", "K4-e", "K13", "2K2", "K2+K1", "empty"
        ],
    )
    def test_matches_the_per_m_search(self, forbidden, monkeypatch):
        # the profiles run first, on a fresh store: a connected forbidden
        # graph leaves level 8 unlabeled, and the per-m searches finish it
        monkeypatch.setattr(oracle, "_LEVELS", {})
        monkeypatch.setattr(oracle, "_AUTOMORPHISMS", {})
        got = [brute_force_mex_profile(8, s, forbidden) for s in range(1, 5)]
        for s in range(1, 5):
            want = [brute_force_mex(m, s, forbidden).optimum for m in range(1, 9)]
            assert got[s - 1] == want, s

    def test_enumeration_order_does_not_matter(self, monkeypatch):
        # the profile reads level 9 finished, or leaves it pending for
        # enumerate_graphs to finish
        results = []
        for profile_first in (True, False):
            monkeypatch.setattr(oracle, "_LEVELS", {})
            monkeypatch.setattr(oracle, "_AUTOMORPHISMS", {})
            steps = [
                lambda: brute_force_mex_profile(9, 3, complete_graph(4)),
                lambda: list(enumerate_graphs(9)),
            ]
            got = [step() for step in (steps if profile_first else steps[::-1])]
            results.append(got if profile_first else got[::-1])
        assert results[0] == results[1]
        assert results[0][0] == [mex_clique(m, 3, 3) for m in range(1, 10)]
        assert len(results[0][1]) == _EXPECTED_GRAPH_COUNTS[8]

    def test_empty_profile_and_validation(self):
        def outcome(search, *args):
            try:
                search(*args)
            except (ValueError, CapExceededError) as exc:
                return type(exc), str(exc)
            return None

        for forbidden in (complete_graph(4), TWO_K2):
            assert brute_force_mex_profile(0, 3, forbidden) == []
            for m, s in ((11, 3), (3, 0), (11, 0)):
                want = outcome(brute_force_mex, m, s, forbidden)
                assert want is not None
                assert outcome(brute_force_mex_profile, m, s, forbidden) == want, (m, s)


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

    def test_c4_free_edge_counts_match_the_literature(self):
        # ex(n; C_4) for n = 1..8: Clapham, Flockhart & Sheehan, "Graphs
        # without four-cycles", J. Graph Theory 13 (1989)
        for n, want in enumerate([0, 1, 3, 4, 6, 7, 9, 11], start=1):
            assert brute_force_ex(n, 2, C4).optimum == want

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


def _first_colorable_shadow(walk, sets, k, r, n, rejected):
    """The shadow of the first family in walk that naive_r_colorable accepts.

    Subfamilies of a colourable family are colourable, so a family
    holding a rejected one is not asked.  Each rejected family is first
    cut down to a minimal rejected subfamily, which rules out more.
    """

    def colorable(f):
        family = KSetFamily.of(k, [s for i, s in enumerate(sets) if f >> i & 1])
        return naive_r_colorable(family, r, n)

    for shadow, f in walk:
        if any(bad & f == bad for bad in rejected):
            continue
        if colorable(f):
            return shadow
        for i in range(len(sets)):
            if f >> i & 1 and not colorable(f & ~(1 << i)):
                f &= ~(1 << i)
        rejected.append(f)
    return None


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
                    assert oracle._colorable_most(n, k, r) == want, (n, k, r)

    def test_colorable_matches_naive_colourings(self):
        # the least p-shadow over the size-subsets of k-sets that pass
        # naive_r_colorable, which tries all r^n part assignments: each
        # size's families are asked in increasing shadow order, ties by
        # the (k-1)-shadow, until one passes.  With r >= n every family
        # qualifies and the search is the uncoloured one, so there the
        # sizes stop at 10,000 families.
        checked = 0
        for n in range(2, 7):
            for k in range(2, n + 1):
                sets = list(combinations(range(1, n + 1), k))
                full = 1 << len(sets)
                rejected = {r: [] for r in (2, 3, 4, 9)}
                for p in range(k - 1, 0, -1):
                    subs = list(combinations(range(1, n + 1), p))
                    masks = [
                        sum(1 << i for i, sub in enumerate(subs) if set(sub) <= set(s))
                        for s in sets
                    ]
                    union = array("L", [0]) * full
                    for f in range(1, full):
                        low = f & -f
                        union[f] = union[f ^ low] | masks[low.bit_length() - 1]
                    shadow = bytearray(u.bit_count() for u in union)
                    if p == k - 1:
                        top = shadow
                    buckets = defaultdict(list)
                    for f in range(1, full):
                        buckets[f.bit_count(), shadow[f], top[f]].append(f)
                    for r in (2, 3, 4, 9):
                        if min(r, n) < k:
                            continue
                        for size in range(1, len(sets) + 1):
                            if r >= n and comb(len(sets), size) > 10_000:
                                continue
                            try:
                                got = brute_force_min_shadow(n, k, size, p, r_colorable=r)
                            except ValueError as exc:
                                assert "no qualifying family" in str(exc)
                                break
                            walk = (
                                (key[1], f)
                                for key in sorted(buckets)
                                if key[0] == size
                                for f in buckets[key]
                            )
                            want = _first_colorable_shadow(walk, sets, k, r, n, rejected[r])
                            assert got == want, (n, k, p, r, size)
                            checked += 1
        assert checked == 361

    def test_plain_is_the_colouring_with_a_part_per_element(self):
        # r_colorable >= n allows n singleton parts, so every family
        # qualifies: the same value, or the same error, as no r_colorable.
        # Where the full search would walk more than 10,000 families the
        # uncapped calls are skipped (only n = 6, k = 3 reaches that).
        def outcome(*args, **kwargs):
            try:
                return brute_force_min_shadow(*args, **kwargs)
            except (ValueError, CapExceededError) as exc:
                return type(exc), str(exc)

        checked = 0
        for n in range(1, 7):
            for k in range(n + 2):
                total = comb(n, k)
                for p in range(k + 1):
                    for size in range(total + 2):
                        for caps in ({"cap": None}, {"cap": 30}, {}):
                            if caps != {"cap": 30} and comb(total, size) > 10_000:
                                continue
                            want = outcome(n, k, size, p, **caps)
                            for r in (n, n + 1, 2 * n):
                                got = outcome(n, k, size, p, r, **caps)
                                assert got == want, (n, k, p, size, r)
                                checked += 1
        assert checked == 5847

    def test_partitions_are_the_sized_multisets(self):
        # the reference: every nondecreasing tuple of parts, kept when its
        # sum is n
        for n in range(1, 10):
            for parts in range(1, n + 2):
                want = [
                    sizes
                    for sizes in combinations_with_replacement(range(1, n + 1), parts)
                    if sum(sizes) == n
                ]
                assert list(oracle._partitions(n, parts)) == want, (n, parts)
                assert oracle._partition_count(n, parts) == len(want), (n, parts)
        # p(15) partitions of 30 into 15 parts, counted without listing them
        assert oracle._partition_count(30, 15) == 176

    def test_colouring_cap_bounds_the_walk(self):
        # 3 multisets of part sizes of 6 into 3 parts, each pool at most the 12
        # rainbow pairs of (2, 2, 2): at most 36 one-pair families
        with pytest.raises(CapExceededError, match="coloring search space 36 exceeds .* cap 35;"):
            brute_force_min_shadow(6, 2, 1, 1, r_colorable=3, cap=35)
        assert brute_force_min_shadow(6, 2, 1, 1, r_colorable=3, cap=36) == 2

    def test_ffk_bound_past_six_vertices(self):
        # Frankl-Furedi-Kalai: the r-coloured Kruskal-Katona minimum
        for n, r, size_max in ((9, 3, 4), (12, 3, 3), (8, 4, 5)):
            for size in range(size_max + 1):
                got = brute_force_min_shadow(n, 3, size, 2, r_colorable=r)
                assert got == ffk_min_shadow(r, 3, size, 2), (n, r, size)

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
        # K_n up to the default component cap: one class of true twins
        for n in range(1, 17):
            for r in range(1, 6):
                want = comb(n, 2) - turan_number(r, n)
                assert min_edits_to_r_partite(complete_graph(n), r) == want, (n, r)

    def test_colex_turan_is_already_partite(self):
        for r in (2, 3, 4):
            for m in range(31):
                assert min_edits_to_r_partite(colex_turan_graph(r, m), r) == 0

    def test_matches_naive_scan(self):
        p4 = graph_from_edges([(1, 2), (2, 3), (3, 4)])
        # planted false twins: blowups repeat each open neighbourhood
        false_twins = [blowup(h, t) for h in (P3, complete_graph(3)) for t in (2, 3)]
        false_twins.append(blowup(p4, 2))
        # planted true twins: K_a joined to b independent vertices, and K_4
        # with pendant paths, whose untouched clique vertices share closed masks
        joins = [
            graph_from_edges([(u, v) for u in range(1, a + 1) for v in range(u + 1, a + b + 1)])
            for a in (2, 3, 4, 5)
            for b in (1, 3, 9 - a)
        ]
        k4_edges = list(complete_graph(4).edges())
        pendants = [
            graph_from_edges(k4_edges + [(1, 5), (5, 6)]),
            graph_from_edges(k4_edges + [(1, 5), (5, 6), (2, 7)]),
            graph_from_edges(k4_edges + [(1, 5), (5, 6), (6, 7), (2, 8), (8, 9)]),
        ]
        cases = named_small_graphs() + false_twins + joins + pendants + _twin_free_graphs()
        for g in cases:
            if g.vertex_count > 9:
                continue
            for r in (1, 2, 3, 4):
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

    def test_cap_bounds_vertices_and_none_lifts_both(self):
        with pytest.raises(CapExceededError, match="vertex count 5"):
            find_blowup(complete_graph(5), 2, 1, cap=4)
        assert find_blowup(complete_graph(4), 2, 4, cap=None) == (False, None)

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
