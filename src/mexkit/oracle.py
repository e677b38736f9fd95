"""Exhaustive brute-force search engines for desk-scale verification.

Everything here is exact and deterministic.  _levels builds the graph
classes level by level into one store keyed by (move, forbidden form): a
class tries one move per orbit of the automorphisms its own labeling
met, keeps a child only when a fixed deletion rule would undo the move,
and the level keeps one canonical representative per form; _knapsack
walks the multisets of connected classes that make up the graphs with m
edges.  Safety caps guard every search whose space is super-exponential;
they raise CapExceededError, and cap=None (CLI: MEXKIT_CAP_OVERRIDE=1)
overrides them deliberately.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from itertools import combinations, product
from math import comb
from typing import Callable, Iterable, Iterator, Sequence

from .constructions import _e_balanced
from .graphs import (
    Graph,
    _bits,
    _colex_edges,
    _has_within,
    _label_successors,
    _trusted_graph,
    _vertex_mask,
    contains_clique,
    contains_subgraph,
    count_cliques,
)

__all__ = [
    "CapExceededError",
    "DEFAULT_EDGE_CAP",
    "DEFAULT_FAMILY_CAP",
    "DEFAULT_PARTITION_CAP",
    "DEFAULT_VERTEX_CAP",
    "DEFAULT_WITNESS_LIMIT",
    "SearchResult",
    "brute_force_ex",
    "brute_force_mex",
    "brute_force_min_shadow",
    "canonical_form",
    "canonical_graph",
    "enumerate_graphs",
    "find_blowup",
    "min_edits_to_r_partite",
]

DEFAULT_EDGE_CAP = 10
DEFAULT_VERTEX_CAP = 8
DEFAULT_FAMILY_CAP = 10**7
DEFAULT_PARTITION_CAP = 16
DEFAULT_WITNESS_LIMIT = 16
_BLOWUP_T_CAP = 3
_BLOWUP_VERTEX_CAP = 30


class CapExceededError(RuntimeError):
    """A search space exceeded its safety cap; override caps to proceed."""


def _require_cap(value: int, cap: int | None, what: str) -> None:
    if cap is not None and value > cap:
        raise CapExceededError(
            f"{what} {value} exceeds the safety cap {cap}; "
            "pass cap=None (CLI: MEXKIT_CAP_OVERRIDE=1) to override"
        )


@dataclass(frozen=True)
class SearchResult:
    """Outcome of an exhaustive search.

    witnesses holds canonical representatives of the optimum graphs in
    canonical-form order, the first DEFAULT_WITNESS_LIMIT of them;
    witness_count is the exact number of isomorphism classes attaining
    the optimum.  search_space_size counts the classes searched over:
    every graph with m edges for brute_force_mex, free or not (counted,
    not listed, when the forbidden graph is connected), and the
    forbidden-free graphs on n vertices for brute_force_ex.
    """

    optimum: int
    witnesses: tuple[Graph, ...]
    witness_count: int
    search_space_size: int
    elapsed: float


# ---------------------------------------------------------------------------
# canonical forms
# ---------------------------------------------------------------------------


def _component_vertex_lists(adjacency: Sequence[int]) -> list[list[int]]:
    """Connected components (isolated vertices as singletons), by smallest label."""
    seen = 0
    comps = []
    for v in range(1, len(adjacency)):
        if seen >> v & 1:
            continue
        frontier = 1 << v
        comp = 0
        while frontier:
            comp |= frontier
            nxt = 0
            for u in _bits(frontier):
                nxt |= adjacency[u]
            frontier = nxt & ~comp
        comps.append(list(_bits(comp)))
        seen |= comp
    return comps


def _refine(
    adjacency: Sequence[int], cells: list[list[int]], splitters: list[int]
) -> list[list[int]]:
    """Coarsest equitable refinement of an ordered partition.

    Splitters are vertex masks, taken first in first out: every cell
    splits by its vertices' neighbour counts into the splitter, sub-cells
    in increasing count order, and each sub-cell but the first largest
    becomes a splitter (stability with respect to the parent and the
    other sub-cells implies it for that one).  The partition must already
    be equitable with respect to every cell not covered by the splitters.
    Splits and their order depend on counts alone, never on labels.
    """
    queue = deque(splitters)
    n = sum(map(len, cells))
    while queue and len(cells) < n:
        w = queue.popleft()
        out = []
        for cell in cells:
            if len(cell) > 1:
                counts = [(adjacency[v] & w).bit_count() for v in cell]
                if min(counts) != max(counts):
                    groups: dict[int, list[int]] = {}
                    for k, v in zip(counts, cell):
                        groups.setdefault(k, []).append(v)
                    subs = [groups[k] for k in sorted(groups)]
                    skip = subs.index(max(subs, key=len))
                    queue.extend(
                        sum(1 << v for v in sub) for i, sub in enumerate(subs) if i != skip
                    )
                    out.extend(subs)
                    continue
            out.append(cell)
        cells = out
    return cells


def _component_bits(
    adjacency: Sequence[int], verts: list[int]
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Canonical adjacency bitstring of one component, and generators of its automorphisms.

    The search tree starts from the equitable refinement of the unit
    partition.  A node branches on its first smallest non-singleton cell,
    individualizing each of the cell's vertices in turn and refining
    again; only one vertex per class of twins is tried (u and w with
    N(u)-{w} = N(w)-{u}: swapping them is an automorphism fixing the
    node, so their subtrees hold the same leaves).  A leaf orders the
    vertices; its bitstring has one bit per pair of positions, in colex
    order ((1,2),(1,3),(2,3),(1,4),...), and the form is the least such
    bitstring over the leaves in colex order, i.e. the least number with
    bit i set for the i-th pair (McKay & Piperno, "Practical graph
    isomorphism II", JSC 2014).

    The automorphisms the search meets come back as generators on
    canonical positions (p maps position i to p[i]): the transposition of
    every skipped twin, and for every leaf whose bitstring equals the
    least so far, the map from that least leaf's vertex at each position
    to this leaf's.  Both are kept in the component's own labels and
    moved to positions by the final least leaf.  They span the whole
    group: an automorphism maps the first least leaf to a least leaf of
    the full tree, and swapping skipped twins, which fixes the node they
    were skipped at, carries that leaf to one the search visited.
    """
    c = len(verts)
    if c == 1:
        return (), ()
    edges = [(u, v) for v in verts for u in _bits(adjacency[v] & (1 << v) - 1)]
    pos = [0] * len(adjacency)
    best = -1
    best_order: list[int] = []
    # automorphisms met, in vertex labels: sources[i] maps to images[i]
    maps: list[tuple[list[int], list[int]]] = []

    def search(cells: list[list[int]]) -> None:
        nonlocal best, best_order
        if len(cells) == c:
            order = [v for (v,) in cells]
            for i, v in enumerate(order):
                pos[v] = i
            code = 0
            for u, v in edges:
                i, j = pos[u], pos[v]
                code |= 1 << (j * (j - 1) // 2 + i if i < j else i * (i - 1) // 2 + j)
            if best < 0 or code < best:
                best, best_order = code, order
            elif code == best:
                maps.append((best_order, order))
            return
        k = min(
            (i for i, cell in enumerate(cells) if len(cell) > 1), key=lambda i: len(cells[i])
        )
        tried: list[int] = []
        for v in cells[k]:
            twin = next(
                (u for u in tried if (adjacency[u] ^ adjacency[v]) & ~(1 << u | 1 << v) == 0),
                None,
            )
            if twin is not None:
                maps.append(([twin, v], [v, twin]))
                continue
            tried.append(v)
            rest = [w for w in cells[k] if w != v]
            search(_refine(adjacency, cells[:k] + [[v], rest] + cells[k + 1 :], [1 << v]))

    search(_refine(adjacency, [list(verts)], [sum(1 << v for v in verts)]))
    for i, v in enumerate(best_order):
        pos[v] = i
    gens: dict[tuple[int, ...], None] = {}
    for sources, images in maps:
        p = list(range(c))
        for u, w in zip(sources, images):
            p[pos[u]] = pos[w]
        gens[tuple(p)] = None
    return tuple(best >> i & 1 for i in range(c * (c - 1) // 2)), tuple(gens)


def canonical_form(g: Graph) -> tuple:
    """Isomorphism-invariant key: vertex count plus sorted component items.

    Each component contributes (size, bits) with bits from
    _component_bits; two graphs get equal keys exactly when they are
    isomorphic, and _graph_from_items rebuilds the representative.
    """
    items = sorted(
        (len(vs), _component_bits(g.adjacency, vs)[0])
        for vs in _component_vertex_lists(g.adjacency)
    )
    return (g.vertex_count, tuple(items))


def _graph_from_items(n: int, items: tuple[tuple[int, tuple[int, ...]], ...]) -> Graph:
    adj = [0] * (n + 1)
    base = 0
    for size, bits in items:
        idx = 0
        for j in range(1, size):
            for i in range(j):
                if bits[idx]:
                    u, v = base + i + 1, base + j + 1
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
                idx += 1
        base += size
    return _trusted_graph(n, tuple(adj))


def canonical_graph(g: Graph) -> Graph:
    """The canonical representative of g's isomorphism class."""
    n, items = canonical_form(g)
    return _graph_from_items(n, items)


# ---------------------------------------------------------------------------
# enumeration up to isomorphism
# ---------------------------------------------------------------------------

# (move, canonical form of the forbidden graph or None) -> levels, each
# mapping canonical form -> canonical representative in form order:
# ("edge", None) holds the connected graphs by edge count, level 0 the
# one-vertex graph; ("vertex", F's form) the F-free graphs by vertex count,
# level 0 the empty graph.  The levels are extended in place and pay off
# when one process asks for them again, as `verify zykov` does for each n
_LEVELS: dict[tuple, list[dict[tuple, Graph]]] = {}

# component item (size, bits) -> generators of its automorphism group on
# canonical positions, as _component_bits last found them for a grown child;
# a missing item (a single vertex has no entry) only costs pruning, since
# _levels still keeps one representative per form
_AUTOMORPHISMS: dict[tuple, tuple[tuple[int, ...], ...]] = {}


def _labeled_item(adjacency: Sequence[int], verts: list[int]) -> tuple[int, tuple[int, ...]]:
    """The (size, bits) item of one component, its automorphisms kept in _AUTOMORPHISMS."""
    bits, gens = _component_bits(adjacency, verts)
    item = (len(verts), bits)
    _AUTOMORPHISMS[item] = gens
    return item


def _class_generators(items: tuple[tuple[int, tuple[int, ...]], ...]) -> list[list[int]]:
    """Automorphism generators of _graph_from_items(n, items), as padded vertex maps.

    Each component's generators act on its block of labels, and each
    block swaps with the next when their items are equal (the items are
    sorted, so equal components sit side by side).
    """
    n = sum(size for size, _ in items)
    gens = []
    base = 0
    for b, item in enumerate(items):
        size = item[0]
        for p in _AUTOMORPHISMS.get(item, ()):
            perm = list(range(n + 1))
            perm[base + 1 : base + size + 1] = [base + i + 1 for i in p]
            gens.append(perm)
        if b and items[b - 1] == item:
            perm = list(range(n + 1))
            for v in range(base + 1, base + size + 1):
                perm[v], perm[v - size] = v - size, v
            gens.append(perm)
        base += size
    return gens


def _orbit_leaders(points: Iterable, gens: list[list[int]], image: Callable) -> list:
    """The first point of each orbit of the generated group, in the given order.

    image(p, x) is the image of point x under the vertex map p.
    """
    seen = set()
    leaders = []
    for x in points:
        if x in seen:
            continue
        leaders.append(x)
        seen.add(x)
        stack = [x]
        while stack:
            y = stack.pop()
            for p in gens:
                z = image(p, y)
                if z not in seen:
                    seen.add(z)
                    stack.append(z)
    return leaders


def _pair_image(p: list[int], pair: tuple[int, int]) -> tuple[int, int]:
    u, v = p[pair[0]], p[pair[1]]
    return (u, v) if u < v else (v, u)


def _mask_image(p: list[int], mask: int) -> int:
    return sum(1 << p[v] for v in _bits(mask))


def _levels(
    key: tuple,
    seed: dict[tuple, Graph],
    upto: int,
    children: Callable[[tuple, Graph], Iterable[tuple]],
) -> list[dict[tuple, Graph]]:
    """Levels 0..upto under key in _LEVELS, level 0 being seed, extended in place.

    children(form, h) yields the canonical form of each child of the
    class h that its level builder keeps, one per orbit of h's
    automorphisms; isomorphic children of different parents still meet,
    so the next level maps each form to its representative, in form
    order.
    """
    levels = _LEVELS.setdefault(key, [seed])
    while len(levels) <= upto:
        grown: dict[tuple, Graph] = {}
        for form, h in levels[-1].items():
            for child in children(form, h):
                if child not in grown:
                    grown[child] = _graph_from_items(*child)
        levels.append(dict(sorted(grown.items())))
    return levels


def _connected_upto(m: int) -> list[dict[tuple, Graph]]:
    """Connected graphs with up to m edges, one canonical representative each.

    Level j is grown from level j-1 by adding an edge uv, u < v, between
    two vertices of the parent padded with a fresh vertex n+1 (a pendant
    edge when v = n+1), one per orbit of the parent's automorphisms,
    which fix n+1, on those pairs; a child is kept only when the added
    edge is a deletable edge of least key (_least_deletable).  This is
    exact: every connected graph with at least 1 edge has a deletable
    edge of least key, and deleting it (with its leaf, if pendant) leaves
    a connected class of level j-1, to which adding the edge back is one
    of the moves; an automorphism of the parent carries the move, and the
    rule, to its orbit leader.  A kept child is connected, so it is
    labeled whole.
    """

    def children(form: tuple, h: Graph) -> Iterator[tuple]:
        n, items = form
        gens = [[*p, n + 1] for p in _class_generators(items)]
        adj = [*h.adjacency, 0]
        moves = [(u, v) for v in range(2, n + 2) for u in range(1, v) if not adj[u] >> v & 1]
        for u, v in _orbit_leaders(moves, gens, _pair_image):
            adj[u] ^= 1 << v
            adj[v] ^= 1 << u
            if _least_deletable(adj, u, v):
                k = max(n, v)
                yield (k, (_labeled_item(adj, list(range(1, k + 1))),))
            adj[u] ^= 1 << v
            adj[v] ^= 1 << u

    return _levels(("edge", None), {(1, ((1, ()),)): Graph(1, (0, 0))}, m, children)


def _least_deletable(adj: Sequence[int], u: int, v: int) -> bool:
    """True iff no deletable edge of the connected graph adj has a smaller key than uv.

    An edge is deletable when it is pendant or not a bridge, so deleting
    it (with its leaf, if pendant) leaves the graph connected.  Its key is
    the sorted pair of its endpoint degrees; ties are kept.
    """
    deg = [a.bit_count() for a in adj]
    key = (deg[u], deg[v]) if deg[u] <= deg[v] else (deg[v], deg[u])
    for a, b in _colex_edges(adj):
        k = (deg[a], deg[b]) if deg[a] <= deg[b] else (deg[b], deg[a])
        if k < key and (k[0] == 1 or not _is_bridge(adj, a, b)):
            return False
    return True


def _is_bridge(adj: Sequence[int], a: int, b: int) -> bool:
    """True iff b cannot be reached from a without the edge ab."""
    reach = 1 << a
    frontier = adj[a] ^ 1 << b
    while frontier:
        if frontier >> b & 1:
            return False
        reach |= frontier
        nxt = 0
        for w in _bits(frontier):
            nxt |= adj[w]
        frontier = nxt & ~reach
    return True


def _knapsack(
    m: int, score: Callable[[Graph], int | None]
) -> tuple[int, int, list[tuple[int, tuple]]]:
    """Max-plus knapsack over the connected classes with up to m edges.

    A graph with m edges and no isolated vertices is a multiset of
    connected classes whose edge counts sum to m.  score(g) is a class's
    value, or None to leave it out.  The table holds, for every e <= m,
    the best total over multisets of scored classes with e edges (-1
    while there is none) and how many multisets of any classes have e
    edges (OEIS A000664).  Every part of an optimal multiset is optimal
    for its own edge count, so the attainers are walked through the
    table alone, each once.  Returns the best total for m, the A000664
    count for m and the attainers' (vertex count, items) keys, sorted,
    which is canonical-form order.
    """
    levels = _connected_upto(m)
    # (edge count, component item, representative); a connected form is (n, (item,))
    types = [(j, form[1][0], g) for j in range(m, 0, -1) for form, g in levels[j].items()]
    best, total = [0] + [-1] * m, [1] + [0] * m
    # (edge count, score) -> indices into types of the classes scoring so
    by_score: dict[tuple[int, int], list[int]] = {}
    for i, (j, _, g) in enumerate(types):
        points = score(g)
        if points is not None:
            by_score.setdefault((j, points), []).append(i)
        for e in range(j, m + 1):  # ascending e: each class may repeat
            total[e] += total[e - j]
            if points is not None and best[e - j] >= 0:
                best[e] = max(best[e], best[e - j] + points)

    keys: list[tuple[int, tuple]] = []

    def walk(first: int, e: int, chosen: list[int]) -> None:
        # chosen holds nondecreasing indices, so each multiset is met once
        if e == 0:
            items = tuple(sorted(types[i][1] for i in chosen))
            keys.append((sum(size for size, _ in items), items))
            return
        for j in range(1, e + 1):
            if best[e - j] >= 0:
                for i in by_score.get((j, best[e] - best[e - j]), ()):
                    if i >= first:
                        chosen.append(i)
                        walk(i, e - j, chosen)
                        chosen.pop()

    if best[m] >= 0:
        walk(0, m, [])
    keys.sort()
    return best[m], total[m], keys


def enumerate_graphs(m: int, *, cap: int | None = DEFAULT_EDGE_CAP) -> Iterator[Graph]:
    """All graphs with exactly m edges and no isolated vertices, up to isomorphism.

    Each class is yielded exactly once as its canonical representative,
    ordered by vertex count then canonical form: the knapsack with every
    class scoring 0, so every multiset of connected classes attains.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    _require_cap(m, cap, "edge count")
    for n, items in _knapsack(m, lambda g: 0)[2]:
        yield _graph_from_items(n, items)


# ---------------------------------------------------------------------------
# brute-force extremal searches
# ---------------------------------------------------------------------------


def _clique_order(f: Graph) -> int | None:
    """k if f is K_k, i.e. has all C(k, 2) edges on its k vertices, else None."""
    k = f.vertex_count
    return k if k and f.edge_count == comb(k, 2) else None


def _is_free(g: Graph, forbidden: Graph, forb_k: int | None) -> bool:
    if forb_k is not None:
        return not contains_clique(g, forb_k)
    return not contains_subgraph(g, forbidden)


def _search_result(
    candidates: list[Graph], s: int, space: int, start: float
) -> SearchResult:
    """Most s-cliques over free candidates given in canonical-form order, with attainers."""
    best = -1
    attainers: list[Graph] = []
    for g in candidates:
        val = count_cliques(g, s)
        if val > best:
            best = val
            attainers = [g]
        elif val == best:
            attainers.append(g)
    return SearchResult(
        optimum=max(best, 0),
        witnesses=tuple(attainers[:DEFAULT_WITNESS_LIMIT]),
        witness_count=len(attainers),
        search_space_size=space,
        elapsed=time.perf_counter() - start,
    )


def brute_force_mex(
    m: int,
    s: int,
    forbidden: Graph,
    *,
    cap: int | None = DEFAULT_EDGE_CAP,
) -> SearchResult:
    """Exact maximum of the s-clique count over forbidden-free graphs with m edges.

    When the forbidden graph F has at most one component, a graph is
    F-free exactly when each of its components is, and its edges and
    s-cliques (K_s is connected) are the sums over its components.  The
    search is then _knapsack over the connected classes with up to m
    edges, a free class scoring its s-cliques and the others left out;
    search_space_size counts every multiset with m edges, and only the
    first DEFAULT_WITNESS_LIMIT attainers are built.  A forbidden graph
    with two or more components (2K_2, K_2 plus an isolated vertex, ...)
    can be contained in a graph with free components, so it is decided
    by enumerate-and-filter instead.
    """
    if s < 1:
        raise ValueError("s must be at least 1")
    if len(_component_vertex_lists(forbidden.adjacency)) > 1:
        return _mex_by_enumeration(m, s, forbidden, cap)
    if m < 1:
        raise ValueError("m must be at least 1")
    _require_cap(m, cap, "edge count")
    start = time.perf_counter()
    forb_k = _clique_order(forbidden)
    best, total, keys = _knapsack(
        m, lambda g: count_cliques(g, s) if _is_free(g, forbidden, forb_k) else None
    )
    return SearchResult(
        optimum=max(best, 0),
        witnesses=tuple(
            _graph_from_items(n, items) for n, items in keys[:DEFAULT_WITNESS_LIMIT]
        ),
        witness_count=len(keys),
        search_space_size=total,
        elapsed=time.perf_counter() - start,
    )


def _mex_by_enumeration(m: int, s: int, forbidden: Graph, cap: int | None) -> SearchResult:
    """brute_force_mex by scanning every graph with m edges; right for every forbidden graph."""
    start = time.perf_counter()
    # enumerate_graphs yields canonical representatives in canonical-form
    # order, so the attainers come out in that order without relabeling
    graphs = list(enumerate_graphs(m, cap=cap))
    forb_k = _clique_order(forbidden)
    free = [g for g in graphs if _is_free(g, forbidden, forb_k)]
    return _search_result(free, s, len(graphs), start)


def brute_force_ex(
    n: int,
    t: int,
    forbidden: Graph,
    *,
    cap: int | None = DEFAULT_VERTEX_CAP,
) -> SearchResult:
    """Exact maximum of the t-clique count over forbidden-free graphs on n vertices.

    Runs over the free graphs on n vertices, one canonical representative
    per isomorphism class, built level by level from the graph with no
    vertices.  Level k gives each class h of level k-1 a vertex k whose
    neighbourhood N in 1..k-1 leaves k of least degree: with δ the least
    degree of h, |N| <= δ+1, and N holds every vertex of degree δ when
    |N| = δ+1, one N per orbit of h's automorphisms.  The free children
    are filed under their canonical form.  This is exact for every
    forbidden graph: deleting a least-degree vertex of a free graph
    leaves a free class of level k-1 (freeness survives vertex
    deletion), adding that vertex back is one of the children, and an
    automorphism of h carries it to its orbit's leader.  The levels stay
    in the _LEVELS store under ("vertex", canonical form of the forbidden
    graph), so a call only extends them up to n.  search_space_size
    counts the free classes on n vertices.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if t < 1:
        raise ValueError("t must be at least 1")
    _require_cap(n, cap, "vertex count")
    start = time.perf_counter()
    level = list(_free_upto(n, forbidden)[n].values())
    return _search_result(level, t, len(level), start)


def _free_upto(n: int, forbidden: Graph) -> list[dict[tuple, Graph]]:
    """The free levels 0..n of brute_force_ex, extended in place in _LEVELS.

    A parent tries one neighbourhood per orbit of its automorphisms among
    those the degree rule allows, and a free child relabels only the
    component holding the new vertex: the parent's components it does
    not touch keep their items.  The 0-vertex seed is not tested for
    freeness; brute_force_ex reads only the levels n >= 1.
    """
    forb_k = _clique_order(forbidden)

    def children(form: tuple, h: Graph) -> Iterator[tuple]:
        k = h.vertex_count + 1
        items = form[1]
        deg = [a.bit_count() for a in h.adjacency]
        low = min(deg[1:], default=0)
        lows = sum(1 << v for v in h.vertices() if deg[v] == low)
        succ = _label_successors(h.adjacency)
        blocks = []  # (item, mask of its block of labels)
        base = 0
        for item in items:
            blocks.append((item, (1 << item[0]) - 1 << base + 1))
            base += item[0]
        allowed = [
            nbrs
            for nbrs in range(0, 1 << k, 2)  # every subset of 1..k-1
            if (d := nbrs.bit_count()) <= low or d == low + 1 and nbrs & lows == lows
        ]
        for nbrs in _orbit_leaders(allowed, _class_generators(items), _mask_image):
            # h is free, so a new K_q would contain k: a K_{q-1} in nbrs
            if forb_k is not None and _has_within(succ, nbrs, forb_k - 1):
                continue
            adj = (*(a | (nbrs >> v & 1) << k for v, a in enumerate(h.adjacency)), nbrs)
            if forb_k is None and contains_subgraph(Graph(k, adj), forbidden):
                continue
            comp = 1 << k
            kept = []
            for item, mask in blocks:
                if mask & nbrs:
                    comp |= mask
                else:
                    kept.append(item)
            kept.append(_labeled_item(adj, list(_bits(comp))) if nbrs else (1, ()))
            yield (k, tuple(sorted(kept)))

    key = ("vertex", canonical_form(forbidden))
    return _levels(key, {(0, ()): Graph(0, (0,))}, n, children)


# ---------------------------------------------------------------------------
# shadow minimization
# ---------------------------------------------------------------------------


def _check_min_shadow(
    n: int, k: int, sizes: range, p: int, r_colorable: int | None, cap: int | None
) -> None:
    """Raise what brute_force_min_shadow raises first over sizes, in order, without a search.

    Per size its checks are 1 <= p < k <= n, 0 <= size <= C(n, k), the
    family cap on C(C(n, k), size) and, from size 1 on, the colouring:
    r >= 1, min(r, n) >= k, the cap on min(r, n)^n, and size at most
    e_k of the balanced min(r, n)-partition of [n], which is the most
    k-sets any one colouring admits (e_k only grows as two parts are
    evened out).  Past C(n, k)/2 the family count only falls, so the
    scan stops there.  An empty range checks nothing.
    """
    if not sizes:
        return
    if not 1 <= p < k <= n:
        raise ValueError(f"need 1 <= p < k <= n, got p={p}, k={k}, n={n}")
    total = comb(n, k)
    most = None  # the largest size a qualifying family can have
    for size in sizes:
        if not 0 <= size <= total:
            raise ValueError(f"size must lie in 0..{total}")
        _require_cap(comb(total, size), cap, "family search space")
        if size == 0:
            continue
        if most is None:
            most = total if r_colorable is None else _colorable_most(n, k, r_colorable, cap)
        if size > most:
            raise ValueError("no qualifying family exists at this size")
        if cap is None or 2 * size >= total:
            if sizes[-1] > most:
                raise ValueError(
                    "no qualifying family exists at this size"
                    if most < total
                    else f"size must lie in 0..{total}"
                )
            return


def _colorable_most(n: int, k: int, r_colorable: int, cap: int | None) -> int:
    """e_k of the balanced min(r, n)-partition of [n], after the colouring checks."""
    if r_colorable < 1:
        raise ValueError("r_colorable must be at least 1")
    r = min(r_colorable, n)
    if r < k:
        raise ValueError(f"no {r_colorable}-colorable family of {k}-sets exists")
    _require_cap(r**n, cap, "coloring assignment space")
    return _e_balanced(k, r, n)


def brute_force_min_shadow(
    n: int,
    k: int,
    size: int,
    p: int,
    r_colorable: int | None = None,
    *,
    cap: int | None = DEFAULT_FAMILY_CAP,
) -> int:
    """Exact minimum p-shadow size over size-element families of k-subsets of [n].

    With r_colorable set, the minimum runs over families admitting a
    partition of [n] into r parts that every member meets at most once
    (checked exhaustively over part assignments).  Every ValueError and
    CapExceededError comes from _check_min_shadow, before the search.
    """
    _check_min_shadow(n, k, range(size, size + 1), p, r_colorable, cap)
    if size == 0:
        return 0
    all_sets = list(combinations(range(1, n + 1), k))
    set_masks: dict[tuple[int, ...], int] | None = None
    if r_colorable is not None:
        colorings = list(product(range(min(r_colorable, n)), repeat=n))
        set_masks = {}
        for s in all_sets:
            mask = 0
            for i, coloring in enumerate(colorings):
                if len({coloring[e - 1] for e in s}) == k:
                    mask |= 1 << i
            set_masks[s] = mask
    best: int | None = None
    for family in combinations(all_sets, size):
        if set_masks is not None:
            ok = -1
            for s in family:
                ok &= set_masks[s]
                if not ok:
                    break
            if not ok:
                continue
        shad = {sub for s in family for sub in combinations(s, p)}
        if best is None or len(shad) < best:
            best = len(shad)
    return best


# ---------------------------------------------------------------------------
# partition edits and blowup search
# ---------------------------------------------------------------------------


def min_edits_to_r_partite(
    g: Graph, r: int, *, cap: int | None = DEFAULT_PARTITION_CAP
) -> int:
    """Minimum edge deletions after which the rest of g is r-partite.

    Equals m minus the maximum number of edges captured between the
    classes of an r-part vertex partition; computed exactly by
    component-wise backtracking over canonical part assignments with
    cost pruning.  The cap bounds the largest component, where the
    backtracking costs.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    comps = _component_vertex_lists(g.adjacency)
    _require_cap(
        max(map(len, comps), default=0), cap, "component vertex count for exact partition mode"
    )
    return sum(_component_min_edits(g, verts, r) for verts in comps if len(verts) > 1)


def _component_min_edits(g: Graph, verts: list[int], r: int) -> int:
    # BFS order from a maximum-degree vertex keeps each prefix connected,
    # so bad assignments accumulate cost early and prune well.
    root = max(verts, key=lambda v: g.adjacency[v].bit_count())
    order = [root]
    seen = 1 << root
    head = 0
    while head < len(order):
        for u in _bits(g.adjacency[order[head]]):
            if not seen >> u & 1:
                seen |= 1 << u
                order.append(u)
        head += 1

    # greedy upper bound
    part_masks = [0] * r
    greedy = 0
    for v in order:
        costs = [(g.adjacency[v] & pm).bit_count() for pm in part_masks]
        pi = costs.index(min(costs))
        greedy += costs[pi]
        part_masks[pi] |= 1 << v
    if greedy == 0:
        return 0
    best = greedy

    part_masks = [0] * r

    def rec(i: int, cost: int, used_parts: int) -> None:
        nonlocal best
        if cost >= best:
            return
        if i == len(order):
            best = cost
            return
        v = order[i]
        for pi in range(min(used_parts + 1, r)):
            add = (g.adjacency[v] & part_masks[pi]).bit_count()
            if cost + add < best:
                part_masks[pi] |= 1 << v
                rec(i + 1, cost + add, max(used_parts, pi + 1))
                part_masks[pi] ^= 1 << v

    rec(0, 0, 0)
    return best


def find_blowup(
    g: Graph, parts: int, t: int, *, cap_override: bool = False
) -> tuple[bool, tuple[tuple[int, ...], ...] | None]:
    """Search for a complete `parts`-partite subgraph with all parts of size t.

    Parts need only be completely joined to each other (non-induced
    containment), so edges inside a part are irrelevant.  Returns the
    witness parts ordered by their minimum elements when found.
    """
    if parts < 1 or t < 1:
        raise ValueError("parts and t must be at least 1")
    if not cap_override:
        _require_cap(t, _BLOWUP_T_CAP, "blowup part size")
        _require_cap(g.vertex_count, _BLOWUP_VERTEX_CAP, "vertex count")

    def rec(prev_min: int, common: int, remaining: int) -> list[tuple[int, ...]] | None:
        if remaining == 0:
            return []
        cands = [v for v in _bits(common) if v > prev_min]
        if len(cands) < t * remaining:
            return None
        for combo in combinations(cands, t):
            new_common = common
            for v in combo:
                new_common &= g.adjacency[v]
            sub = rec(combo[0], new_common, remaining - 1)
            if sub is not None:
                return [combo] + sub
        return None

    found = rec(0, _vertex_mask(g.vertex_count), parts)
    return (found is not None, tuple(found) if found is not None else None)
