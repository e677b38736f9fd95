"""Exhaustive brute-force search engines for desk-scale verification.

Everything here is exact and deterministic.  One augmentation loop,
_levels, builds the graph classes level by level into one store keyed by
(move, forbidden form): a class tries one move per orbit of the
automorphisms its own labeling met, keeps a child only when the
builder's deletion rule would undo the move, relabels only the component
the move touched, and the level keeps one canonical representative per
form.  Each builder, _connected_upto by edges and _free_upto by
vertices, gives only its moves, as vertex masks, and its rule.  _knapsack
tables the multisets of connected classes that make up the graphs with
each edge count up to m, and _attainers walks the optimal ones; a query
that takes only the maximum scores the top level's kept children
unlabeled, and keeps them as the store's pending level.  Safety
caps guard every search whose space is super-exponential; they raise
CapExceededError, and cap=None (CLI: MEXKIT_CAP_OVERRIDE=1) overrides
them deliberately.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations
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
    "DEFAULT_BLOWUP_CAP",
    "DEFAULT_EDGE_CAP",
    "DEFAULT_FAMILY_CAP",
    "DEFAULT_PARTITION_CAP",
    "DEFAULT_VERTEX_CAP",
    "DEFAULT_WITNESS_LIMIT",
    "SearchResult",
    "brute_force_ex",
    "brute_force_mex",
    "brute_force_mex_profile",
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
DEFAULT_BLOWUP_CAP = 30
_BLOWUP_T_CAP = 3


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


def _components(adjacency: Sequence[int]) -> list[int]:
    """Connected components as vertex masks (isolated vertices as singletons), by least label."""
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
        comps.append(comp)
        seen |= comp
    return comps


def _refine(adjacency: Sequence[int], cells: list[int], splitters: list[int]) -> list[int]:
    """Coarsest equitable refinement of an ordered partition.

    Cells and splitters are vertex masks, the splitters taken first in
    first out: every cell splits by its vertices' neighbour counts into
    the splitter, sub-cells in increasing count order, and each sub-cell
    but the first largest becomes a splitter (stability with respect to
    the parent and the other sub-cells implies it for that one).  A
    one-vertex splitter x splits a cell in one AND with N(x), into
    (non-neighbours, neighbours), and queues the smaller, the neighbours
    on a tie.  A mask lists its vertices in ascending order, so every
    sub-cell does too.  The partition must already be equitable with
    respect to every cell not covered by the splitters.  Splits and their
    order depend on counts alone, never on labels.
    """
    queue = list(splitters)
    head = 0
    n = sum(cells).bit_count()
    while head < len(queue) and len(cells) < n:
        w = queue[head]
        head += 1
        out = []
        if w & w - 1 == 0:
            nb = adjacency[w.bit_length() - 1]
            for cell in cells:
                hit = cell & nb
                if hit and hit != cell:
                    miss = cell ^ hit
                    queue.append(hit if hit.bit_count() <= miss.bit_count() else miss)
                    out += miss, hit
                else:
                    out.append(cell)
        else:
            for cell in cells:
                if cell & cell - 1:
                    groups: dict[int, int] = {}
                    rest = cell
                    while rest:
                        low = rest & -rest
                        k = (adjacency[low.bit_length() - 1] & w).bit_count()
                        groups[k] = groups.get(k, 0) | low
                        rest ^= low
                    if len(groups) > 1:
                        subs = [groups[k] for k in sorted(groups)]
                        big = max(subs, key=int.bit_count)
                        queue += [sub for sub in subs if sub != big]
                        out += subs
                        continue
                out.append(cell)
        cells = out
    return cells


def _component_bits(
    adjacency: Sequence[int], comp: int
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Canonical adjacency bitstring of one component, and generators of its automorphisms.

    comp is the component's vertex mask, as _components gives it.  The
    search tree starts from the equitable refinement of the unit partition
    [comp].  A node branches on its first smallest non-singleton cell,
    individualizing each of the cell's vertices in turn and refining
    again from that one vertex (one AND per cell); only one vertex per
    class of twins is tried (u and w with N(u)-{w} = N(w)-{u}: swapping
    them is an automorphism fixing the node, so their subtrees hold the
    same leaves).  A leaf orders the vertices; its bitstring has one bit
    per pair of positions, in colex order ((1,2),(1,3),(2,3),(1,4),...),
    and the form is the least such bitstring over the leaves in colex
    order, i.e. the least number with bit i set for the i-th pair (McKay &
    Piperno, "Practical graph isomorphism II", JSC 2014).  The cells are
    vertex masks, so a cell's vertices are tried in ascending label order;
    that order decides which least leaf comes first and which
    automorphisms are met, never the bitstring.

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
    c = comp.bit_count()
    if c == 1:
        return (), ()
    tri = [j * (j - 1) // 2 for j in range(c)]  # the first pair index of position j
    pos = [0] * len(adjacency)
    best = -1
    best_order: list[int] = []
    # automorphisms met, in vertex labels: sources[i] maps to images[i]
    maps: list[tuple[list[int], list[int]]] = []

    def search(cells: list[int]) -> None:
        nonlocal best, best_order
        if len(cells) == c:
            order = [cell.bit_length() - 1 for cell in cells]
            code = before = 0  # position j's pairs with its neighbours in before
            for j, v in enumerate(order):
                pos[v] = j
                rest = adjacency[v] & before
                before |= 1 << v
                while rest:
                    low = rest & -rest
                    code |= 1 << tri[j] + pos[low.bit_length() - 1]
                    rest ^= low
            if best < 0 or code < best:
                best, best_order = code, order
            elif code == best:
                maps.append((best_order, order))
            return
        k, size = 0, c + 1
        for i, cell in enumerate(cells):
            if cell & cell - 1 and cell.bit_count() < size:
                k, size = i, cell.bit_count()
        cell = cells[k]
        tried: list[int] = []
        rest = cell
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            for u in tried:
                if (adjacency[u] ^ adjacency[v]) & ~(1 << u | low) == 0:
                    maps.append(([u, v], [v, u]))
                    break
            else:
                tried.append(v)
                search(_refine(adjacency, [*cells[:k], low, cell ^ low, *cells[k + 1 :]], [low]))

    search(_refine(adjacency, [comp], [comp]))
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

    Each component mask of _components contributes (size, bits) with bits
    from _component_bits; two graphs get equal keys exactly when they are
    isomorphic, and _graph_from_items rebuilds the representative.
    """
    items = sorted(
        (comp.bit_count(), _component_bits(g.adjacency, comp)[0])
        for comp in _components(g.adjacency)
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


# a kept child: its adjacency, the vertex mask of the component the move
# merged (to be relabeled), and the parent's items it keeps
_Child = tuple[Sequence[int], int, list[tuple]]

# a builder's expand(h): h's moves and child(move), as _kept_children takes them
_Expand = Callable[[Graph], tuple[list[int], Callable[[int], Sequence[int] | None]]]


class _Levels(list):
    """One _LEVELS entry: the finished levels 0..len-1, and pending.

    pending is None or the kept children of level len, unlabeled, in the
    order the labeling step takes them: _top_level stores them, and
    _levels finishes level len from them.
    """

    pending: list[_Child] | None = None


# (move, canonical form of the forbidden graph or None) -> levels, each
# mapping canonical form -> canonical representative in form order:
# ("edge", None) holds the connected graphs by edge count, level 0 the
# one-vertex graph; ("vertex", F's form) the F-free graphs by vertex count,
# level 0 the empty graph.  The levels are extended in place and pay off
# when one process asks for them again, as `verify zykov` does for each n
_LEVELS: dict[tuple, _Levels] = {}

# component item (size, bits) -> generators of its automorphism group on
# canonical positions, as _component_bits last found them for a grown child;
# a missing item (a single vertex has no entry) only costs pruning, since
# _levels still keeps one representative per form
_AUTOMORPHISMS: dict[tuple, tuple[tuple[int, ...], ...]] = {}


def _class_generators(items: tuple[tuple[int, tuple[int, ...]], ...]) -> list[list[int]]:
    """Automorphism generators of _graph_from_items(n, items), as vertex maps on 0..n+1.

    Each component's generators act on its block of labels, and each
    block swaps with the next when their items are equal (the items are
    sorted, so equal components sit side by side).  Every map fixes the
    padding 0 and the fresh vertex n+1.
    """
    n = sum(size for size, _ in items)
    gens = []
    base = 0
    for b, item in enumerate(items):
        size = item[0]
        for p in _AUTOMORPHISMS.get(item, ()):
            perm = list(range(n + 2))
            perm[base + 1 : base + size + 1] = [base + i + 1 for i in p]
            gens.append(perm)
        if b and items[b - 1] == item:
            perm = list(range(n + 2))
            for v in range(base + 1, base + size + 1):
                perm[v], perm[v - size] = v - size, v
            gens.append(perm)
        base += size
    return gens


def _orbit_leaders(masks: Iterable[int], gens: list[list[int]]) -> list[int]:
    """The first vertex mask of each orbit of the generated group, in the given order."""
    seen = set()
    leaders = []
    for x in masks:
        if x in seen:
            continue
        leaders.append(x)
        seen.add(x)
        stack = [x]
        while stack:
            y = stack.pop()
            for p in gens:
                z = 0
                rest = y
                while rest:
                    low = rest & -rest
                    z |= 1 << p[low.bit_length() - 1]
                    rest ^= low
                if z not in seen:
                    seen.add(z)
                    stack.append(z)
    return leaders


def _levels(key: tuple, seed: dict[tuple, Graph], expand: _Expand, upto: int) -> _Levels:
    """Levels 0..upto under key in _LEVELS, level 0 being seed, extended in place.

    The one canonical augmentation loop (McKay, "Isomorph-free exhaustive
    generation", J. Algorithms 26, 1998), two steps per level: the kept
    children of the last level (_kept_children), then their labels
    (_label).  A pending level is finished by labeling exactly its kept
    children, in order, so levels and _AUTOMORPHISMS match a cold build.
    """
    levels = _LEVELS.setdefault(key, _Levels([seed]))
    while len(levels) <= upto:
        children, levels.pending = levels.pending, None
        levels.append(_label(_kept_children(levels[-1], expand) if children is None else children))
    return levels


def _kept_children(level: dict[tuple, Graph], expand: _Expand) -> Iterator[_Child]:
    """The kept children of the classes of level, parent by parent, unlabeled.

    expand(h) gives the moves of the class h on n vertices, vertex masks
    over 1..n+1 in a fixed order, and child(move): the child's adjacency
    on n or, with the fresh vertex, n+1 vertices, or None when the
    builder's deletion rule would not undo the move.  Moves in one orbit
    of h's automorphisms give isomorphic children, so h tries only the
    first of each, under _class_generators, which fix n+1.  A kept child
    comes with the one component to relabel, the fresh vertex merged with
    the blocks of h the move meets, and with h's other items, which it
    keeps.
    """
    for (n, items), h in level.items():
        moves, child = expand(h)
        blocks = []  # (mask of a component's block of labels, its item)
        base = 1
        for item in items:
            blocks.append(((1 << item[0]) - 1 << base, item))
            base += item[0]
        for move in _orbit_leaders(moves, _class_generators(items)):
            adj = child(move)
            if adj is None:
                continue
            k = len(adj) - 1
            comp = 1 << k if k > n else 0  # the fresh vertex, if the child has it
            kept = []
            for mask, item in blocks:
                if mask & move:
                    comp |= mask
                else:
                    kept.append(item)
            yield adj, comp, kept


def _label(children: Iterable[_Child]) -> dict[tuple, Graph]:
    """The level the children make: each form once, mapped to its representative, in form order.

    Each child's merged component is relabeled and its generators go to
    _AUTOMORPHISMS (a lone vertex is not labeled).  Isomorphic children
    of different parents still meet, so the level keeps the first.
    """
    grown: dict[tuple, Graph] = {}
    for adj, comp, kept in children:
        if comp & comp - 1:
            bits, gens = _component_bits(adj, comp)
            item = (comp.bit_count(), bits)
            _AUTOMORPHISMS[item] = gens
        else:
            item = (1, ())
        kept.append(item)
        form = (len(adj) - 1, tuple(sorted(kept)))
        if form not in grown:
            grown[form] = _graph_from_items(*form)
    return dict(sorted(grown.items()))


def _top_level(
    key: tuple, seed: dict[tuple, Graph], expand: _Expand, top: int
) -> Iterator[Graph]:
    """Every class of level top at least once, labeling none of that level.

    A finished level top gives its representatives; otherwise its kept
    children, stored as key's pending level, each as a graph on its own
    labels.  Every class is among them (the completeness half of
    canonical augmentation), but a class may repeat, so they serve a
    maximum and not a count.
    """
    levels = _levels(key, seed, expand, top - 1)
    if len(levels) > top:
        yield from levels[top].values()
        return
    if levels.pending is None:
        levels.pending = list(_kept_children(levels[-1], expand))
    for adj, _, _ in levels.pending:
        yield _trusted_graph(len(adj) - 1, tuple(adj))


def _edge_expand(h: Graph) -> tuple[list[int], Callable[[int], list[int] | None]]:
    """The edge builder's moves of the connected class h and its child(move) (_connected_upto)."""
    n = h.vertex_count
    moves = [
        1 << u | 1 << v
        for v in range(2, n + 2)
        for u in range(1, v)
        if not h.adjacency[u] >> v & 1
    ]
    deg = [a.bit_count() for a in h.adjacency] + [0]
    edges = [(a, b, deg[a], deg[b]) for a, b in _colex_edges(h.adjacency)]

    def child(move: int) -> list[int] | None:
        u, v = (move & -move).bit_length() - 1, move.bit_length() - 1
        du, dv = deg[u] + 1, deg[v] + 1
        key = (du, dv) if du <= dv else (dv, du)
        doubtful = []  # the smaller-key edges that are not pendant
        for a, b, da, db in edges:
            da += move >> a & 1
            db += move >> b & 1
            k = (da, db) if da <= db else (db, da)
            if k < key:
                if k[0] == 1:
                    return None
                doubtful.append((a, b))
        adj = [*h.adjacency, 0] if v > n else list(h.adjacency)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        for a, b in doubtful:
            cut = adj.copy()
            cut[a] ^= 1 << b
            cut[b] ^= 1 << a
            if len(_components(cut)) == 1:  # ab is no bridge, so deletable
                return None
        return adj

    return moves, child


# the edge builder's _levels key, level 0 (the one-vertex graph) and expand
_EDGE_BUILDER = (("edge", None), {(1, ((1, ()),)): Graph(1, (0, 0))}, _edge_expand)


def _connected_upto(m: int) -> list[dict[tuple, Graph]]:
    """Connected graphs with up to m edges, one canonical representative each.

    Level j grows from level j-1 through _levels, with _edge_expand's
    moves and rule.  The moves of a parent on n vertices are its
    non-edges uv, u < v <= n+1, as masks 1<<u | 1<<v in colex order; v =
    n+1 adds a pendant edge to the fresh vertex.  The rule keeps the
    child when no deletable edge (pendant, or not a bridge) has a smaller
    key, the sorted pair of its endpoint degrees; ties are kept.  This is
    exact: every connected graph with at least 1 edge has a deletable
    edge of least key, and deleting it (with its leaf, if pendant) leaves
    a connected class of level j-1, to which adding the edge back is one
    of the moves.  The rule is taken once per parent, a move adding 1 to
    the degrees at u and v: a smaller-key pendant edge rejects it before
    the child is built, and a smaller-key edge that is not pendant
    rejects it when the child stays connected without it.  A max-only
    query reads level m unlabeled through _top_level(*_EDGE_BUILDER, m);
    the next call that needs its classes finishes it.
    """
    return _levels(*_EDGE_BUILDER, m)


# (edge count, score) -> the connected classes scoring so, as (index, component
# item) in one fixed order of all classes
_ByScore = dict[tuple[int, int], list[tuple[int, tuple]]]


def _knapsack(
    m: int, score: Callable[[Graph], int | None]
) -> tuple[list[int], list[int], _ByScore]:
    """Max-plus knapsack over the connected classes with up to m edges.

    A graph with e edges and no isolated vertices is a multiset of
    connected classes whose edge counts sum to e.  score(g) is a class's
    value, or None to leave it out; each class is scored once.  Returns
    the whole table, for every e <= m at once: best[e], the best total
    over multisets of scored classes with e edges (-1 while there is
    none), total[e], how many multisets of any classes have e edges (OEIS
    A000664), and the scored classes by (edge count, score), which
    _attainers walks.
    """
    levels = _connected_upto(m)
    best, total = [0] + [-1] * m, [1] + [0] * m
    by_score: _ByScore = {}
    # a connected form is (n, (item,))
    types = ((j, form[1][0], g) for j in range(m, 0, -1) for form, g in levels[j].items())
    for i, (j, item, g) in enumerate(types):
        points = score(g)
        if points is not None:
            by_score.setdefault((j, points), []).append((i, item))
        for e in range(j, m + 1):  # ascending e: each class may repeat
            total[e] += total[e - j]
            if points is not None and best[e - j] >= 0:
                best[e] = max(best[e], best[e - j] + points)
    return best, total, by_score


def _attainers(e: int, best: list[int], by_score: _ByScore) -> list[tuple[int, tuple]]:
    """The (vertex count, items) keys of the multisets attaining best[e], sorted.

    Every part of an optimal multiset is optimal for its own edge count,
    so the attainers are walked through _knapsack's table alone, each
    once.  Sorted keys are in canonical-form order.
    """
    keys: list[tuple[int, tuple]] = []

    def walk(first: int, e: int, chosen: list[tuple]) -> None:
        # the chosen indices are nondecreasing, so each multiset is met once
        if e == 0:
            items = tuple(sorted(chosen))
            keys.append((sum(size for size, _ in items), items))
            return
        for j in range(1, e + 1):
            if best[e - j] >= 0:
                for i, item in by_score.get((j, best[e] - best[e - j]), ()):
                    if i >= first:
                        chosen.append(item)
                        walk(i, e - j, chosen)
                        chosen.pop()

    if best[e] >= 0:
        walk(0, e, [])
    keys.sort()
    return keys


def enumerate_graphs(m: int, *, cap: int | None = DEFAULT_EDGE_CAP) -> Iterator[Graph]:
    """All graphs with exactly m edges and no isolated vertices, up to isomorphism.

    Each class is yielded exactly once as its canonical representative,
    ordered by vertex count then canonical form: the knapsack with every
    class scoring 0, so every multiset of connected classes attains.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    _require_cap(m, cap, "edge count")
    best, _, by_score = _knapsack(m, lambda g: 0)
    for n, items in _attainers(m, best, by_score):
        yield _graph_from_items(n, items)


# ---------------------------------------------------------------------------
# brute-force extremal searches
# ---------------------------------------------------------------------------


def _clique_order(f: Graph) -> int | None:
    """k if f is K_k, i.e. has all C(k, 2) edges on its k vertices, else None."""
    k = f.vertex_count
    return k if k and f.edge_count == comb(k, 2) else None


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
    if len(_components(forbidden.adjacency)) > 1:
        return _mex_by_enumeration(m, s, forbidden, cap)
    if m < 1:
        raise ValueError("m must be at least 1")
    _require_cap(m, cap, "edge count")
    start = time.perf_counter()
    best, total, by_score = _knapsack(m, _mex_score(s, forbidden))
    keys = _attainers(m, best, by_score)
    return SearchResult(
        optimum=max(best[m], 0),
        witnesses=tuple(
            _graph_from_items(n, items) for n, items in keys[:DEFAULT_WITNESS_LIMIT]
        ),
        witness_count=len(keys),
        search_space_size=total[m],
        elapsed=time.perf_counter() - start,
    )


def brute_force_mex_profile(
    m_max: int,
    s: int,
    forbidden: Graph,
    *,
    cap: int | None = DEFAULT_EDGE_CAP,
) -> list[int]:
    """brute_force_mex's optimum for m = 1..m_max, the brute-force twin of extremal.mex_profile.

    A connected (or empty) forbidden graph takes one _knapsack table up
    to m_max - 1, each connected class scored once, and level m_max
    unlabeled (_top_level): best[m_max] is the larger of the best score
    of a kept child with m_max edges and best[j] + best[m_max - j] over 1
    <= j <= m_max/2 with both terms at least 0.  This is exact: the score
    is isomorphism-invariant, every connected class is among the kept
    children (repeats only repeat a score), and a multiset of two or more
    classes splits into two multisets with fewer edges each.  A forbidden
    graph with two or more components takes the per-m
    enumerate-and-filter search.  An m_max below 1 gives an empty list.
    """
    if s < 1:
        raise ValueError("s must be at least 1")
    _require_cap(m_max, cap, "edge count")
    if m_max < 1:
        return []
    if len(_components(forbidden.adjacency)) > 1:
        return [_mex_by_enumeration(m, s, forbidden, cap).optimum for m in range(1, m_max + 1)]
    score = _mex_score(s, forbidden)
    best = _knapsack(m_max - 1, score)[0]
    top = [p for g in _top_level(*_EDGE_BUILDER, m_max) if (p := score(g)) is not None]
    top += [
        best[j] + best[m_max - j]
        for j in range(1, m_max // 2 + 1)
        if min(best[j], best[m_max - j]) >= 0
    ]
    best.append(max(top, default=-1))
    return [max(b, 0) for b in best[1:]]


def _mex_score(s: int, forbidden: Graph) -> Callable[[Graph], int | None]:
    """The knapsack score of a connected class: its s-cliques when it is forbidden-free, else None."""
    forb_k = _clique_order(forbidden)

    def score(g: Graph) -> int | None:
        found = contains_subgraph(g, forbidden) if forb_k is None else contains_clique(g, forb_k)
        return None if found else count_cliques(g, s)

    return score


def _mex_by_enumeration(m: int, s: int, forbidden: Graph, cap: int | None) -> SearchResult:
    """brute_force_mex by scanning every graph with m edges; right for every forbidden graph."""
    start = time.perf_counter()
    # enumerate_graphs yields canonical representatives in canonical-form
    # order, so the attainers come out in that order without relabeling
    graphs = list(enumerate_graphs(m, cap=cap))
    free = [g for g in graphs if not contains_subgraph(g, forbidden)]
    return _search_result(free, s, len(graphs), start)


def brute_force_ex(
    n: int,
    t: int,
    forbidden: Graph,
    *,
    cap: int | None = DEFAULT_VERTEX_CAP,
) -> SearchResult:
    """Exact maximum of the t-clique count over forbidden-free graphs on n vertices.

    Runs over the free classes on n vertices, level n of _free_upto, one
    canonical representative each, in canonical-form order.  The levels
    stay in the _LEVELS store under ("vertex", canonical form of the
    forbidden graph), so a call only extends them up to n.
    search_space_size counts the free classes on n vertices.
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
    """The forbidden-free graphs on 0..n vertices, one canonical representative each.

    Level k grows from level k-1 through _levels.  The moves of a parent
    h are the neighbourhoods N in 1..k-1 of the fresh vertex k that leave
    k of least degree: with δ the least degree of h, |N| <= δ+1, and N
    holds every vertex of degree δ when |N| = δ+1.  The rule keeps the
    child when it is free.  This is exact for every forbidden graph:
    deleting a least-degree vertex of a free graph leaves a free class of
    level k-1 (freeness survives vertex deletion), to which adding that
    vertex back is one of the moves.  The 0-vertex seed is not tested for
    freeness; brute_force_ex reads only the levels n >= 1.
    """
    forb_k = _clique_order(forbidden)

    def expand(h: Graph) -> tuple[list[int], Callable[[int], tuple[int, ...] | None]]:
        k = h.vertex_count + 1
        deg = [a.bit_count() for a in h.adjacency]
        low = min(deg[1:], default=0)
        lows = sum(1 << v for v in h.vertices() if deg[v] == low)
        succ = _label_successors(h.adjacency)
        moves = [
            nbrs
            for nbrs in range(0, 1 << k, 2)  # every subset of 1..k-1
            if (d := nbrs.bit_count()) <= low or d == low + 1 and nbrs & lows == lows
        ]

        def child(nbrs: int) -> tuple[int, ...] | None:
            # h is free, so a new K_q would contain k: a K_{q-1} in nbrs
            if forb_k is not None and _has_within(succ, nbrs, forb_k - 1):
                return None
            adj = (*(a | (nbrs >> v & 1) << k for v, a in enumerate(h.adjacency)), nbrs)
            if forb_k is None and contains_subgraph(_trusted_graph(k, adj), forbidden):
                return None
            return adj

        return moves, child

    key = ("vertex", canonical_form(forbidden))
    return _levels(key, {(0, ()): Graph(0, (0,))}, expand, n)


# ---------------------------------------------------------------------------
# shadow minimization
# ---------------------------------------------------------------------------


def _check_min_shadow(
    n: int, k: int, sizes: range, p: int, r_colorable: int | None, cap: int | None
) -> None:
    """Raise what brute_force_min_shadow raises first over sizes, in order, without a search.

    Per size its checks are 1 <= p < k <= n, 0 <= size <= C(n, k), the
    family cap on C(C(n, k), size) and, from size 1 on, the colouring,
    with r = r_colorable or, without one, r = n: r >= 1, min(r, n) >= k,
    the cap on the families the search walks, and size at most e_k of the
    balanced min(r, n)-partition of [n], which is the most k-sets any one
    colouring admits (e_k only grows as two parts are evened out).  The
    search walks the size-subsets of one pool per partition of n into
    min(r, n) parts, and no pool is larger than that e_k, so the cap
    bounds the partition count times C(e_k, size); at r = n that is the
    family count.  Past C(n, k)/2 both counts only fall, so once the caps
    are off or the scan is past that point only size > e_k can fail, and
    the scan goes on to e_k + 1 alone.  An empty range checks nothing.
    """
    if not sizes:
        return
    if not 1 <= p < k <= n:
        raise ValueError(f"need 1 <= p < k <= n, got p={p}, k={k}, n={n}")
    total = comb(n, k)
    r = n if r_colorable is None else r_colorable
    size = sizes[0]
    while size in sizes:
        if not 0 <= size <= total:
            raise ValueError(f"size must lie in 0..{total}")
        _require_cap(comb(total, size), cap, "family search space")
        if size:
            most = _colorable_most(n, k, r)
            walk = _partition_count(n, min(r, n)) * comb(most, size)
            _require_cap(walk, cap, "coloring search space")
            if size > most:
                raise ValueError("no qualifying family exists at this size")
            if cap is None or 2 * size >= total:
                size = most  # only size > most can fail from here on
        size += 1


def _colorable_most(n: int, k: int, r_colorable: int) -> int:
    """e_k of the balanced min(r, n)-partition of [n], after the colouring checks."""
    if r_colorable < 1:
        raise ValueError("r_colorable must be at least 1")
    r = min(r_colorable, n)
    if r < k:
        raise ValueError(f"no {r_colorable}-colorable family of {k}-sets exists")
    return _e_balanced(k, r, n)


def _partitions(n: int, parts: int, least: int = 1) -> Iterator[tuple[int, ...]]:
    """The partitions of n into `parts` nondecreasing parts of at least `least`, in lexicographic order."""
    if parts == 1:
        if n >= least:
            yield (n,)
        return
    for first in range(least, n // parts + 1):
        for rest in _partitions(n - first, parts - 1, first):
            yield (first, *rest)


def _partition_count(n: int, parts: int) -> int:
    """How many tuples _partitions(n, parts) yields, without listing them.

    Taking 1 from each part leaves a partition of n - parts into at most
    `parts` parts, whose conjugate has parts of size at most `parts`.
    """
    if not 1 <= parts <= n:
        return 0
    ways = [1] + [0] * (n - parts)
    for part in range(1, parts + 1):
        for x in range(part, n - parts + 1):
            ways[x] += ways[x - part]
    return ways[-1]


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

    The minimum runs over families admitting a partition of [n] into
    r = r_colorable parts that every member meets at most once; no
    r_colorable means r = n, one part per element, so every family
    qualifies and the one pool is every k-set.
    Relabeling [n] keeps a family's size and its p-shadow's size, and
    every such partition is a relabeling of the one into consecutive
    runs with the same sorted part sizes.  Splitting a part only adds
    rainbow k-sets (those meeting each part at most once), so the search
    takes one partition per multiset of min(r, n) positive part sizes,
    with its rainbow k-sets as the pool.  Every ValueError and
    CapExceededError comes from _check_min_shadow, before the search.
    """
    _check_min_shadow(n, k, range(size, size + 1), p, r_colorable, cap)
    if size == 0:
        return 0
    all_sets = list(combinations(range(n), k))
    colorings = (
        [part for part, part_size in enumerate(sizes) for _ in range(part_size)]
        for sizes in _partitions(n, n if r_colorable is None else min(r_colorable, n))
    )
    pools = [[s for s in all_sets if len({color[v] for v in s}) == k] for color in colorings]
    return min(
        len({sub for s in family for sub in combinations(s, p)})
        for pool in pools
        for family in combinations(pool, size)
    )


# ---------------------------------------------------------------------------
# partition edits and blowup search
# ---------------------------------------------------------------------------


def min_edits_to_r_partite(
    g: Graph, r: int, *, cap: int | None = DEFAULT_PARTITION_CAP
) -> int:
    """Minimum edge deletions after which the rest of g is r-partite.

    Equals m minus the maximum number of edges captured between the
    classes of an r-part vertex partition; computed exactly per component
    by backtracking over the vertices in descending degree, pruned by a
    greedy assignment's cost.  Parts open in first-use order, and a vertex
    takes no lower part than its last earlier twin (same open or closed
    neighbourhood).  The cap bounds the largest component.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    comps = _components(g.adjacency)
    largest = max((comp.bit_count() for comp in comps), default=0)
    _require_cap(largest, cap, "component vertex count for exact partition mode")
    return sum(_component_min_edits(g, comp, r) for comp in comps if comp & comp - 1)


def _component_min_edits(g: Graph, comp: int, r: int) -> int:
    adj = g.adjacency
    order = sorted(_bits(comp), key=lambda v: (-adj[v].bit_count(), v))
    # Twins swap at no cost, so v starts at its last earlier twin's part.
    # Twins share an open or a closed mask; no open mask is another's closed.
    last: dict[int, int] = {}
    twin = []
    for v in order:
        twin.append(last.get(adj[v], last.get(adj[v] | 1 << v, -1)))
        last[adj[v]] = last[adj[v] | 1 << v] = v

    # greedy upper bound
    part_masks = [0] * r
    greedy = 0
    for v in order:
        costs = [(adj[v] & pm).bit_count() for pm in part_masks]
        pi = costs.index(min(costs))
        greedy += costs[pi]
        part_masks[pi] |= 1 << v
    if greedy == 0:
        return 0
    best = greedy

    part_masks = [0] * r
    part: dict[int, int] = {}

    def rec(i: int, cost: int, used_parts: int) -> None:
        nonlocal best
        if cost >= best:
            return
        if i == len(order):
            best = cost
            return
        v = order[i]
        for pi in range(part.get(twin[i], 0), min(used_parts + 1, r)):
            add = (adj[v] & part_masks[pi]).bit_count()
            if cost + add < best:
                part_masks[pi] |= 1 << v
                part[v] = pi
                rec(i + 1, cost + add, max(used_parts, pi + 1))
                part_masks[pi] ^= 1 << v

    rec(0, 0, 0)
    return best


def find_blowup(
    g: Graph, parts: int, t: int, *, cap: int | None = DEFAULT_BLOWUP_CAP
) -> tuple[bool, tuple[tuple[int, ...], ...] | None]:
    """Search for a complete `parts`-partite subgraph with all parts of size t.

    Parts need only be completely joined to each other (non-induced
    containment), so edges inside a part are irrelevant.  Returns the
    witness parts ordered by their minimum elements when found.  cap
    bounds g's vertex count; the part size stays at most 3 unless cap
    is None.
    """
    if parts < 1 or t < 1:
        raise ValueError("parts and t must be at least 1")
    if cap is not None:
        _require_cap(t, _BLOWUP_T_CAP, "blowup part size")
        _require_cap(g.vertex_count, cap, "vertex count")

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
