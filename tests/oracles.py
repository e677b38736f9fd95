"""Independent naive oracles for cross-checking the package.

Nothing here touches the package's counting, canonicalization, or
enumeration machinery: clique counts run over raw vertex subsets,
isomorphism is a permutation backtracking search, the graph enumerator
walks colex-sorted first-use-labeled edge lists (and the mex search
scans what it lists), equitable refinement recounts neighbours between
vertex sets until nothing splits, the edge builder's deletion rule
rekeys every edge of the child and bridge-tests by search, the ex
search scans every labeled graph, partition edits scan every part
assignment, the edge deletion process recounts every edge at every
step, and the vertex deletion process recounts the edges of its
neighbour sets at every step.  Slow on purpose; used at desk scale only.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations, product
from math import comb

from mexkit.colex import colex_unrank, rpartite_valid
from mexkit.graphs import Graph, graph_from_edges
from mexkit.processes import PartialVertex, ProcessConfig, ProcessStep, ProcessTrace


def naive_count_cliques(g: Graph, t: int) -> int:
    """t-cliques by scanning every t-subset of the vertices."""
    count = 0
    for combo in combinations(range(1, g.vertex_count + 1), t):
        if all(g.adjacency[u] >> v & 1 for u, v in combinations(combo, 2)):
            count += 1
    return count


def naive_cliques_at_vertex(g: Graph, v: int, s: int) -> int:
    count = 0
    others = [u for u in range(1, g.vertex_count + 1) if u != v]
    for combo in combinations(others, s - 1):
        full = combo + (v,)
        if all(g.adjacency[a] >> b & 1 for a, b in combinations(full, 2)):
            count += 1
    return count


def naive_cliques_at_edge(g: Graph, e: tuple[int, int], s: int) -> int:
    u, v = e
    count = 0
    others = [w for w in range(1, g.vertex_count + 1) if w not in e]
    for combo in combinations(others, s - 2):
        full = combo + (u, v)
        if all(g.adjacency[a] >> b & 1 for a, b in combinations(full, 2)):
            count += 1
    return count


def naive_edge_deletion_process(g: Graph, config: ProcessConfig) -> ProcessTrace:
    """The edge process by its documented rule, recounting every edge at every step.

    A step takes the least-valued edge whose value (s-cliques through it)
    is below coefficient * (edge count)**exponent, ties going to the first
    edge in colex order; the run stops when no edge qualifies or the
    budget is spent, and budget_exhausted records whether an edge still
    qualified then.
    """
    n = g.vertex_count
    adj = list(g.adjacency)
    steps = []

    def least_qualifying():
        current = Graph(n, tuple(adj))
        edges = [(u, v) for v in range(2, n + 1) for u in range(1, v) if adj[u] >> v & 1]
        if not edges:
            return None
        threshold = config.coefficient * len(edges) ** config.exponent
        best = None
        for e in edges:
            value = naive_cliques_at_edge(current, e, config.s)
            if value < threshold and (best is None or value < best[1]):
                best = (e, value)
        return best

    while len(steps) < config.edge_budget:
        pick = least_qualifying()
        if pick is None:
            return ProcessTrace(tuple(steps), Graph(n, tuple(adj)), False, None)
        (u, v), value = pick
        adj[u] &= ~(1 << v)
        adj[v] &= ~(1 << u)
        steps.append(ProcessStep("edge", (u, v), value, g.edge_count - len(steps) - 1))
    exhausted = least_qualifying() is not None
    return ProcessTrace(tuple(steps), Graph(n, tuple(adj)), exhausted, None)



def naive_vertex_deletion_process(g: Graph, config: ProcessConfig) -> ProcessTrace:
    """The vertex process by its documented rule, on neighbour sets.

    Each step recounts the edges and recomputes the threshold
    coefficient * (edge count)**exponent (+inf with no edge left under a
    negative exponent), then takes the least-degree live vertex below it,
    ties going to the smaller label.  A vertex whose degree the budget
    left cannot cover is spared: its edges to its lowest neighbours are
    removed until the budget is spent, and budget_exhausted is set.
    """
    n = g.vertex_count
    nbrs = {v: {u for u in range(1, n + 1) if g.adjacency[v] >> u & 1} for v in range(1, n + 1)}
    live = set(nbrs)
    steps = []
    spent = 0

    def graph():
        return Graph(n, (0,) + tuple(sum(1 << u for u in nbrs[v]) for v in range(1, n + 1)))

    while True:
        m = sum(len(near) for near in nbrs.values()) // 2
        if m == 0 and config.exponent < 0:
            threshold = float("inf")
        else:
            threshold = config.coefficient * m**config.exponent
        qualifying = [(len(nbrs[v]), v) for v in live if len(nbrs[v]) < threshold]
        if not qualifying:
            return ProcessTrace(tuple(steps), graph(), False, None)
        d, v = min(qualifying)
        if spent + d > config.edge_budget:
            trimmed = []
            for u in sorted(nbrs[v])[: config.edge_budget - spent]:
                nbrs[u].discard(v)
                nbrs[v].discard(u)
                trimmed.append((min(u, v), max(u, v)))
            return ProcessTrace(tuple(steps), graph(), True, PartialVertex(v, tuple(trimmed)))
        for u in nbrs[v]:
            nbrs[u].discard(v)
        nbrs[v] = set()
        live.discard(v)
        spent += d
        steps.append(ProcessStep("vertex", v, d, m - d))

def naive_degeneracy_successors(g: Graph) -> tuple[int, ...]:
    """Successor masks of the order that keeps removing a least-degree vertex, ties to the smaller label."""
    alive = set(g.vertices())
    succ = [0] * (g.vertex_count + 1)
    while alive:
        v = min(alive, key=lambda u: (sum(g.adjacency[u] >> w & 1 for w in alive), u))
        alive.remove(v)
        succ[v] = sum(1 << w for w in alive if g.adjacency[v] >> w & 1)
    return tuple(succ)


def naive_colex_pairs(m: int, r: int | None = None) -> list[tuple[int, int]]:
    """First m pairs of the colex order, r-partite when r is given, by unranking and filtering."""
    pairs = []
    rank = 0
    while len(pairs) < m:
        pair = colex_unrank(rank, 2)
        if r is None or rpartite_valid(pair, r):
            pairs.append(pair)
        rank += 1
    return pairs


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Exact isomorphism test by pruned permutation backtracking."""
    n = g1.vertex_count
    if n != g2.vertex_count or g1.edge_count != g2.edge_count:
        return False
    deg1 = [g1.adjacency[v].bit_count() for v in range(n + 1)]
    deg2 = [g2.adjacency[v].bit_count() for v in range(n + 1)]
    if sorted(deg1[1:]) != sorted(deg2[1:]):
        return False

    # order g1's vertices so each is adjacent to an earlier one when possible
    order: list[int] = []
    seen: set[int] = set()
    for start in sorted(range(1, n + 1), key=lambda v: -deg1[v]):
        if start in seen:
            continue
        queue = [start]
        seen.add(start)
        while queue:
            v = queue.pop(0)
            order.append(v)
            for u in range(1, n + 1):
                if g1.adjacency[v] >> u & 1 and u not in seen:
                    seen.add(u)
                    queue.append(u)

    mapping: dict[int, int] = {}

    def extend(i: int, used: int) -> bool:
        if i == n:
            return True
        v = order[i]
        for w in range(1, n + 1):
            if used >> w & 1 or deg2[w] != deg1[v]:
                continue
            ok = True
            for u in order[:i]:
                if (g1.adjacency[v] >> u & 1) != (g2.adjacency[w] >> mapping[u] & 1):
                    ok = False
                    break
            if ok:
                mapping[v] = w
                if extend(i + 1, used | (1 << w)):
                    return True
                del mapping[v]
        return False

    return extend(0, 0)


def naive_equitable_partition(g: Graph, cells) -> set[frozenset[int]]:
    """Coarsest equitable refinement of the partition cells of g's vertices, as a set partition.

    A plain fixpoint: while the vertices of some cell differ in their
    number of neighbours in some cell, split the first by that number.
    """
    parts = [frozenset(cell) for cell in cells]
    while True:
        for i, cell in enumerate(parts):
            split = None
            for other in parts:
                by_count: dict[int, set[int]] = {}
                for v in cell:
                    by_count.setdefault(sum(g.has_edge(v, u) for u in other), set()).add(v)
                if len(by_count) > 1:
                    split = [frozenset(sub) for sub in by_count.values()]
                    break
            if split:
                parts[i : i + 1] = split
                break
        else:
            return set(parts)


def naive_least_deletable(adj, u: int, v: int) -> bool:
    """True iff no deletable edge of the connected graph adj has a smaller key than uv.

    An edge is deletable when it is pendant or not a bridge, so deleting
    it (with its leaf, if pendant) leaves the graph connected.  Its key is
    the sorted pair of its endpoint degrees; ties are kept.  Every edge of
    the child is rekeyed from its degrees, and every non-pendant one below
    uv's key is tested for a bridge by a search.
    """
    deg = [a.bit_count() for a in adj]
    key = (deg[u], deg[v]) if deg[u] <= deg[v] else (deg[v], deg[u])
    for a, b in _colex_edges(adj):
        k = (deg[a], deg[b]) if deg[a] <= deg[b] else (deg[b], deg[a])
        if k < key and (k[0] == 1 or not _is_bridge(adj, a, b)):
            return False
    return True


def _colex_edges(adj):
    """Edges (a, b) with a < b of a padded adjacency sequence, in colex order."""
    return [(a, b) for b in range(len(adj)) for a in range(1, b) if adj[a] >> b & 1]


def _is_bridge(adj, a: int, b: int) -> bool:
    """True iff b cannot be reached from a without the edge ab, by depth-first search."""
    seen, stack = {a}, [a]
    while stack:
        x = stack.pop()
        for y in range(1, len(adj)):
            if adj[x] >> y & 1 and {x, y} != {a, b} and y not in seen:
                seen.add(y)
                stack.append(y)
    return b not in seen


def _pair_colex_key(e: tuple[int, int]) -> tuple[int, int]:
    return (e[1], e[0])


def naive_nonisomorphic_graphs(m: int) -> list[Graph]:
    """Every graph with m edges and no isolated vertices, up to isomorphism.

    Walks colex-sorted edge lists whose labels appear in first-use order
    (a new edge may touch existing labels, one fresh label k+1, or the
    fresh pair {k+1, k+2}); every such graph admits such a labeling via a
    per-component breadth-first relabeling.  Duplicates are rejected by
    the permutation isomorphism test.
    """
    reps: dict[tuple, list[Graph]] = {}
    out: list[Graph] = []

    def record(edges: list[tuple[int, int]]) -> None:
        g = graph_from_edges(edges)
        key = (
            g.vertex_count,
            tuple(sorted(g.adjacency[v].bit_count() for v in range(1, g.vertex_count + 1))),
        )
        bucket = reps.setdefault(key, [])
        if not any(are_isomorphic(g, h) for h in bucket):
            bucket.append(g)
            out.append(g)

    def dfs(edges: list[tuple[int, int]], k: int) -> None:
        if len(edges) == m:
            record(edges)
            return
        last = _pair_colex_key(edges[-1]) if edges else (0, 0)
        candidates = [(u, v) for v in range(2, k + 1) for u in range(1, v)]
        candidates += [(u, k + 1) for u in range(1, k + 1)]
        candidates.append((k + 1, k + 2))
        for cand in candidates:
            if _pair_colex_key(cand) <= last or cand in edges:
                continue
            dfs(edges + [cand], max(k, cand[1]))

    dfs([], 0)
    return out


def naive_contains(g: Graph, f: Graph) -> bool:
    """True iff some injective map of f's vertices into g's carries every edge of f onto one."""
    if f.edge_count == comb(f.vertex_count, 2):
        return f.vertex_count <= g.vertex_count and naive_count_cliques(g, f.vertex_count) > 0
    edges = list(f.edges())
    return any(
        all(g.adjacency[image[u - 1]] >> image[v - 1] & 1 for u, v in edges)
        for image in permutations(range(1, g.vertex_count + 1), f.vertex_count)
    )


@lru_cache(maxsize=None)
def _naive_free_graphs(n: int, forbidden: Graph) -> tuple[Graph, ...]:
    """Every forbidden-free graph on n labeled vertices, one per edge subset."""
    pairs = list(combinations(range(1, n + 1), 2))
    graphs = (
        graph_from_edges([p for i, p in enumerate(pairs) if code >> i & 1], n)
        for code in range(1 << len(pairs))
    )
    return tuple(g for g in graphs if not naive_contains(g, forbidden))


def naive_brute_force_ex(n: int, t: int, forbidden: Graph) -> tuple[int, list[Graph]]:
    """Most t-cliques over forbidden-free graphs on n vertices, and one attainer per class.

    Scans every edge subset of the complete graph on 1..n labeled vertices
    (the free ones are cached per (n, forbidden)) and groups the attainers
    by the permutation isomorphism test.  Returns (0, []) when no graph is
    free.
    """
    best = -1
    attainers: list[Graph] = []
    for g in _naive_free_graphs(n, forbidden):
        val = naive_count_cliques(g, t)
        if val > best:
            best, attainers = val, [g]
        elif val == best:
            attainers.append(g)
    buckets: dict[tuple[int, ...], list[Graph]] = {}
    classes: list[Graph] = []
    for g in attainers:
        bucket = buckets.setdefault(tuple(sorted(m.bit_count() for m in g.adjacency)), [])
        if not any(are_isomorphic(g, h) for h in bucket):
            bucket.append(g)
            classes.append(g)
    return max(best, 0), classes


@lru_cache(maxsize=None)
def _naive_classes(m: int) -> tuple[Graph, ...]:
    return tuple(naive_nonisomorphic_graphs(m))


@lru_cache(maxsize=None)
def _naive_free_classes(m: int, forbidden: Graph) -> tuple[tuple[Graph, ...], int]:
    """The forbidden-free classes with m edges, and the number of all classes."""
    graphs = _naive_classes(m)
    return tuple(g for g in graphs if not naive_contains(g, forbidden)), len(graphs)


def naive_brute_force_mex(m: int, s: int, forbidden: Graph) -> tuple[int, list[Graph], int]:
    """Most s-cliques over forbidden-free graphs with m edges, its attainers, and the space.

    Scans naive_nonisomorphic_graphs(m), which lists one graph per class,
    so the attainers need no grouping; space counts every class with m
    edges.  Returns (0, [], space) when no graph is free.
    """
    free, space = _naive_free_classes(m, forbidden)
    counts = [naive_count_cliques(g, s) for g in free]
    best = max(counts, default=0)
    return best, [g for g, c in zip(free, counts) if c == best], space


def naive_min_edits(g: Graph, r: int) -> int:
    """Minimum monochromatic edges over every r-part assignment, by full scan."""
    edges = [(u - 1, v - 1) for u, v in g.edges()]
    best = len(edges)
    for assign in product(range(r), repeat=g.vertex_count):
        cost = 0
        for u, v in edges:
            if assign[u] == assign[v]:
                cost += 1
                if cost >= best:
                    break
        else:
            best = cost
            if best == 0:
                return 0
    return best


def naive_r_colorable(family, r: int, n: int) -> bool:
    """True iff some r-part assignment of [n] meets every member at most once per part."""
    k = family.k
    for assign in product(range(r), repeat=n):
        if all(len({assign[e - 1] for e in s}) == k for s in family):
            return True
    return False
