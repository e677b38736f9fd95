"""Immutable bitset-adjacency graphs and exact clique counting.

Vertices are labeled 1..vertex_count.  Each neighbor set is an integer
bitmask (bit v of adjacency[u] is set iff {u, v} is an edge), so the
neighborhood intersections inside the counting recursion are single
arbitrary-width integer operations.  All counts are plain Python
integers and cannot overflow.  Graph values are immutable and every
operation here is a pure function.

Every clique test, and every clique count but the weighted one below,
goes through one kernel pair, _count_within and _has_within.  Both take
successor masks of an acyclic orientation (succ[u] holds the neighbors
that come after u) and look for cliques inside a candidate mask.  In any
acyclic orientation a clique has exactly one vertex preceding all its
others, so counting t-cliques visits each clique with fewer than t
vertices exactly once, whatever the orientation; the last level is a
popcount, not a call.  mexkit uses label order, _label_successors,
which Graph caches.

count_cliques for t >= 2 first merges false twins, vertices with one
neighbor mask, which are never adjacent.  Two classes of twins are fully
joined or not at all and a clique meets a class at most once, so the
t-cliques of g are those of the class graph, each counted as the product
of its class sizes.  The class graph is the subgraph induced on the
first vertex of each class, so _count_weighted walks it with the same
successor masks.  T_r(n) has r classes and CT_r(m) at most 2r.
count_cliques builds the classes in one pass, only on _TWIN_MIN_VERTICES
vertices or more, and uses them only when they at least halve the
non-isolated vertices; every other count runs on the vertices themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

__all__ = [
    "CliqueProfile",
    "Graph",
    "clique_profile",
    "cliques_at_edge",
    "cliques_at_vertex",
    "contains_clique",
    "contains_subgraph",
    "count_cliques",
    "format_edge_list",
    "graph_from_edges",
    "min_clique_degrees",
    "non_isolated_subgraph",
    "parse_edge_list",
]


# Below this many vertices the twin classes cost more to build than they
# save (timed against the unit kernel on Turan, colex Turan, complete
# bipartite and complete split graphs).
_TWIN_MIN_VERTICES = 12


def _bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _vertex_mask(n: int) -> int:
    """Bitmask of the vertices 1..n."""
    return ((1 << (n + 1)) - 1) & ~1


def _label_successors(adj: Sequence[int]) -> list[int]:
    """A fresh list of the label-order successor masks of a padded adjacency sequence."""
    return [a & -(2 << v) for v, a in enumerate(adj)]


def _colex_edges(adj: Sequence[int]) -> Iterator[tuple[int, int]]:
    """Edges (u, v) with u < v of a padded adjacency sequence, in colex order."""
    for v in range(1, len(adj)):
        for u in _bits(adj[v] & ((1 << v) - 1)):
            yield (u, v)


@dataclass(frozen=True)
class Graph:
    """Finite simple graph on vertices 1..vertex_count.

    adjacency[v] is the neighbor bitmask of v; index 0 is unused padding.
    The stored adjacency is symmetric and irreflexive by construction.
    """

    vertex_count: int
    adjacency: tuple[int, ...]

    def __post_init__(self) -> None:
        n = self.vertex_count
        if n < 0:
            raise ValueError("vertex_count must be nonnegative")
        if len(self.adjacency) != n + 1 or self.adjacency[0] != 0:
            raise ValueError("adjacency must have one mask per vertex 1..n")
        for v in range(1, n + 1):
            mask = self.adjacency[v]
            # bits past n (a negative mask too) or bit 0, by a shift that costs
            # the size of the mask, not n
            if mask >> n + 1 or mask & 1:
                raise ValueError(f"neighbor of {v} out of range")
            if mask >> v & 1:
                raise ValueError(f"self-loop at {v}")
            for u in _bits(mask):
                if not self.adjacency[u] >> v & 1:
                    raise ValueError(f"asymmetric adjacency at {{{u}, {v}}}")

    def vertices(self) -> range:
        return range(1, self.vertex_count + 1)

    @property
    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adjacency) // 2

    def degree(self, v: int) -> int:
        return self.neighbor_mask(v).bit_count()

    def neighbor_mask(self, v: int) -> int:
        if not 1 <= v <= self.vertex_count:
            raise ValueError(f"vertex {v} not in 1..{self.vertex_count}")
        return self.adjacency[v]

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.neighbor_mask(u) >> v & 1) if 1 <= v <= self.vertex_count else False

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) with u < v, in colex order."""
        return _colex_edges(self.adjacency)

    @cached_property
    def _successors(self) -> tuple[int, ...]:
        """Each vertex's larger-labeled neighbors, cached for the per-vertex and per-edge counts.

        The kernel visits each clique with fewer than t vertices once in
        any orientation, so no vertex order would save it work.
        """
        return tuple(_label_successors(self.adjacency))


@dataclass(frozen=True)
class CliqueProfile:
    """Clique counts (c_1, ..., c_omega); c_t is the number of t-cliques.

    Entries stop at the clique number, so every stored count is positive.
    """

    counts: tuple[int, ...]

    @property
    def omega(self) -> int:
        return len(self.counts)


def _trusted_graph(n: int, adjacency: tuple[int, ...]) -> Graph:
    """A Graph on adjacency that is padded, in range and symmetric by construction, unchecked.

    For builders that set or clear every edge's two bits together: the
    oracle's canonical representatives and F-free level children, the
    Turan, colex and critical-edge gadget constructions and the final
    graphs of the deletion processes.  Input goes through Graph(...).
    """
    g = object.__new__(Graph)
    object.__setattr__(g, "vertex_count", n)
    object.__setattr__(g, "adjacency", adjacency)
    return g


def graph_from_edges(
    edges: Iterable[Iterable[int]], explicit_vertex_count: int | None = None
) -> Graph:
    """Build a graph from unordered vertex pairs.

    Self-loops and duplicate pairs are rejected outright so that oracle
    enumeration counts stay exact.  explicit_vertex_count pads with
    isolated vertices (it must cover every endpoint).
    """
    pairs = []
    seen: set[tuple[int, int]] = set()
    top = 0
    for raw in edges:
        pair = tuple(raw)
        if len(pair) != 2:
            raise ValueError(f"not a vertex pair: {raw!r}")
        u, v = pair
        if not (isinstance(u, int) and isinstance(v, int)) or u < 1 or v < 1:
            raise ValueError(f"endpoints must be positive integers: {raw!r}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ValueError(f"duplicate edge {{{key[0]}, {key[1]}}}")
        seen.add(key)
        pairs.append(key)
        top = max(top, key[1])
    n = top
    if explicit_vertex_count is not None:
        if explicit_vertex_count < top:
            raise ValueError(
                f"explicit_vertex_count {explicit_vertex_count} below max endpoint {top}"
            )
        n = explicit_vertex_count
    adj = [0] * (n + 1)
    for u, v in pairs:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def _count_within(succ: Sequence[int], cand: int, depth: int) -> int:
    """Number of depth-cliques inside cand, each counted once via the acyclic successor masks."""
    if depth < 2:
        return cand.bit_count() if depth else 1
    total = 0
    rest = cand
    if depth == 2:  # the edges inside cand: a popcount per vertex, no call
        while rest:
            low = rest & -rest
            rest ^= low
            total += (cand & succ[low.bit_length() - 1]).bit_count()
        return total
    while rest:
        low = rest & -rest
        rest ^= low
        total += _count_within(succ, cand & succ[low.bit_length() - 1], depth - 1)
    return total


def _has_within(succ: Sequence[int], cand: int, depth: int) -> bool:
    """True iff cand holds a depth-clique; _count_within(...) > 0 with an early exit."""
    if depth < 2:
        return cand != 0 if depth else True
    rest = cand
    while rest:
        low = rest & -rest
        rest ^= low
        below = cand & succ[low.bit_length() - 1]
        if below if depth == 2 else _has_within(succ, below, depth - 1):
            return True
    return False


def _count_weighted(succ: Sequence[int], sizes: Sequence[int], big: int, cand: int, depth: int) -> int:
    """Sum over the depth-cliques C inside cand of the product of sizes[v] over v in C; depth >= 2.

    big holds the vertices of size above 1, so the last level is a popcount
    and a step per big vertex, not a call.
    """
    total = 0
    rest = cand
    while rest:
        low = rest & -rest
        rest ^= low
        v = low.bit_length() - 1
        below = cand & succ[v]
        if depth > 2:
            total += sizes[v] * _count_weighted(succ, sizes, big, below, depth - 1)
            continue
        weight = below.bit_count()
        more = below & big
        while more:
            one = more & -more
            more ^= one
            weight += sizes[one.bit_length() - 1] - 1
        total += sizes[v] * weight
    return total


def _twin_classes(adj: Sequence[int]) -> tuple[int, list[int], int] | None:
    """(first vertices, class sizes by first vertex, first vertices of classes above 1).

    None unless there are at most half as many classes as non-isolated vertices.
    """
    first: dict[int, int] = {}  # a mask's first vertex
    sizes = [0] * len(adj)
    for v, a in enumerate(adj):
        if a:
            sizes[first.setdefault(a, v)] += 1
    if 2 * len(first) > sum(sizes):
        return None
    firsts = big = 0
    for v in first.values():
        firsts |= 1 << v
        big |= (sizes[v] > 1) << v
    return firsts, sizes, big


def count_cliques(g: Graph, t: int) -> int:
    """Exact number of t-vertex cliques in g, counted as vertex subsets.

    For t >= 2 on _TWIN_MIN_VERTICES or more vertices it builds the
    false-twin classes in one pass and counts on them when they at least
    halve the non-isolated vertices (module docstring).
    """
    if t < 1:
        raise ValueError("clique order must be at least 1")
    twins = _twin_classes(g.adjacency) if t > 1 and g.vertex_count >= _TWIN_MIN_VERTICES else None
    if twins is None:
        return _count_within(g._successors, _vertex_mask(g.vertex_count), t)
    firsts, sizes, big = twins
    return _count_weighted(g._successors, sizes, big, firsts, t)


def cliques_at_vertex(g: Graph, v: int, s: int) -> int:
    """Number of s-cliques of g containing vertex v.

    Equals the (s-1)-clique count of the subgraph induced on N(v).
    """
    if s < 1:
        raise ValueError("clique order must be at least 1")
    return _count_within(g._successors, g.neighbor_mask(v), s - 1)


def cliques_at_edge(g: Graph, e: tuple[int, int], s: int) -> int:
    """Number of s-cliques of g containing the edge e.

    Equals the (s-2)-clique count inside the common neighborhood.
    """
    if s < 2:
        raise ValueError("clique order must be at least 2 for an edge count")
    u, v = e
    if not g.has_edge(u, v):
        raise ValueError(f"{{{u}, {v}}} is not an edge")
    return _count_within(g._successors, g.adjacency[u] & g.adjacency[v], s - 2)


def min_clique_degrees(g: Graph, s: int) -> tuple[int | None, int | None]:
    """Minimum per-vertex and per-edge s-clique counts.

    Returns (min over vertices, min over edges); a slot is None when the
    graph has no vertices (resp. no edges) to minimize over.  A count
    depends only on N(v), or on N(u) & N(v) for an edge, so each distinct
    mask is counted once.
    """
    if s < 2:
        raise ValueError("clique order must be at least 2")
    adj, succ = g.adjacency, g._successors
    delta = min((_count_within(succ, a, s - 1) for a in set(adj[1:])), default=None)
    common = {adj[u] & adj[v] for u, v in g.edges()}
    delta_edge = min((_count_within(succ, c, s - 2) for c in common), default=None)
    return (delta, delta_edge)


def clique_profile(g: Graph) -> CliqueProfile:
    """Counts of t-cliques for t = 1 up to the clique number."""
    counts = []
    t = 1
    while True:
        c = count_cliques(g, t)
        if c == 0:
            break
        counts.append(c)
        t += 1
    return CliqueProfile(tuple(counts))


def contains_clique(g: Graph, k: int) -> bool:
    """True iff g has a k-clique; early-exits as soon as one is found."""
    if k < 1:
        raise ValueError("clique order must be at least 1")
    return _has_within(g._successors, _vertex_mask(g.vertex_count), k)


def contains_subgraph(g: Graph, f: Graph) -> bool:
    """True iff g contains a (not necessarily induced) copy of f.

    Isolated vertices of f only require g to have at least as many
    vertices in total; the rest of f is embedded by backtracking, one
    pattern vertex per step.  The order is greedy: next comes the unplaced
    non-isolated vertex with the most placed neighbours, then the one of
    highest degree, then the least label.  A step's candidates are the
    free host vertices adjacent to the images of its placed neighbours
    and of at least its degree.
    """
    if f.vertex_count > g.vertex_count:
        return False
    left = sum(1 << v for v in f.vertices() if f.adjacency[v])
    steps: list[tuple[int, int, int]] = []  # (vertex, placed-neighbour mask, degree)
    while left:
        # every neighbour is non-isolated, so placed unless still left
        v = max(
            _bits(left),
            key=lambda u: ((f.adjacency[u] & ~left).bit_count(), f.adjacency[u].bit_count()),
        )
        steps.append((v, f.adjacency[v] & ~left, f.adjacency[v].bit_count()))
        left ^= 1 << v
    images = [0] * (f.vertex_count + 1)

    def extend(i: int, free: int) -> bool:
        if i == len(steps):
            return True
        v, back, deg = steps[i]
        cand = free
        for u in _bits(back):
            cand &= g.adjacency[images[u]]
        for x in _bits(cand):
            if g.adjacency[x].bit_count() >= deg:
                images[v] = x
                if extend(i + 1, free ^ 1 << x):
                    return True
        return False

    return extend(0, _vertex_mask(g.vertex_count))


def non_isolated_subgraph(g: Graph) -> Graph:
    """Induced subgraph on the non-isolated vertices, relabeled 1..k in label order."""
    keep = [v for v in g.vertices() if g.adjacency[v]]
    relabel = {v: i + 1 for i, v in enumerate(keep)}
    adj = [0] * (len(keep) + 1)
    for v in keep:
        for u in _bits(g.adjacency[v]):
            adj[relabel[v]] |= 1 << relabel[u]
    return Graph(len(keep), tuple(adj))


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list text format.

    One edge per line as two positive integers; an optional leading
    header ``n <vertex_count>``; blank lines and ``#`` comments ignored.
    """
    return graph_from_edges(*_parse_edge_lines(text))


def _parse_edge_lines(text: str) -> tuple[list[tuple[int, int]], int | None]:
    """The edges and the ``n`` header (None without one) of edge-list text, not yet a Graph."""
    explicit: int | None = None
    edges: list[tuple[int, int]] = []
    saw_content = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if not saw_content and tokens[0] == "n":
            if len(tokens) != 2:
                raise ValueError(f"line {lineno}: malformed header {raw!r}")
            explicit = int(tokens[1])
            saw_content = True
            continue
        saw_content = True
        if len(tokens) != 2:
            raise ValueError(f"line {lineno}: expected two endpoints, got {raw!r}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: non-integer endpoint in {raw!r}") from exc
        edges.append((u, v))
    return edges, explicit


def format_edge_list(g: Graph) -> str:
    """Serialize to the edge-list text format (colex edge order).

    The ``n`` header is emitted only when needed to preserve isolated
    vertices, so the output round-trips through parse_edge_list.
    """
    lines = []
    top = 0
    for u, v in g.edges():
        lines.append(f"{u} {v}")
        top = v
    if g.vertex_count != top:
        lines.insert(0, f"n {g.vertex_count}")
    return "\n".join(lines) + ("\n" if lines else "")
