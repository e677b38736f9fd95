"""Independent references the benchmark checks mexkit's answers against.

Nothing here imports mexkit.  The extremal values come from the elementary
symmetric polynomial form of the colex Turan graph: with t_r(n) < m <=
t_r(n+1) and q = m - t_r(n), CT_r(m) is T_r(n) plus vertex n+1 joined to
the first q vertices below it outside its own residue class, so

    k_s(CT_r(m)) = e_s(part sizes of T_r(n)) + e_{s-1}(residue counts of those q).

Deletion-process traces are replayed on plain adjacency masks.  Each
deleted item's value is recounted with bit operations written here, and
each step is checked to delete the item of least value among those that
qualify.
"""

from __future__ import annotations

import heapq
from math import isqrt

# OEIS A000664: graphs with m edges and no isolated vertices, m = 1..8.
A000664 = (1, 2, 5, 11, 26, 68, 177, 497)


def elementary_symmetric(values: list[int], k: int) -> int:
    """e_k(values): the sum over k-subsets of the product of their entries."""
    if k < 0:
        return 0
    e = [1] + [0] * k
    for x in values:
        for j in range(k, 0, -1):
            e[j] += e[j - 1] * x
    return e[k]


def part_sizes(r: int, n: int) -> list[int]:
    """Residue-class sizes of [n] mod r: class i holds the v with (v - 1) % r == i."""
    return [n // r + (1 if i < n % r else 0) for i in range(r)]


def turan_edges(r: int, n: int) -> int:
    return (n * n - sum(x * x for x in part_sizes(r, n))) // 2


def colex_turan_order(r: int, m: int) -> int:
    """The n with t_r(n) < m <= t_r(n+1), for m >= 1."""
    n = max(isqrt(2 * m * r // (r - 1)) - 1, 0)
    while n > 0 and turan_edges(r, n) >= m:
        n -= 1
    while turan_edges(r, n + 1) < m:
        n += 1
    return n


def mex_reference(m: int, s: int, r: int) -> int:
    """Most K_s copies in a K_{r+1}-free graph with m edges (r >= s >= 2)."""
    if m == 0:
        return 0
    n = colex_turan_order(r, m)
    q = m - turan_edges(r, n)
    apex_class = n % r
    counts = [0] * r
    taken = 0
    u = 1
    while taken < q:
        cls = (u - 1) % r
        if cls != apex_class:
            counts[cls] += 1
            taken += 1
        u += 1
    return elementary_symmetric(part_sizes(r, n), s) + elementary_symmetric(counts, s - 1)


def zykov_reference(n: int, t: int, r: int) -> int:
    """Most K_t copies in a K_{r+1}-free graph on n vertices: e_t of the Turan part sizes."""
    return elementary_symmetric(part_sizes(r, n), t)


def closed_form_reference(r: int, s: int, n: int) -> bool:
    """mex^2 == c_{r,s}^2 m^s at the balanced point m = t_r(n), r | n, cleared of denominators."""
    m = turan_edges(r, n)
    kappa = mex_reference(m, s, r)
    pairs = r * (r - 1) // 2
    return kappa * kappa * pairs**s == elementary_symmetric([1] * r, s) ** 2 * m**s


def _popcount(x: int) -> int:
    return bin(x).count("1")


def _members(mask: int) -> list[int]:
    out = []
    v = 0
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return out


def cliques_inside(adj: list[int], mask: int, q: int) -> int:
    """q-cliques whose vertices all lie in mask, for q <= 2 (the orders s - 2 the benchmark uses)."""
    if q == 0:
        return 1
    if q == 1:
        return _popcount(mask)
    if q == 2:
        return sum(_popcount(adj[x] & mask) for x in _members(mask)) // 2
    raise ValueError(f"clique order {q} is not supported by the reference")


class _EdgePicker:
    """Live edges' values, updated as edges go, with the minimum kept in a lazy heap.

    This is not mexkit's algorithm, which rescans every edge at every step.
    Deleting {u, v} can change only the values of edges at u or v and of
    edges inside the common neighbourhood of u and v, so only those are
    recounted.
    """

    def __init__(self, adj: list[int], q: int) -> None:
        self.adj = adj
        self.q = q
        self.value: dict[tuple[int, int], int] = {}
        self.heap: list[tuple[int, int, int]] = []  # (value, v, u): colex order breaks ties
        for v in range(len(adj)):
            for u in _members(adj[v] & ((1 << v) - 1)):
                self._recount(u, v)

    def _recount(self, u: int, v: int) -> None:
        value = cliques_inside(self.adj, self.adj[u] & self.adj[v], self.q)
        if self.value.get((u, v)) != value:
            self.value[(u, v)] = value
            heapq.heappush(self.heap, (value, v, u))

    def pick(self, threshold: float) -> tuple[tuple[int, int], int] | None:
        """The first edge in colex order among those of least value, if that value is below threshold."""
        while self.heap:
            value, v, u = self.heap[0]
            if self.value.get((u, v)) == value:
                return ((u, v), value) if value < threshold else None
            heapq.heappop(self.heap)
        return None

    def delete(self, edge: tuple[int, int]) -> None:
        u, v = edge
        adj = self.adj
        common = adj[u] & adj[v]
        adj[u] &= ~(1 << v)
        adj[v] &= ~(1 << u)
        del self.value[edge]
        for x in (u, v):
            for w in _members(adj[x]):
                self._recount(min(x, w), max(x, w))
        for a in _members(common):
            for b in _members(adj[a] & common & ((1 << a) - 1)):
                self._recount(b, a)


class _VertexPicker:
    """Live vertices; the minimum degree is found by a scan over them."""

    def __init__(self, adj: list[int]) -> None:
        self.adj = adj
        self.live = set(range(1, len(adj)))

    def pick(self, threshold: float) -> tuple[int, int] | None:
        """The smallest vertex among those of least degree, if that degree is below threshold."""
        if not self.live:
            return None
        degree, v = min((_popcount(self.adj[v]), v) for v in self.live)
        return (v, degree) if degree < threshold else None

    def delete(self, v: int) -> None:
        for u in _members(self.adj[v]):
            self.adj[u] &= ~(1 << v)
        self.adj[v] = 0
        self.live.discard(v)


def check_trace(adjacency: tuple[int, ...], config, trace) -> list[str]:
    """Replay a deletion trace on plain masks and check every step; return the problems found.

    Each step must delete the item the processes document: among the items
    whose value is strictly below coefficient * edges**exponent, one of
    least value, ties going to the first edge in colex order or the
    smallest vertex.  Values are recounted here.  The run must stop when
    nothing qualifies or the edge budget is spent, and budget_exhausted,
    the partial last vertex and final_graph must agree with the replay.
    """
    problems: list[str] = []
    adj = list(adjacency)
    edges = sum(_popcount(x) for x in adj) // 2
    budget = config.edge_budget
    picker = _EdgePicker(adj, config.s - 2) if config.mode == "edge" else _VertexPicker(adj)

    def threshold() -> float:
        return config.coefficient * edges**config.exponent

    for i, step in enumerate(trace.steps):
        want = picker.pick(threshold())
        if step.kind != config.mode or (step.item, step.value) != want:
            problems.append(
                f"step {i}: deleted {step.kind} {step.item} of value {step.value}; "
                f"the rule picks {want[0]} of value {want[1]}" if want else
                f"step {i}: deleted {step.kind} {step.item}, but nothing qualifies"
            )
            return problems
        picker.delete(step.item)
        edges -= 1 if config.mode == "edge" else step.value
        if step.edges_after != edges:
            problems.append(f"step {i}: edges_after {step.edges_after}, replay {edges}")
    deleted = sum(_popcount(x) for x in adjacency) // 2 - edges
    if deleted > budget:
        problems.append(f"deleted {deleted} edges, budget {budget}")

    pending = picker.pick(threshold())
    partial = trace.partial_last_vertex
    if trace.budget_exhausted != (pending is not None):
        problems.append(f"budget_exhausted={trace.budget_exhausted}, but next pick is {pending}")
    if config.mode == "edge":
        if pending is not None and len(trace.steps) < budget:
            problems.append(f"stopped with budget left while {pending[0]} qualifies")
        if partial is not None:
            problems.append("edge process reports a partial vertex")
    elif pending is None:
        if partial is not None:
            problems.append(f"partial vertex {partial.vertex}, but nothing qualifies")
    elif partial is None or partial.vertex != pending[0]:
        problems.append(f"partial vertex {partial and partial.vertex}, the rule picks {pending[0]}")
    elif deleted + pending[1] <= budget:
        problems.append(f"spared vertex {pending[0]} though the budget covers it")
    else:
        for u, v in partial.removed_edges:
            if partial.vertex not in (u, v) or not adj[u] >> v & 1:
                problems.append(f"partial vertex: {{{u}, {v}}} is not one of its edges")
            adj[u] &= ~(1 << v)
            adj[v] &= ~(1 << u)
        if deleted + len(partial.removed_edges) != budget:
            problems.append(
                f"partial trim ends at {deleted + len(partial.removed_edges)} edges, budget {budget}"
            )
    if tuple(adj) != trace.final_graph.adjacency:
        problems.append("replay does not reproduce final_graph")
    return problems
