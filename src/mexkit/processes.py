"""Threshold-driven deletion procedures with full, replayable traces.

The edge process repeatedly removes an edge lying in few s-cliques
relative to the current edge count; the vertex process removes low-degree
vertices against a square-root threshold, stopping exactly at an edge
budget (trimming the final vertex partially if needed).  Both are
deterministic: among qualifying items the one of minimum value is
removed, ties broken by colex order (edges) or smallest label (vertices).
Deleted vertices remain as isolated placeholders so labels stay stable
and traces replay exactly.

Cost: the edge process counts each edge's s-cliques once, then after a
deletion subtracts from each edge that shared an s-clique with the deleted
one the cliques it lost, which lie inside the common neighbourhood of the
deleted edge's ends (at s = 3 one triangle each, no count at all), keeping
the least value in a lazy heap; the vertex process scans the live
vertices' degrees, O(n) popcounts a step.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from math import factorial

from .extremal import beta, c_rs, mex_clique
from .graphs import (
    Graph,
    _bits,
    _colex_edges,
    _count_within,
    _label_successors,
    _trusted_graph,
    contains_clique,
    count_cliques,
)
from .oracle import DEFAULT_PARTITION_CAP, min_edits_to_r_partite

__all__ = [
    "PartialVertex",
    "ProcessConfig",
    "ProcessStep",
    "ProcessTrace",
    "ProofConstants",
    "StabilityReport",
    "default_edge_config",
    "default_vertex_config",
    "edge_deletion_process",
    "proof_constants",
    "replay_trace",
    "stability_experiment",
    "vertex_deletion_process",
]


@dataclass(frozen=True)
class ProcessConfig:
    """Parameters of one deletion run.

    A step deletes an item whose value (edge s-clique count, or vertex
    degree) is strictly below coefficient * (current edge count)**exponent.
    edge_budget bounds the total number of edges removed.
    """

    mode: str
    s: int
    r: int
    epsilon: float
    coefficient: float
    exponent: float
    edge_budget: int

    def __post_init__(self) -> None:
        if self.mode not in ("edge", "vertex"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.s < 2 or self.r < 2:
            raise ValueError("need s >= 2 and r >= 2")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        for name in ("coefficient", "exponent"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.coefficient <= 0.0:
            raise ValueError("coefficient must be positive")
        if self.edge_budget < 0:
            raise ValueError("edge_budget must be nonnegative")


@dataclass(frozen=True)
class ProofConstants:
    """Derived threshold constants, all computed from (r, s, epsilon).

    rho is the default fraction of edges the edge process may delete; its
    admissible interval is open, so the default sits at the midpoint of
    the positive part.  delta is the clique-count slack under which the
    vertex process is guaranteed to stop early; epsilon_prime rescales
    the tolerance for the r-partite edit bound; alpha and eta cascade the
    same quantities once more for the general forbidden-graph variant
    (delta re-derived at epsilon/2 through the rescaled tolerance).
    """

    rho_lower: float
    rho: float
    delta: float
    epsilon_prime: float
    alpha: float
    eta: float


def proof_constants(r: int, s: int, epsilon: float) -> ProofConstants:
    if r < 2 or s < 3:
        raise ValueError("need r >= 2 and s >= 3")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    c = c_rs(r, s).float_value
    rho_lower = 1.0 - (factorial(s) / 2 ** (s / 2) * (c + epsilon / 3)) ** (2 / s)
    rho = (max(rho_lower, 0.0) + 1.0) / 2.0
    delta = s * (s - 2) * c * epsilon**2 / 16
    epsilon_prime = epsilon / (16 * r + 1)
    delta_prime = s * (s - 2) * c * ((epsilon / 2) / (16 * r + 1)) ** 2 / 16
    alpha = min(epsilon**2, delta_prime / (5 * 2 ** ((s + 2) / 2)))
    eta = epsilon**2 * alpha
    return ProofConstants(rho_lower, rho, delta, epsilon_prime, alpha, eta)


def default_edge_config(g: Graph, s: int, r: int, epsilon: float) -> ProcessConfig:
    """Edge-mode defaults: threshold 2^(s-2) eps^(2s-4)/(s-2)! * m^((s-2)/2), budget floor(rho*m)."""
    if s < 3:
        raise ValueError("edge mode defaults need s >= 3")
    coeff = 2 ** (s - 2) * epsilon ** (2 * s - 4) / factorial(s - 2)
    budget = math.floor(proof_constants(r, s, epsilon).rho * g.edge_count)
    return ProcessConfig("edge", s, r, epsilon, coeff, (s - 2) / 2, budget)


def default_vertex_config(g: Graph, s: int, r: int, epsilon: float) -> ProcessConfig:
    """Vertex-mode defaults: threshold beta_r (1-2 eps) sqrt(m), budget floor(eps*m)."""
    if not 0.0 < epsilon < 0.5:
        raise ValueError("vertex mode defaults need epsilon in (0, 0.5)")
    coeff = beta(r).float_value * (1.0 - 2.0 * epsilon)
    return ProcessConfig(
        "vertex", s, r, epsilon, coeff, 0.5, math.floor(epsilon * g.edge_count)
    )


@dataclass(frozen=True)
class ProcessStep:
    kind: str
    item: tuple[int, int] | int
    value: int
    edges_after: int


@dataclass(frozen=True)
class PartialVertex:
    vertex: int
    removed_edges: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class ProcessTrace:
    """Step-by-step record of one deletion run.

    budget_exhausted is set when the budget (not the threshold) stopped
    the run.  In vertex mode, a qualifying final vertex that the budget
    cannot fully cover is spared and recorded in partial_last_vertex with
    the edges (possibly none) trimmed off it; consequently every
    surviving vertex meets the degree threshold unless
    partial_last_vertex is set.
    """

    steps: tuple[ProcessStep, ...]
    final_graph: Graph
    budget_exhausted: bool
    partial_last_vertex: PartialVertex | None


def _threshold(config: ProcessConfig, m: int) -> float:
    """coefficient * m**exponent, or its limit +inf at m = 0 under a negative exponent."""
    if m == 0 and config.exponent < 0:
        return math.inf
    return config.coefficient * m**config.exponent


def _check_threshold(config: ProcessConfig, m: int) -> None:
    """Raise ValueError if the threshold at the input's edge count m overflows a float.

    No later step can overflow then: the edge count only falls, so m**exponent
    is largest at m when exponent >= 0 and at most 1 below it.
    """
    try:
        _threshold(config, m)
    except OverflowError:
        raise ValueError(
            f"threshold coefficient * m**exponent is out of float range "
            f"(coefficient={config.coefficient}, exponent={config.exponent}, m={m})"
        ) from None


def edge_deletion_process(g: Graph, config: ProcessConfig) -> ProcessTrace:
    """Repeatedly delete a qualifying minimum-value edge until none is left or the budget runs out.

    Every edge's value (the s-cliques through it) is counted once, up
    front, and kept in a dict beside a lazy min-heap keyed (value, v, u),
    so the least key is the colex-first edge of least value.  Deleting
    {u, v} destroys the s-cliques through both; an edge ab loses those
    through u, v, a and b.  With W = N(u) & N(v), uw and vw (w in W) each
    lose one per (s-3)-clique of W & N(w), and, when s >= 4, an edge wx
    inside W loses one per (s-4)-clique of W & N(w) & N(x); no other
    value changes.  Each loss is subtracted, not recounted: at s = 3 it
    is 1, at s = 4 a popcount for uw and vw and 1 for wx.  A heap entry is
    pushed only for a nonzero loss; an entry whose value no longer
    matches the dict is stale and is popped when it reaches the top.  The
    least live value qualifies iff some edge does, so each step compares
    it alone with the threshold.
    """
    if config.mode != "edge":
        raise ValueError("config.mode must be 'edge'")
    if config.edge_budget > g.edge_count:
        raise ValueError("edge_budget exceeds the edge count")
    _check_threshold(config, g.edge_count)
    n = g.vertex_count
    adj = list(g.adjacency)
    succ = _label_successors(adj)
    m_cur = g.edge_count
    depth = config.s - 2
    steps: list[ProcessStep] = []
    value = {(u, v): _count_within(succ, adj[u] & adj[v], depth) for u, v in _colex_edges(adj)}
    heap = [(val, v, u) for (u, v), val in value.items()]
    heapq.heapify(heap)

    def lower(a: int, b: int, loss: int) -> None:
        if loss:
            e = (a, b) if a < b else (b, a)
            val = value[e] = value[e] - loss
            heapq.heappush(heap, (val, e[1], e[0]))

    def least_qualifying() -> tuple[tuple[int, int], int] | None:
        while heap:
            val, v, u = heap[0]
            if value.get((u, v)) == val:
                return ((u, v), val) if val < _threshold(config, m_cur) else None
            heapq.heappop(heap)
        return None

    while len(steps) < config.edge_budget:
        pick = least_qualifying()
        if pick is None:
            return ProcessTrace(tuple(steps), _trusted_graph(n, tuple(adj)), False, None)
        (u, v), val = pick
        common = adj[u] & adj[v]
        adj[u] &= ~(1 << v)
        adj[v] &= ~(1 << u)
        succ[u] &= ~(1 << v)
        del value[(u, v)]
        m_cur -= 1
        steps.append(ProcessStep("edge", (u, v), val, m_cur))
        if depth == 0:
            continue  # at s = 2 an edge's only s-clique is itself
        for w in _bits(common):
            # uw and vw lose one s-clique per (s-3)-clique of W & N(w)
            near = common & adj[w]
            loss = _count_within(succ, near, depth - 1) if depth > 1 else 1
            lower(u, w, loss)
            lower(v, w, loss)
            if depth >= 2:
                # wx inside W loses one per (s-4)-clique of W & N(w) & N(x)
                for x in _bits(near & succ[w]):
                    lower(w, x, _count_within(succ, near & adj[x], depth - 2) if depth > 2 else 1)
    exhausted = least_qualifying() is not None
    return ProcessTrace(tuple(steps), _trusted_graph(n, tuple(adj)), exhausted, None)


def vertex_deletion_process(g: Graph, config: ProcessConfig) -> ProcessTrace:
    """Repeatedly delete a qualifying minimum-degree vertex, stopping exactly at the edge budget.

    Once no edge is left, a negative exponent makes the threshold its
    limit +inf, so the remaining isolated vertices qualify at zero cost
    (as they do under exponent 0).
    """
    if config.mode != "vertex":
        raise ValueError("config.mode must be 'vertex'")
    if config.edge_budget > g.edge_count:
        raise ValueError("edge_budget exceeds the edge count")
    _check_threshold(config, g.edge_count)
    n = g.vertex_count
    adj = list(g.adjacency)
    m_cur = g.edge_count
    steps: list[ProcessStep] = []
    removed_mask = 0
    deleted_edges = 0

    def pick_vertex() -> int | None:
        threshold = _threshold(config, m_cur)
        best = None
        for v in range(1, n + 1):
            if removed_mask >> v & 1:
                continue
            d = adj[v].bit_count()
            if d < threshold and (best is None or d < best[1]):
                best = (v, d)
        return best[0] if best is not None else None

    while True:
        v = pick_vertex()
        if v is None:
            return ProcessTrace(tuple(steps), _trusted_graph(n, tuple(adj)), False, None)
        d = adj[v].bit_count()
        if deleted_edges + d > config.edge_budget:
            # spare the final vertex, trimming just enough of its edges
            # (possibly none) to land exactly on the budget
            allowed = config.edge_budget - deleted_edges
            trimmed = []
            for u in _bits(adj[v]):
                if len(trimmed) == allowed:
                    break
                adj[u] &= ~(1 << v)
                adj[v] &= ~(1 << u)
                trimmed.append((min(u, v), max(u, v)))
            return ProcessTrace(
                tuple(steps),
                _trusted_graph(n, tuple(adj)),
                True,
                PartialVertex(v, tuple(trimmed)),
            )
        for u in _bits(adj[v]):
            adj[u] &= ~(1 << v)
        adj[v] = 0
        removed_mask |= 1 << v
        m_cur -= d
        deleted_edges += d
        steps.append(ProcessStep("vertex", v, d, m_cur))


def replay_trace(g: Graph, trace: ProcessTrace) -> Graph:
    """Apply a trace's deletions to the input graph; must reproduce final_graph."""
    adj = list(g.adjacency)
    for step in trace.steps:
        if step.kind == "edge":
            u, v = step.item
            adj[u] &= ~(1 << v)
            adj[v] &= ~(1 << u)
        else:
            v = step.item
            for u in _bits(adj[v]):
                adj[u] &= ~(1 << v)
            adj[v] = 0
    if trace.partial_last_vertex is not None:
        for u, v in trace.partial_last_vertex.removed_edges:
            adj[u] &= ~(1 << v)
            adj[v] &= ~(1 << u)
    return Graph(g.vertex_count, tuple(adj))


@dataclass(frozen=True)
class StabilityReport:
    """Measurements relating a graph's clique count to the extremal value.

    No conclusion is asserted: the report records the exact counts, the
    exact minimum edit distance to r-partite, and whether the surviving
    graph of a default vertex-trimming run meets the two minimum-degree
    bounds (against sqrt of its edge count, and against its order).
    input_clique_free records whether the input actually avoids K_{r+1};
    the report is produced either way.
    """

    input_clique_free: bool
    clique_count: int
    extremal_value: int
    ratio: float | None
    edits_to_partite: int
    edits_within_epsilon: bool
    trimmed_edge_count: int
    trimmed_vertex_count: int
    trimmed_min_degree: int | None
    meets_sqrt_degree_bound: bool | None
    meets_order_degree_bound: bool | None
    partial_trim: bool


def stability_experiment(
    g: Graph, r: int, s: int, epsilon: float, *, cap: int | None = DEFAULT_PARTITION_CAP
) -> StabilityReport:
    """Measure how close a K_{r+1}-free graph is to extremal and to r-partite.

    Inputs containing a K_{r+1} still get a report (flagged via
    input_clique_free); nothing is asserted about them.  cap bounds the
    exact r-partite edit count as in min_edits_to_r_partite.
    """
    m = g.edge_count
    kappa = count_cliques(g, s)
    extremal_value = mex_clique(m, s, r)
    ratio = kappa / extremal_value if extremal_value else None
    edits = min_edits_to_r_partite(g, r, cap=cap)
    config = default_vertex_config(g, s, r, epsilon)
    trace = vertex_deletion_process(g, config)
    removed = {step.item for step in trace.steps}
    survivors = [v for v in g.vertices() if v not in removed]
    final = trace.final_graph
    m_final = final.edge_count
    if survivors:
        min_deg = min(final.degree(v) for v in survivors)
        sqrt_ok = min_deg >= config.coefficient * math.sqrt(m_final)
        order_ok = min_deg >= ((r - 1) / r - 4 * epsilon) * len(survivors)
    else:
        min_deg = None
        sqrt_ok = None
        order_ok = None
    return StabilityReport(
        input_clique_free=not contains_clique(g, r + 1),
        clique_count=kappa,
        extremal_value=extremal_value,
        ratio=ratio,
        edits_to_partite=edits,
        edits_within_epsilon=edits <= epsilon * m,
        trimmed_edge_count=m_final,
        trimmed_vertex_count=len(survivors),
        trimmed_min_degree=min_deg,
        meets_sqrt_degree_bound=sqrt_ok,
        meets_order_degree_bound=order_ok,
        partial_trim=trace.partial_last_vertex is not None,
    )
