"""Threshold-driven deletion procedures with full, replayable traces.

The edge process repeatedly removes an edge lying in few s-cliques
relative to the current edge count; the vertex process removes low-degree
vertices against a square-root threshold, stopping exactly at an edge
budget (trimming the final vertex partially if needed).  Both run one
loop, _deletion_process.  At each step the mode's code gives the least
live item and its value, ties broken by colex order (edges) or smallest
label (vertices); the least value qualifies iff some item does, so the
loop alone compares it with the threshold coefficient * m**exponent at
the current edge count m.  It then stops, spares the item (the budget
left cannot cover its cost: 1 edge, or the vertex's degree) or deletes
it.  Deleted vertices remain as isolated placeholders so labels stay
stable and traces replay exactly.

Cost: the edge process counts each edge's s-cliques once, then after a
deletion subtracts from each edge that shared an s-clique with the deleted
one the cliques it lost, which lie inside the common neighbourhood of the
deleted edge's ends (at s = 3 one triangle each, no count at all), keeping
the least value in a lazy heap.  Edges and heap entries are packed ints:
u < v is v << b | u, an entry value << 2b | (v << b | u), so int order is
(value, v, u) order, the colex tie-break.  The vertex process keeps its
degrees in a lazy heap of ints degree << b | v the same way, one push
per neighbour of a deleted vertex.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import islice
from math import factorial

from .extremal import beta, c_rs, mex_clique
from .graphs import (
    Graph,
    _bits,
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
    try:
        rho_lower = 1.0 - (factorial(s) / 2 ** (s / 2) * (c + epsilon / 3)) ** (2 / s)
    except OverflowError:  # s! past the float range
        raise ValueError(f"s! overflows a float in rho_lower (s={s}, epsilon={epsilon})") from None
    rho = (max(rho_lower, 0.0) + 1.0) / 2.0
    delta = s * (s - 2) * c * epsilon**2 / 16
    epsilon_prime = epsilon / (16 * r + 1)
    delta_prime = s * (s - 2) * c * ((epsilon / 2) / (16 * r + 1)) ** 2 / 16
    alpha = min(epsilon**2, delta_prime / (5 * 2 ** ((s + 2) / 2)))
    eta = epsilon**2 * alpha
    return ProofConstants(rho_lower, rho, delta, epsilon_prime, alpha, eta)


def default_edge_config(g: Graph, s: int, r: int, epsilon: float) -> ProcessConfig:
    """Edge-mode defaults: threshold 2^(s-2) eps^(2s-4)/(s-2)! * m^((s-2)/2), budget floor(rho*m).

    Needs s >= 3; a default past the float range raises a ValueError naming it.
    """
    return _config("edge", g, s, r, epsilon, {})


def default_vertex_config(g: Graph, s: int, r: int, epsilon: float) -> ProcessConfig:
    """Vertex-mode defaults: threshold beta_r (1-2 eps) sqrt(m), budget floor(eps*m).

    Needs 0 < epsilon < 0.5, so that the coefficient is positive.
    """
    return _config("vertex", g, s, r, epsilon, {})


def _config(mode: str, g: Graph, s: int, r: int, epsilon: float, given: dict) -> ProcessConfig:
    """The config of the fields in given, and of the mode's defaults for the others.

    A given field's default is never computed, and the mode's domain
    (edge: s >= 3; vertex: 0 < epsilon < 0.5) is checked only when some
    default is.  The edge budget comes first: proof_constants raises from
    s = 171 on, before the coefficient's (s-2)! overflows at s = 173.
    """
    f = dict(given)
    if mode == "edge":
        if len(f) < 3 and s < 3:
            raise ValueError("edge mode defaults need s >= 3")
        if "edge_budget" not in f:
            f["edge_budget"] = math.floor(proof_constants(r, s, epsilon).rho * g.edge_count)
        if "coefficient" not in f:
            try:
                f["coefficient"] = 2 ** (s - 2) * epsilon ** (2 * s - 4) / factorial(s - 2)
            except OverflowError:  # (s-2)! past the float range, from s = 173 on
                raise ValueError(
                    f"(s-2)! overflows a float in the default edge coefficient"
                    f" (s={s}, epsilon={epsilon})"
                ) from None
            if f["coefficient"] == 0.0:
                raise ValueError(
                    f"default edge coefficient underflows to 0 (s={s}, epsilon={epsilon})"
                )
        f.setdefault("exponent", (s - 2) / 2)
    else:
        if len(f) < 3 and not 0.0 < epsilon < 0.5:
            raise ValueError("vertex mode defaults need epsilon in (0, 0.5)")
        if "coefficient" not in f:
            f["coefficient"] = beta(r).float_value * (1.0 - 2.0 * epsilon)
        if "edge_budget" not in f:
            f["edge_budget"] = math.floor(epsilon * g.edge_count)
        f.setdefault("exponent", 0.5)
    return ProcessConfig(mode, s, r, epsilon, **f)


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
    """coefficient * m**exponent, or its limit +inf at m = 0 under a negative exponent.

    Raises ValueError if m**exponent overflows a float.  Only the first
    evaluation, at the input's edge count, can: the edge count only falls,
    so m**exponent is largest there when exponent >= 0 and at most 1 below it.
    """
    if m == 0 and config.exponent < 0:
        return math.inf
    try:
        return config.coefficient * m**config.exponent
    except OverflowError:
        raise ValueError(
            f"threshold coefficient * m**exponent is out of float range "
            f"(coefficient={config.coefficient}, exponent={config.exponent}, m={m})"
        ) from None


def _edge_items(adj: list[int], s: int) -> tuple[Callable, Callable]:
    """The edge mode's least() -> (value, edge) and delete(e) over the live edges of adj.

    Every edge's value (the s-cliques through it) is counted once, up
    front, into a dict keyed by the int v << b | u (u < v; b bits hold
    any label) beside a lazy min-heap of ints value << 2b | (v << b | u).
    Int order is (value, v, u) order, so the least entry is the colex-first
    edge of least value, and no tuple is built, hashed or compared.  Deleting
    {u, v} destroys the s-cliques through both; an edge ab loses those
    through u, v, a and b.  With W = N(u) & N(v), uw and vw (w in W) each
    lose one per (s-3)-clique of W & N(w), and, when s >= 4, an edge wx
    inside W loses one per (s-4)-clique of W & N(w) & N(x); no other
    value changes.  Each loss is subtracted, not recounted: at s = 3 it
    is 1, at s = 4 a popcount for uw and vw and 1 for wx.  A heap entry is
    pushed only for a nonzero loss; an entry whose value no longer
    matches the dict is stale and is popped when it reaches the top.
    """
    succ = _label_successors(adj)
    depth = s - 2
    b = len(adj).bit_length()  # every label fits in b bits
    label, shift = (1 << b) - 1, 2 * b
    value = {}
    for v in range(2, len(adj)):
        near, high = adj[v], v << b
        for u in _bits(near & ((1 << v) - 1)):
            value[high | u] = _count_within(succ, adj[u] & near, depth)
    heap = [val << shift | e for e, val in value.items()]
    heapify(heap)

    def lower(x: int, y: int, loss: int) -> None:
        if loss:
            e = y << b | x if x < y else x << b | y
            val = value[e] = value[e] - loss
            heappush(heap, val << shift | e)

    def least() -> tuple[int, tuple[int, int]] | None:
        while heap:
            top = heap[0]
            val, e = top >> shift, top & (1 << shift) - 1
            if value.get(e) == val:
                return val, (e & label, e >> b)
            heappop(heap)
        return None

    def delete(edge: tuple[int, int]) -> None:
        u, v = edge
        common = adj[u] & adj[v]
        adj[u] &= ~(1 << v)
        adj[v] &= ~(1 << u)
        succ[u] &= ~(1 << v)
        del value[v << b | u]
        if depth == 0:
            return  # at s = 2 an edge's only s-clique is itself
        if depth == 1:  # at s = 3 uw and vw lose just the triangle uvw
            for w in _bits(common):
                e = w << b | u if u < w else u << b | w
                val = value[e] = value[e] - 1
                heappush(heap, val << shift | e)
                e = w << b | v if v < w else v << b | w
                val = value[e] = value[e] - 1
                heappush(heap, val << shift | e)
            return
        for w in _bits(common):
            # uw and vw lose one s-clique per (s-3)-clique of W & N(w)
            near = common & adj[w]
            loss = _count_within(succ, near, depth - 1)
            lower(u, w, loss)
            lower(v, w, loss)
            # wx inside W loses one per (s-4)-clique of W & N(w) & N(x)
            for x in _bits(near & succ[w]):
                lower(w, x, _count_within(succ, near & adj[x], depth - 2) if depth > 2 else 1)

    return least, delete


def _vertex_items(adj: list[int]) -> tuple[Callable, Callable]:
    """The vertex mode's least() -> (degree, v) and delete(v) over the live vertices of adj.

    A lazy min-heap holds ints degree << b | v (b bits hold any label), so
    int order is (degree, v) order, the smallest-label tie-break.  A
    degree only falls: deleting v pushes each neighbour's new degree, and
    an entry whose vertex is gone or whose degree no longer matches is
    stale and is popped when it reaches the top.  The partial trim ends
    the run, so it pushes nothing.
    """
    b = len(adj).bit_length()
    label = (1 << b) - 1
    live = [False] + [True] * (len(adj) - 1)
    heap = [a.bit_count() << b | v for v, a in enumerate(adj) if v]
    heapify(heap)

    def least() -> tuple[int, int] | None:
        while heap:
            top = heap[0]
            d, v = top >> b, top & label
            if live[v] and adj[v].bit_count() == d:
                return d, v
            heappop(heap)
        return None

    def delete(v: int) -> None:
        for u in _bits(adj[v]):
            adj[u] &= ~(1 << v)
            heappush(heap, adj[u].bit_count() << b | u)
        adj[v] = 0
        live[v] = False

    return least, delete


def _deletion_process(g: Graph, config: ProcessConfig, mode: str) -> ProcessTrace:
    """The one deletion loop behind both processes (see the module docstring)."""
    if config.mode != mode:
        raise ValueError(f"config.mode must be {mode!r}")
    if config.edge_budget > g.edge_count:
        raise ValueError("edge_budget exceeds the edge count")
    m_cur = g.edge_count
    threshold = _threshold(config, m_cur)  # raises on overflow before any value is counted
    n = g.vertex_count
    adj = list(g.adjacency)
    least, delete = _edge_items(adj, config.s) if mode == "edge" else _vertex_items(adj)
    left = config.edge_budget
    steps: list[ProcessStep] = []
    exhausted, partial = False, None
    while (pick := least()) is not None and pick[0] < threshold:
        val, item = pick
        cost = 1 if mode == "edge" else val
        if cost > left:  # spare the item
            exhausted = True
            if mode == "vertex":  # trimmed of just enough edges (possibly none)
                near = islice(_bits(adj[item]), left)
                trimmed = tuple((min(u, item), max(u, item)) for u in near)
                for u, v in trimmed:
                    adj[u] &= ~(1 << v)
                    adj[v] &= ~(1 << u)
                partial = PartialVertex(item, trimmed)
            break
        delete(item)
        m_cur -= cost
        left -= cost
        steps.append(ProcessStep(mode, item, val, m_cur))
        threshold = _threshold(config, m_cur)
    return ProcessTrace(tuple(steps), _trusted_graph(n, tuple(adj)), exhausted, partial)


def edge_deletion_process(g: Graph, config: ProcessConfig) -> ProcessTrace:
    """Repeatedly delete a qualifying least-value edge until none is left or the budget runs out."""
    return _deletion_process(g, config, "edge")


def vertex_deletion_process(g: Graph, config: ProcessConfig) -> ProcessTrace:
    """Repeatedly delete a qualifying minimum-degree vertex, stopping exactly at the edge budget.

    Once no edge is left, a negative exponent makes the threshold its
    limit +inf, so the remaining isolated vertices qualify at zero cost
    (as they do under exponent 0).
    """
    return _deletion_process(g, config, "vertex")


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
    extremal_value = mex_clique(m, s, r)
    edits = min_edits_to_r_partite(g, r, cap=cap)
    kappa = count_cliques(g, s)
    ratio = kappa / extremal_value if extremal_value else None
    config = default_vertex_config(g, s, r, epsilon)
    trace = vertex_deletion_process(g, config)
    removed = {step.item for step in trace.steps}
    survivors = [v for v in g.vertices() if v not in removed]
    final = trace.final_graph
    m_final = final.edge_count
    if survivors:
        min_deg = min(final.degree(v) for v in survivors)
        sqrt_ok = min_deg >= _threshold(config, m_final)
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
