"""Builders for the named extremal graphs.

All constructions use one shared labeling convention: vertex v belongs to
part ((v - 1) mod r) + 1.  Under that convention the balanced complete
multipartite graph on [n] is the first t_r(n) pairs of the r-partite
colex order, so turan_graph, complete_graph (r = n) and the host of the
critical-edge gadget are all built by the one row walk behind
colex_turan_graph, and the isomorphism checks in the tests are plain
equality on the non-isolated part.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, isqrt

# colex_unrank is no longer called here; the binding stays because
# perfbench/tests/test_tracer.py checks that the tracer patches it here.
from .colex import colex_unrank  # noqa: F401
from .graphs import Graph, _bits, _trusted_graph, _vertex_mask

__all__ = [
    "GadgetParams",
    "blowup",
    "colex_graph",
    "colex_turan_graph",
    "complete_graph",
    "critical_edge_gadget",
    "critical_edge_gadget_params",
    "turan_graph",
    "turan_number",
]


def _residue_classes(r: int, n: int) -> list[int]:
    """Masks of the vertices 1..n by residue class: entry c holds every v with (v - 1) % r == c.

    Only the min(r, n) classes that meet [n] are listed.
    """
    classes = [0] * min(r, n)
    for v in range(1, n + 1):
        classes[(v - 1) % r] |= 1 << v
    return classes


def turan_graph(r: int, n: int) -> Graph:
    """Complete r-partite graph on [n], parts assigned by residue class.

    The pairs u < v <= n in different classes are the first t_r(n) pairs
    of the r-partite colex order, as rows 1..n of its walk, so the graph
    is that prefix.  With no edges (r = 1 or n <= 1) the prefix has no
    vertices and is padded with n isolated ones.
    """
    g = _colex_prefix(r, turan_number(r, n))  # turan_number validates r and n
    return _trusted_graph(n, g.adjacency + (0,) * (n - g.vertex_count))


def turan_number(r: int, n: int) -> int:
    """Edge count of the balanced complete r-partite graph on n vertices.

    n^2 minus the squared part sizes, halved: r - n % r parts of n // r
    and n % r parts of n // r + 1.  Equal to _e_balanced(2, r, n).
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    if n < 0:
        raise ValueError("n must be nonnegative")
    a, big = divmod(n, r)
    return (n * n - r * a * a - big * (2 * a + 1)) // 2


def _e_balanced(k: int, size: int, total: int) -> int:
    """e_k of the balanced split of total into size parts.

    The parts are total // size, size - total % size times, and that plus
    one, total % size times; choosing j of the larger parts and k - j of the
    smaller ones gives e_k in k + 1 terms, whatever size is.  Zykov's count
    is e_t of the parts of T_r(n), and the colex Turan graph adds e_{s-1} of
    its apex's neighbours split over the other r - 1 classes.
    """
    a, big = divmod(total, size)
    return sum(
        comb(big, j) * comb(size - big, k - j) * (a + 1) ** j * a ** (k - j)
        for j in range(k + 1)
    )


def _turan_order(r: int, m: int) -> int:
    """Least n with turan_number(r, n) >= m, for r >= 2 and m >= 0.

    turan_number(r, n) <= (1 - 1/r) n^2 / 2, so the answer is at least the
    isqrt below, which falls short of it by a step or two at most.
    """
    n = isqrt(2 * r * m // (r - 1))
    while turan_number(r, n) < m:
        n += 1
    return n


def complete_graph(n: int) -> Graph:
    return turan_graph(max(n, 1), n)


def _colex_prefix(r: int, m: int) -> Graph:
    """Graph of the first m pairs u < v, in colex order, whose ends differ mod r.

    Colex order lists the pairs by v, then by u, so it is a walk over
    rows: row v is every u < v outside v's residue class, which holds
    (v - 1) - (v - 1) // r of them.  Whole rows are taken while more
    than a row's worth of pairs is left, then the lowest `left` bits of
    the next row, that of vertex n.  Every u < n is then joined to all of
    1..n-1 outside its class, and to n if it is in the last row.  With
    r >= n every class is a single vertex and no pair is filtered.
    O(n) mask operations.  The adjacency is symmetric by construction
    (u and v are in different classes or not, and each last-row edge is
    set on both sides), so the graph skips Graph's re-check.
    """
    n, left = 0, m
    while left:
        n += 1
        row = (n - 1) - (n - 1) // r
        if left <= row:
            break
        left -= row
    if n == 0:
        return _trusted_graph(0, (0,))
    classes = _residue_classes(r, n)
    below = _vertex_mask(n - 1)
    last = sum(1 << u for _, u in zip(range(left), _bits(below & ~classes[(n - 1) % r])))
    adj = (
        0,
        *((below & ~classes[(u - 1) % r]) | (last >> u & 1) << n for u in range(1, n)),
        last,
    )
    return _trusted_graph(n, adj)


def colex_graph(m: int) -> Graph:
    """Graph whose edges are the first m 2-sets in colex order.

    The r-partite walk of colex_turan_graph with more classes than
    vertices, so nothing is filtered: O(n) mask operations, n the order
    of the graph, about sqrt(2m).
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    return _colex_prefix(m + 1, m)


def colex_turan_graph(r: int, m: int) -> Graph:
    """Graph whose edges are the first m 2-sets in r-partite colex order.

    Built a vertex row at a time in O(n) mask operations, n the order of
    CT_r(m), about sqrt(2rm / (r - 1)).
    """
    if r < 2:
        raise ValueError("r must be at least 2")
    if m < 0:
        raise ValueError("m must be nonnegative")
    return _colex_prefix(r, m)


def blowup(g: Graph, t: int) -> Graph:
    """t-fold blowup: each vertex becomes an independent t-set, each edge a t-by-t join.

    Copy j of vertex v gets label (v - 1) * t + j, so outputs are
    reproducible bit for bit.
    """
    if t < 1:
        raise ValueError("t must be at least 1")
    n = g.vertex_count * t
    adj = [0] * (n + 1)
    for v in g.vertices():
        vmask = 0
        for u in _bits(g.adjacency[v]):
            lo = (u - 1) * t + 1
            vmask |= ((1 << t) - 1) << lo
        for j in range(1, t + 1):
            adj[(v - 1) * t + j] = vmask
    return Graph(n, tuple(adj))


@dataclass(frozen=True)
class GadgetParams:
    """Structural parameters of the critical-edge gadget for (r, m).

    host_order is the least n with m <= t_r(n); the gadget is the
    balanced graph on n - 1 vertices plus an apex joined to attach_count
    of them.  attach_count is reported so callers can compare it against
    the minimum degree of whatever forbidden graph they have in mind.
    """

    r: int
    m: int
    host_order: int
    attach_count: int


def critical_edge_gadget_params(r: int, m: int) -> GadgetParams:
    if r < 2:
        raise ValueError("r must be at least 2")
    if m < 1:
        raise ValueError("no attachment is possible for m < 1")
    n = _turan_order(r, m)
    # t_r(n - 1) < m <= t_r(n), so 1 <= q <= (n - 1) - (n - 1) // r
    return GadgetParams(r, m, n, m - turan_number(r, n - 1))


def critical_edge_gadget(r: int, m: int) -> Graph:
    """Balanced r-partite graph plus an apex vertex, m edges in total.

    The host T_r(n - 1) is the colex row walk's prefix (turan_graph); the
    apex v* = n is joined to the attach_count lowest-labeled vertices,
    which under the residue labeling distributes its neighbors
    round-robin across the r parts, as evenly as possible.  The apex bit
    is set in those rows and they form the apex's row, so the adjacency
    is symmetric by construction.
    """
    params = critical_edge_gadget_params(r, m)
    n, q = params.host_order, params.attach_count
    base = turan_graph(r, n - 1).adjacency
    adj = (0, *(a | 1 << n for a in base[1 : q + 1]), *base[q + 1 :], _vertex_mask(q))
    return _trusted_graph(n, adj)
