"""Shared graph corpora for the test suite.  Deterministic throughout."""

from __future__ import annotations

import random

from mexkit.constructions import (
    blowup,
    colex_graph,
    colex_turan_graph,
    complete_graph,
    critical_edge_gadget,
    turan_graph,
)
from mexkit.graphs import Graph, graph_from_edges


def named_small_graphs() -> list[Graph]:
    """Hand-picked small graphs covering the shapes the invariants care about."""
    return [
        graph_from_edges([(1, 2)]),
        graph_from_edges([(1, 2), (2, 3)]),
        graph_from_edges([(1, 2), (2, 3), (3, 4)]),
        graph_from_edges([(1, 2), (2, 3), (3, 4), (1, 4)]),
        graph_from_edges([(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]),
        graph_from_edges([(1, 2), (1, 3), (1, 4)]),
        graph_from_edges([(1, 2), (1, 3), (2, 3), (3, 4)]),
        graph_from_edges([(1, 2), (3, 4)]),
        graph_from_edges([], explicit_vertex_count=5),
        graph_from_edges([(1, 2), (1, 3), (2, 3), (1, 4), (2, 4)]),
        complete_graph(4),
        complete_graph(5),
        turan_graph(3, 7),
        colex_graph(7),
        colex_turan_graph(3, 13),
        blowup(complete_graph(3), 2),
        critical_edge_gadget(3, 24),
    ]


def labeling_hard_graphs() -> list[Graph]:
    """Graphs on which canonical labeling branches most.

    The symmetric star K_{1,10}, cycle C_11, K_{4,4}, K_{5,5,5}, cube Q_3,
    Petersen graph and spider with five legs of length 2; and the Frucht
    graph, 3-regular with no automorphism but the identity, where colour
    refinement splits nothing yet no two vertices are interchangeable.
    """
    cube = [(u + 1, (u | 1 << b) + 1) for u in range(8) for b in range(3) if not u >> b & 1]
    petersen = (
        [(i, i % 5 + 1) for i in range(1, 6)]
        + [(i, i + 5) for i in range(1, 6)]
        + [(i + 5, (i + 1) % 5 + 6) for i in range(1, 6)]
    )
    spider = [(1, leg) for leg in range(2, 7)] + [(leg, leg + 5) for leg in range(2, 7)]
    lcf = [-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2]
    frucht = [(i + 1, (i + 1) % 12 + 1) for i in range(12)]
    frucht += [(i + 1, (i + d) % 12 + 1) for i, d in enumerate(lcf) if i < (i + d) % 12]
    return [
        graph_from_edges([(1, leaf) for leaf in range(2, 12)]),
        graph_from_edges([(i, i % 11 + 1) for i in range(1, 12)]),
        turan_graph(2, 8),
        turan_graph(3, 15),
        graph_from_edges(cube),
        graph_from_edges(petersen),
        graph_from_edges(spider),
        graph_from_edges(frucht),
    ]


def small_corpus() -> list[Graph]:
    """Graphs with at most 8 vertices, for naive-agreement checks."""
    return [g for g in named_small_graphs() if g.vertex_count <= 8]


def _pseudo_random_k4_free(rng: random.Random, n: int, target_m: int) -> Graph:
    """Greedy random edge insertion, skipping any edge that would close a K_4."""
    pairs = [(u, v) for v in range(2, n + 1) for u in range(1, v)]
    rng.shuffle(pairs)
    adj = [0] * (n + 1)
    edges: list[tuple[int, int]] = []
    for u, v in pairs:
        if len(edges) == target_m:
            break
        common = adj[u] & adj[v]
        creates_k4 = False
        rest = common
        while rest:
            low = rest & -rest
            rest ^= low
            if adj[low.bit_length() - 1] & common:
                creates_k4 = True
                break
        if creates_k4:
            continue
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        edges.append((u, v))
    return graph_from_edges(edges, explicit_vertex_count=n)


def process_corpus() -> list[Graph]:
    """Exactly 200 graphs: constructions plus seeded pseudo-random K_4-free graphs."""
    out: list[Graph] = []
    for r in (2, 3, 4):
        for n in range(4, 10):
            out.append(turan_graph(r, n))
    for m in range(3, 13):
        out.append(colex_graph(m))
    for r in (2, 3, 4):
        for m in (6, 10, 14, 18, 22, 25):
            out.append(colex_turan_graph(r, m))
    for base, t in ((complete_graph(2), 2), (complete_graph(3), 2), (complete_graph(3), 3)):
        out.append(blowup(base, t))
    for m in range(22, 31):
        out.append(critical_edge_gadget(3, m))
    for m in range(19, 25):
        out.append(critical_edge_gadget(4, m))
    rng = random.Random(20260808)
    i = 0
    while len(out) < 200:
        n = 7 + i % 6
        target = 6 + (i * 5) % 20
        out.append(_pseudo_random_k4_free(rng, n, target))
        i += 1
    assert len(out) == 200
    return out
