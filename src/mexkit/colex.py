"""Colex order on k-sets: comparison, rank/unrank, segments, and shadows.

A k-set is a strictly increasing tuple of positive integers.  The colex
order puts A before B iff the largest element of their symmetric
difference lies in B; on sorted tuples that is exactly comparison of the
reversed tuples.  The r-partite variant restricts the same order to sets
whose elements lie in pairwise distinct residue classes mod r.

Initial segments are walked, not unranked: `_rpartite_walk` lists the
valid k-sets in order, by largest element and then the rest, and never
builds an invalid one.  Plain colex is the same walk with more classes
than elements, since the first `size` k-sets lie in [k + size - 1].
`colex_unrank` and `rpartite_valid` are the per-set definitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, count, islice
from math import comb
from typing import Iterable, Iterator

__all__ = [
    "KSetFamily",
    "colex_compare",
    "colex_initial_segment",
    "colex_key",
    "colex_rank",
    "colex_unrank",
    "ffk_min_shadow",
    "kk_min_shadow",
    "rpartite_colex_initial_segment",
    "rpartite_valid",
    "shadow",
]

KSet = tuple[int, ...]


def _validate_kset(a: Iterable[int]) -> KSet:
    t = tuple(a)
    if not t:
        raise ValueError("k-sets must be nonempty")
    prev = 0
    for x in t:
        if not isinstance(x, int) or x <= prev:
            raise ValueError(f"not a strictly increasing positive tuple: {t!r}")
        prev = x
    return t


def colex_key(a: Iterable[int]) -> tuple[int, ...]:
    """Sort key realizing colex order on equal-size sets."""
    return tuple(reversed(tuple(a)))


def colex_compare(a: Iterable[int], b: Iterable[int]) -> int:
    """-1, 0, or 1 as A precedes, equals, or follows B in colex order."""
    ta, tb = _validate_kset(a), _validate_kset(b)
    if len(ta) != len(tb):
        raise ValueError(f"size mismatch: {len(ta)} vs {len(tb)}")
    ka, kb = colex_key(ta), colex_key(tb)
    return (ka > kb) - (ka < kb)


def colex_rank(a: Iterable[int]) -> int:
    """0-based position of a k-set in the colex order on all k-sets."""
    t = _validate_kset(a)
    return sum(comb(e - 1, i) for i, e in enumerate(t, start=1))


def colex_unrank(rank: int, k: int) -> KSet:
    """The k-set at the given 0-based colex rank; inverse of colex_rank."""
    if rank < 0:
        raise ValueError("rank must be nonnegative")
    if k < 1:
        raise ValueError("k must be at least 1")
    out = []
    rem = rank
    for i in range(k, 0, -1):
        # largest c with comb(c, i) <= rem, by doubling then bisection
        lo, hi = i - 1, i
        while comb(hi, i) <= rem:
            lo, hi = hi, hi * 2
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if comb(mid, i) <= rem:
                lo = mid
            else:
                hi = mid
        out.append(lo + 1)
        rem -= comb(lo, i)
    out.reverse()
    return tuple(out)


@dataclass(frozen=True)
class KSetFamily:
    """A family of distinct k-sets, stored sorted by colex for canonical equality."""

    k: int
    sets: tuple[KSet, ...]

    @classmethod
    def of(cls, k: int, sets: Iterable[Iterable[int]]) -> "KSetFamily":
        if k < 1:
            raise ValueError("k must be at least 1")
        pool = set()
        for s in sets:
            t = _validate_kset(s)
            if len(t) != k:
                raise ValueError(f"set {t!r} has size {len(t)}, expected {k}")
            if t in pool:
                raise ValueError(f"duplicate set {t!r}")
            pool.add(t)
        return cls(k, tuple(sorted(pool, key=colex_key)))

    def __len__(self) -> int:
        return len(self.sets)

    def __iter__(self) -> Iterator[KSet]:
        return iter(self.sets)

    def __contains__(self, item: object) -> bool:
        return item in self.sets


def shadow(family: KSetFamily, p: int) -> KSetFamily:
    """All p-subsets contained in some member of the family."""
    if not 1 <= p < family.k:
        raise ValueError(f"shadow level must satisfy 1 <= p < {family.k}, got {p}")
    out = {sub for s in family for sub in combinations(s, p)}
    return KSetFamily(p, tuple(sorted(out, key=colex_key)))


def _rpartite_walk(r: int, k: int, tops: Iterable[int], used: int = 0) -> Iterator[KSet]:
    """The k-sets of the r-partite colex order whose largest element is in `tops`.

    `tops` ascends, and no element may lie in a residue class of the
    `used` bitmask.  Colex lists the sets by largest element t, then the
    rest in colex order, so the sets topped by t are t appended to the
    (k - 1)-sets below t outside t's class, walked the same way.
    """
    for t in tops:
        cls = 1 << t % r
        if used & cls:
            continue
        if k == 1:
            yield (t,)
        else:
            for rest in _rpartite_walk(r, k - 1, range(k - 1, t), used | cls):
                yield rest + (t,)


def _initial_segment(r: int, k: int, size: int) -> KSetFamily:
    """The first `size` sets of the walk; an empty segment is valid for any k."""
    if size and k < 1:
        raise ValueError("k must be at least 1")
    return KSetFamily(k, tuple(islice(_rpartite_walk(r, k, count(k)), size)))


def colex_initial_segment(k: int, size: int) -> KSetFamily:
    """The first `size` k-sets in colex order."""
    if size < 0:
        raise ValueError("size must be nonnegative")
    # the segment lies in [k + size - 1], so every element is its own class
    return _initial_segment(k + size, k, size)


def kk_min_shadow(k: int, size: int, p: int) -> int:
    """Kruskal-Katona lower bound: the p-shadow size of the colex initial segment."""
    return ffk_min_shadow(k + size, k, size, p)


def rpartite_valid(a: Iterable[int], r: int) -> bool:
    """True iff all elements lie in pairwise distinct residue classes mod r."""
    if r < 2:
        raise ValueError("r must be at least 2")
    t = _validate_kset(a)
    return len({x % r for x in t}) == len(t)


def rpartite_colex_initial_segment(r: int, k: int, size: int) -> KSetFamily:
    """The first `size` k-sets of the r-partite colex order.

    That order is the colex order restricted to the sets with pairwise
    distinct residues mod r; the sets are walked in it directly.
    """
    if size < 0:
        raise ValueError("size must be nonnegative")
    if r < 2:
        raise ValueError("r must be at least 2")
    if k > r:
        raise ValueError(f"no valid {k}-sets exist for r={r}")
    return _initial_segment(r, k, size)


def ffk_min_shadow(r: int, k: int, size: int, p: int) -> int:
    """Colored Kruskal-Katona lower bound: p-shadow size of the r-partite colex segment."""
    if not 1 <= p < k:
        raise ValueError(f"shadow level must satisfy 1 <= p < {k}, got {p}")
    if size == 0:
        return 0
    return len(shadow(rpartite_colex_initial_segment(r, k, size), p))
