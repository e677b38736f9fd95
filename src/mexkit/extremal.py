"""Exact constants, closed-form clique counts, and extremal-number calculators.

The two constants of the theory (the regularity constant beta_r and the
clique-density constant c_{r,s}) are irrational in general but have
rational squares, so every identity about them is checked here after
squaring, in exact Fraction arithmetic, with zero tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, perm

from .constructions import _e_balanced, _turan_order, colex_turan_graph, turan_number
from .graphs import count_cliques

__all__ = [
    "ExactSquareScalar",
    "beta",
    "c_rs",
    "closed_form_check",
    "lovasz_kk_bound",
    "mex_clique",
    "mex_profile",
    "verify_constant_identities",
    "zykov_ex",
]


@dataclass(frozen=True)
class ExactSquareScalar:
    """A nonnegative real represented exactly by its rational square."""

    square: Fraction

    def __post_init__(self) -> None:
        if self.square < 0:
            raise ValueError("square must be nonnegative")

    @property
    def float_value(self) -> float:
        """Double approximation of the square root (relative error well under 1e-12)."""
        return math.sqrt(self.square)

    def __float__(self) -> float:
        return self.float_value


def beta(r: int) -> ExactSquareScalar:
    """Regularity constant of the extremal family: sqrt(2(r-1)/r)."""
    if r < 1:
        raise ValueError("r must be at least 1")
    return ExactSquareScalar(Fraction(2 * (r - 1), r))


def c_rs(r: int, s: int) -> ExactSquareScalar:
    """Clique-density constant binom(r,s) / binom(r,2)^(s/2); zero when s > r."""
    if r < 2 or s < 2:
        raise ValueError("need r >= 2 and s >= 2")
    if s > r:
        return ExactSquareScalar(Fraction(0))
    return ExactSquareScalar(Fraction(comb(r, s) ** 2, comb(r, 2) ** s))


def verify_constant_identities(r: int, s: int) -> bool:
    """Exact check of the identities tying beta_r to c_{r,s}.

    Verifies, in squared rational arithmetic:
      * binom(r-1,s-1)/(r-1)^(s-1) * beta_r^(s-2) = (s/2) * c_{r,s},
      * c_{r,s} = 2^(s/2)/s! * falling(r,s) / (r(r-1))^(s/2),
      * c_{r,s} <= 2^(s/2) (r-2) / (s! (r-1)).
    When r < s both sides of the first identity are zero.
    """
    if r < 2 or s < 3:
        raise ValueError("need r >= 2 and s >= 3")
    b2 = beta(r).square
    c2 = c_rs(r, s).square
    lhs = Fraction(comb(r - 1, s - 1) ** 2, (r - 1) ** (2 * (s - 1))) * b2 ** (s - 2)
    rhs = Fraction(s * s, 4) * c2
    falling_form = Fraction(2**s * perm(r, s) ** 2, factorial(s) ** 2 * (r * (r - 1)) ** s)
    upper = Fraction(2**s * (r - 2) ** 2, factorial(s) ** 2 * (r - 1) ** 2)
    return lhs == rhs and c2 == falling_form and c2 <= upper


def zykov_ex(n: int, t: int, r: int) -> int:
    """Maximum K_t count over graphs on n vertices with no K_{r+1}.

    Attained by the balanced complete r-partite graph T_r(n), whose K_t
    count is e_t of its part sizes, the elementary symmetric polynomial
    of the balanced split of n into r parts.
    """
    if not n >= r >= t >= 2:
        raise ValueError(f"need n >= r >= t >= 2, got n={n}, r={r}, t={t}")
    return _e_balanced(t, r, n)


def mex_clique(m: int, s: int, r: int) -> int:
    """Maximum K_s count over K_{r+1}-free graphs with m edges.

    Attained by the colex Turan graph CT_r(m).  With n the largest order
    such that t_r(n) = turan_number(r, n) <= m and q = m - t_r(n), CT_r(m)
    is T_r(n) plus vertex n + 1 joined to the first q vertices outside its
    residue class.  Those q neighbours fall round-robin into the other
    r - 1 classes: with full, extra = divmod(q, r - 1), extra classes hold
    full + 1 of them and the rest hold full.  The new s-cliques are the
    apex with an (s-1)-clique of its neighbours, so

        mex = e_s(part sizes of T_r(n)) + e_{s-1}(class counts of the q neighbours),

    exact, in O(s^2) integer operations at any m and r.  The sparse regime
    s > r is rejected: there the maximum is not governed by this
    construction.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    if not r >= s >= 2:
        raise ValueError(f"need r >= s >= 2, got r={r}, s={s}")
    n = _turan_order(r, m + 1) - 1
    q = m - turan_number(r, n)
    return _e_balanced(s, r, n) + _e_balanced(s - 1, r - 1, q)


def mex_profile(r: int, s: int, m_max: int) -> list[int]:
    """mex values for m = 1..m_max, walking the (n, q) of mex_clique's closed form.

    For each order n, e_s of the part sizes of T_r(n) is computed once; the
    edges t_r(n) + q for q = 1..t_r(n + 1) - t_r(n) join vertex n + 1 to its
    q-th neighbour, so mex = e_s(parts) + e_{s-1}(balanced split of q into
    r - 1 classes).  That apex term depends on q alone, so it is computed
    once per q and shared by every n.
    """
    if not r >= s >= 2:
        raise ValueError(f"need r >= s >= 2, got r={r}, s={s}")
    if m_max < 0:
        raise ValueError("m_max must be nonnegative")
    values: list[int] = []
    apex = [0]  # apex[q] = e_{s-1}(balanced split of q into r - 1 classes)
    n = 1
    while len(values) < m_max:
        base = _e_balanced(s, r, n)
        steps = min(turan_number(r, n + 1) - turan_number(r, n), m_max - len(values))
        apex.extend(_e_balanced(s - 1, r - 1, q) for q in range(len(apex), steps + 1))
        values.extend(base + a for a in apex[1 : steps + 1])
        n += 1
    return values


def closed_form_check(r: int, s: int, n: int) -> bool:
    """Exact lattice-point check of the closed form for the extremal count.

    For r | n and m the balanced edge count: verifies m = (n/r)^2 binom(r,2),
    that CT_r(m), which is then T_r(n), is (n - n/r)-regular on its
    non-isolated vertices, and k_s(CT_r(m))^2 = c_{r,s}^2 * m^s, all in
    exact arithmetic.  The clique count is taken on the built graph, not
    from mex_clique, so the check stays independent of the formula it
    confirms.
    """
    if not r >= s >= 2:
        raise ValueError(f"need r >= s >= 2, got r={r}, s={s}")
    if n % r != 0:
        raise ValueError(f"r={r} must divide n={n}")
    m = turan_number(r, n)
    if m != (n // r) ** 2 * comb(r, 2):
        return False
    ct = colex_turan_graph(r, m)
    if not set(map(int.bit_count, ct.adjacency)) <= {0, n - n // r}:
        return False
    kappa = count_cliques(ct, s)
    return Fraction(kappa * kappa) == c_rs(r, s).square * m**s


def lovasz_kk_bound(m: int, s: int) -> float:
    """Upper bound on the number of s-cliques of any graph with m edges.

    With x >= 0 the real solution of x(x-1)/2 = m, the bound is the
    generalized binomial x(x-1)...(x-s+1)/s!, clamped to 0 for x < s-1
    (where the product loses meaning).  Returned as a double with
    relative error below 1e-9; callers comparing against integer counts
    should allow a small slack in the graph's favor.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    if s < 3:
        raise ValueError("s must be at least 3")
    x = (1.0 + math.sqrt(1.0 + 8.0 * m)) / 2.0
    if x < s - 1:
        return 0.0
    prod = 1.0
    for i in range(s):
        prod *= x - i
    return prod / factorial(s)
