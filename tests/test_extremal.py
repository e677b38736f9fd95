from fractions import Fraction
from math import comb

import pytest

from mexkit import extremal
from mexkit.constructions import colex_turan_graph, turan_graph, turan_number
from mexkit.extremal import (
    ExactSquareScalar,
    beta,
    c_rs,
    closed_form_check,
    lovasz_kk_bound,
    mex_clique,
    mex_profile,
    verify_constant_identities,
    zykov_ex,
)
from mexkit.graphs import Graph, count_cliques
from mexkit.oracle import enumerate_graphs


class TestConstants:
    def test_beta_examples(self):
        assert beta(2).square == 1
        assert beta(3).square == Fraction(4, 3)
        assert beta(4).square == Fraction(3, 2)

    def test_c_examples(self):
        assert c_rs(3, 3).square == Fraction(1, 27)
        assert c_rs(2, 2).square == 1
        assert c_rs(3, 5).square == 0
        # zero without computing C(3, 2)^s
        assert c_rs(3, 10**12).square == 0

    def test_float_tracks_square(self):
        for r in range(2, 13):
            for s in range(2, r + 1):
                for scalar in (beta(r), c_rs(r, s)):
                    if scalar.square == 0:
                        assert scalar.float_value == 0.0
                    else:
                        rel = abs(
                            Fraction(scalar.float_value) ** 2 - scalar.square
                        ) / scalar.square
                        assert rel < Fraction(1, 10**12)

    def test_negative_square_rejected(self):
        with pytest.raises(ValueError):
            ExactSquareScalar(Fraction(-1, 2))


class TestConstantIdentities:
    def test_examples(self):
        assert verify_constant_identities(3, 3)
        assert verify_constant_identities(2, 3)
        assert verify_constant_identities(12, 5)

    def test_full_range(self):
        for r in range(2, 13):
            for s in range(3, 14):
                assert verify_constant_identities(r, s), (r, s)

    def test_validation(self):
        with pytest.raises(ValueError):
            verify_constant_identities(1, 3)
        with pytest.raises(ValueError):
            verify_constant_identities(3, 2)


class TestZykovEx:
    def test_examples(self):
        assert zykov_ex(6, 3, 3) == 8
        assert zykov_ex(4, 2, 2) == 4
        assert zykov_ex(5, 3, 3) == 4

    def test_parameter_order_enforced(self):
        with pytest.raises(ValueError):
            zykov_ex(3, 3, 4)
        with pytest.raises(ValueError):
            zykov_ex(6, 1, 3)

    def test_matches_turan_graph_count(self):
        # counting K_t on T_r(n) walks its (t-1)-cliques, about (n/r)^(t-1)
        # binom(r, t-1) of them, so the largest t stop at a smaller n
        for r in range(2, 7):
            for t in range(2, r + 1):
                for n in range(r, 60 if t < 5 else 40):
                    assert zykov_ex(n, t, r) == count_cliques(turan_graph(r, n), t), (n, t, r)


class TestMexClique:
    def test_examples(self):
        assert mex_clique(12, 3, 3) == 8
        assert mex_clique(25, 3, 3) == 22
        assert mex_clique(1, 3, 3) == 0

    def test_sparse_regime_rejected(self):
        with pytest.raises(ValueError):
            mex_clique(10, 4, 3)

    def test_nondecreasing_in_m(self):
        for r, s in ((2, 2), (3, 3), (4, 3)):
            values = [mex_clique(m, s, r) for m in range(40)]
            assert values == sorted(values)

    def test_matches_colex_turan_count(self):
        # every m < 400 passes each boundary t_r(n) and t_r(n) + 1 on the way
        for r in range(2, 7):
            for m in range(400):
                g = colex_turan_graph(r, m)
                for s in range(2, r + 1):
                    assert mex_clique(m, s, r) == count_cliques(g, s), (m, s, r)

    def test_huge_balanced_points(self):
        for r in range(2, 9):
            n = r * 10**6
            for s in range(2, r + 1):
                assert mex_clique(turan_number(r, n), s, r) == comb(r, s) * (n // r) ** s

    def test_huge_m_within_clique_density_bound(self):
        for m in (10**18, 10**18 + 1, 3 * 10**17 + 7):
            for r in range(2, 9):
                for s in range(2, r + 1):
                    value = mex_clique(m, s, r)
                    assert value > 0
                    assert value * value <= c_rs(r, s).square * m**s, (m, s, r)


class TestMexProfile:
    def test_examples(self):
        assert mex_profile(3, 3, 3) == [0, 0, 1]
        assert mex_profile(3, 3, 7)[6] == 3
        assert mex_profile(3, 3, 0) == []

    def test_matches_direct_recomputation(self):
        for r in range(2, 7):
            for s in range(2, r + 1):
                profile = mex_profile(r, s, 500)
                assert profile == [mex_clique(m, s, r) for m in range(1, 501)], (r, s)

    def test_shared_apex_terms_to_5000(self):
        for r, s in ((2, 2), (3, 3), (6, 4)):
            profile = mex_profile(r, s, 5000)
            assert profile == [mex_clique(m, s, r) for m in range(1, 5001)], (r, s)


class TestClosedForm:
    def test_examples(self):
        assert closed_form_check(3, 3, 6)
        assert closed_form_check(2, 2, 4)
        assert closed_form_check(4, 3, 8)

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            closed_form_check(3, 3, 7)

    def test_lattice_grid(self):
        for r in range(2, 9):
            for s in range(2, r + 1):
                for n in range(r, 161, r):
                    assert closed_form_check(r, s, n), (r, s, n)

    @pytest.mark.parametrize("change", ["minus an edge", "plus an edge in a part", "2-switch"])
    def test_count_reads_the_built_graph(self, monkeypatch, change):
        # T_r(n) with one edge fewer or one more, or with x-y and z-w traded
        # for x-z and y-w (x, z in one part of at least 3, y, w in another):
        # the 2-switch keeps every degree, so only the clique count on the
        # built adjacency can tell it from T_r(n)
        for r, s, n in [(3, 3, 9), (4, 3, 12), (5, 4, 15), (6, 5, 18), (8, 6, 24)]:
            x, y, z, w = 1, 2, 1 + r, 2 + r
            flips = {
                "minus an edge": [(x, y)],
                "plus an edge in a part": [(x, z)],
                "2-switch": [(x, y), (z, w), (x, z), (y, w)],
            }[change]
            adj = list(turan_graph(r, n).adjacency)
            for u, v in flips:
                adj[u] ^= 1 << v
                adj[v] ^= 1 << u
            perturbed = Graph(n, tuple(adj))
            if change == "2-switch":
                assert set(map(int.bit_count, adj)) == {0, n - n // r}
                assert count_cliques(perturbed, s) != count_cliques(turan_graph(r, n), s)
            monkeypatch.setattr(extremal, "colex_turan_graph", lambda r, m: perturbed)
            assert not closed_form_check(r, s, n), (r, s, n)

    def test_irregular_graph_fails(self, monkeypatch):
        # T_3(6) plus a pendant edge keeps its 8 triangles but is not 4-regular
        def with_pendant(r, m):
            g = colex_turan_graph(r, m)
            adj = (*g.adjacency[:-1], g.adjacency[-1] | 1 << 7, 1 << 6)
            return Graph(7, adj)

        monkeypatch.setattr(extremal, "colex_turan_graph", with_pendant)
        assert count_cliques(with_pendant(3, 12), 3) == 8
        assert not closed_form_check(3, 3, 6)


class TestLovaszBound:
    def test_tight_examples(self):
        assert lovasz_kk_bound(3, 3) == pytest.approx(1.0, abs=1e-9)
        assert lovasz_kk_bound(6, 3) == pytest.approx(4.0, abs=1e-9)
        assert lovasz_kk_bound(10, 3) == pytest.approx(10.0, abs=1e-9)

    def test_fractional_example(self):
        assert lovasz_kk_bound(4, 3) == pytest.approx(1.8297084, abs=1e-6)

    def test_clamped_below_threshold(self):
        assert lovasz_kk_bound(0, 3) == 0.0
        assert lovasz_kk_bound(1, 4) == 0.0

    def test_bounds_every_small_graph(self):
        for m in range(1, 7):
            b3 = lovasz_kk_bound(m, 3)
            b4 = lovasz_kk_bound(m, 4)
            for g in enumerate_graphs(m):
                assert count_cliques(g, 3) <= b3 + 1e-6
                assert count_cliques(g, 4) <= b4 + 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            lovasz_kk_bound(-1, 3)
        with pytest.raises(ValueError):
            lovasz_kk_bound(5, 2)
