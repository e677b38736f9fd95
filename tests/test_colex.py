import random
from itertools import combinations, count

import pytest

from mexkit.colex import (
    KSetFamily,
    colex_compare,
    colex_initial_segment,
    colex_key,
    colex_rank,
    colex_unrank,
    ffk_min_shadow,
    kk_min_shadow,
    rpartite_colex_initial_segment,
    rpartite_valid,
    shadow,
)

from oracles import naive_r_colorable


class TestCompare:
    def test_examples(self):
        assert colex_compare((1, 3), (2, 3)) == -1
        assert colex_compare((2, 3), (1, 4)) == -1
        assert colex_compare((1, 3), (1, 3)) == 0
        assert colex_compare((1, 4), (2, 3)) == 1

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="size mismatch"):
            colex_compare((1, 2), (1, 2, 3))

    def test_total_order_on_small_sets(self):
        sets = list(combinations(range(1, 7), 3))
        by_key = sorted(sets, key=colex_key)
        for a, b in combinations(by_key, 2):
            assert colex_compare(a, b) == -1

    def test_invalid_kset(self):
        with pytest.raises(ValueError):
            colex_compare((2, 1), (1, 2))
        with pytest.raises(ValueError):
            colex_compare((0, 1), (1, 2))


class TestRankUnrank:
    def test_examples(self):
        assert colex_rank((1, 2)) == 0
        assert colex_rank((2, 4)) == 4
        assert colex_unrank(4, 2) == (2, 4)

    def test_first_five_2sets(self):
        want = [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4)]
        assert [colex_unrank(i, 2) for i in range(5)] == want

    def test_rank_of_unrank_is_identity(self):
        for k in range(1, 6):
            for rank in range(10_001):
                assert colex_rank(colex_unrank(rank, k)) == rank

    def test_unrank_of_rank_is_identity(self):
        rng = random.Random(7)
        for _ in range(300):
            k = rng.randint(1, 6)
            elems = tuple(sorted(rng.sample(range(1, 40), k)))
            assert colex_unrank(colex_rank(elems), k) == elems

    def test_validation(self):
        with pytest.raises(ValueError):
            colex_unrank(-1, 2)
        with pytest.raises(ValueError):
            colex_unrank(0, 0)


class TestShadow:
    def test_examples(self):
        single = KSetFamily.of(3, [(1, 2, 3)])
        assert len(shadow(single, 2)) == 3
        pair = KSetFamily.of(3, [(1, 2, 3), (1, 2, 4)])
        assert set(shadow(pair, 2)) == {(1, 2), (1, 3), (2, 3), (1, 4), (2, 4)}

    def test_level_validation(self):
        fam = KSetFamily.of(3, [(1, 2, 3)])
        with pytest.raises(ValueError):
            shadow(fam, 3)
        with pytest.raises(ValueError):
            shadow(fam, 0)

    def test_monotone_in_family(self):
        sets = list(combinations(range(1, 6), 3))
        for size in range(1, len(sets)):
            small = KSetFamily.of(3, sets[:size])
            large = KSetFamily.of(3, sets[: size + 1])
            assert set(shadow(small, 2)) <= set(shadow(large, 2))


class TestInitialSegments:
    def test_kk_examples(self):
        assert kk_min_shadow(3, 10, 2) == 10
        assert kk_min_shadow(3, 2, 2) == 5
        assert kk_min_shadow(2, 3, 1) == 3
        assert kk_min_shadow(3, 0, 2) == 0

    def test_shadow_of_segment_is_segment(self):
        for k, p in ((3, 2), (3, 1), (4, 3), (4, 2)):
            for size in range(41):
                seg = colex_initial_segment(k, size)
                shad = shadow(seg, p) if size else KSetFamily.of(p, [])
                assert shad == colex_initial_segment(p, len(shad))

    def test_rpartite_shadow_of_segment_is_segment(self):
        for r, k, p in ((3, 3, 2), (3, 2, 1), (4, 3, 2)):
            for size in range(31):
                seg = rpartite_colex_initial_segment(r, k, size)
                if size == 0:
                    continue
                shad = shadow(seg, p)
                assert shad == rpartite_colex_initial_segment(r, p, len(shad))

    def test_exhaustive_families_respect_kk_bound(self):
        sets = list(combinations(range(1, 7), 3))
        for size in range(1, 5):
            for fam_sets in combinations(sets, size):
                fam = KSetFamily.of(3, fam_sets)
                assert len(shadow(fam, 2)) >= kk_min_shadow(3, size, 2)

    def test_exhaustive_colorable_families_respect_ffk_bound(self):
        sets = list(combinations(range(1, 7), 3))
        for size in range(1, 5):
            bound = ffk_min_shadow(3, 3, size, 2)
            for fam_sets in combinations(sets, size):
                fam = KSetFamily.of(3, fam_sets)
                if naive_r_colorable(fam, 3, 6):
                    assert len(shadow(fam, 2)) >= bound


# (function, arguments, message) for every ValueError the segment builders
# and the shadow bounds raise; the order of the checks decides which message
# a call with several faults gets
SEGMENT_ERRORS = [
    (colex_initial_segment, (3, -1), "size must be nonnegative"),
    (colex_initial_segment, (-5, -1), "size must be nonnegative"),
    (colex_initial_segment, (0, 1), "k must be at least 1"),
    (colex_initial_segment, (-5, 1), "k must be at least 1"),
    (rpartite_colex_initial_segment, (3, 2, -1), "size must be nonnegative"),
    (rpartite_colex_initial_segment, (1, 5, -1), "size must be nonnegative"),
    (rpartite_colex_initial_segment, (1, 2, 0), "r must be at least 2"),
    (rpartite_colex_initial_segment, (1, -5, 1), "r must be at least 2"),
    (rpartite_colex_initial_segment, (3, 4, 0), "no valid 4-sets exist for r=3"),
    (rpartite_colex_initial_segment, (3, 4, 1), "no valid 4-sets exist for r=3"),
    (rpartite_colex_initial_segment, (3, 0, 1), "k must be at least 1"),
    (rpartite_colex_initial_segment, (3, -5, 1), "k must be at least 1"),
    (kk_min_shadow, (3, 4, 3), "shadow level must satisfy 1 <= p < 3, got 3"),
    (kk_min_shadow, (3, 4, 0), "shadow level must satisfy 1 <= p < 3, got 0"),
    (kk_min_shadow, (0, 4, 1), "shadow level must satisfy 1 <= p < 0, got 1"),
    (kk_min_shadow, (3, -1, 2), "size must be nonnegative"),
    (ffk_min_shadow, (3, 3, 4, 3), "shadow level must satisfy 1 <= p < 3, got 3"),
    (ffk_min_shadow, (1, 3, -1, 0), "shadow level must satisfy 1 <= p < 3, got 0"),
    (ffk_min_shadow, (3, 3, -1, 2), "size must be nonnegative"),
    (ffk_min_shadow, (1, 3, 1, 2), "r must be at least 2"),
    (ffk_min_shadow, (2, 3, 1, 2), "no valid 3-sets exist for r=2"),
]


class TestSegmentErrors:
    @pytest.mark.parametrize(
        "func, args, message",
        SEGMENT_ERRORS,
        ids=[f"{f.__name__}{args}" for f, args, _ in SEGMENT_ERRORS],
    )
    def test_error_type_and_message(self, func, args, message):
        with pytest.raises(ValueError) as info:
            func(*args)
        assert type(info.value) is ValueError
        assert str(info.value) == message

    def test_empty_requests_are_not_errors(self):
        # size 0 asks for nothing, so k <= 0 is not checked, and a zero-size
        # shadow bound is 0 before r is looked at
        for k in (0, -5):
            assert colex_initial_segment(k, 0) == KSetFamily(k, ())
            assert rpartite_colex_initial_segment(3, k, 0) == KSetFamily(k, ())
        assert ffk_min_shadow(1, 3, 0, 2) == 0
        assert ffk_min_shadow(2, 3, 0, 2) == 0


class TestRPartite:
    def test_validity_examples(self):
        assert not rpartite_valid((3, 9), 3)
        assert rpartite_valid((1, 2, 3), 3)
        assert not rpartite_valid((1, 4), 3)

    def test_segment_example(self):
        seg = rpartite_colex_initial_segment(3, 2, 4)
        assert list(seg) == [(1, 2), (1, 3), (2, 3), (2, 4)]

    def test_ffk_single_set(self):
        from math import comb

        for r, k, p in ((3, 3, 2), (4, 3, 1), (5, 4, 2)):
            assert ffk_min_shadow(r, k, 1, p) == comb(k, p)

    def test_k_above_r_rejected(self):
        with pytest.raises(ValueError):
            rpartite_colex_initial_segment(3, 4, 1)

    def test_segment_matches_direct_filter(self):
        sizes = (0, 1, 2, 5, 12, 20, 57, 128, 300)
        for r in range(2, 7):
            for k in range(1, r + 1):
                # grow the ground set until it holds sizes[-1] valid sets; the
                # sets inside [n] are a colex prefix, so no window clips
                for n in count(k):
                    all_valid = sorted(
                        (s for s in combinations(range(1, n + 1), k) if rpartite_valid(s, r)),
                        key=colex_key,
                    )
                    if len(all_valid) >= sizes[-1]:
                        break
                for size in sizes:
                    seg = list(rpartite_colex_initial_segment(r, k, size))
                    assert seg == all_valid[:size], (r, k, size)
        for k in range(1, 7):
            for size in sizes:
                seg = list(colex_initial_segment(k, size))
                assert seg == [colex_unrank(i, k) for i in range(size)], (k, size)


class TestFamilyType:
    def test_canonical_sorted_storage(self):
        fam = KSetFamily.of(2, [(2, 3), (1, 2), (1, 4)])
        assert fam.sets == ((1, 2), (2, 3), (1, 4))

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            KSetFamily.of(2, [(1, 2), (1, 2)])

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            KSetFamily.of(2, [(1, 2, 3)])
