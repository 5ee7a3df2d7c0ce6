"""Change matching: the F(T,R)/G(T,R) pairing underlying z1 and z2."""

import pytest

from repro.core.matching import _greedy_pairs


def _index_pairs(pairs):
    return [(i, j) for i, j, _ in pairs]


class TestBasicMatching:
    def test_perfect_alignment(self):
        t = [2.0, 6.0, 10.0]
        r = [2.4, 6.4, 10.4]
        pairs = _greedy_pairs(t, r, tolerance_s=1.0)
        assert _index_pairs(pairs) == [(0, 0), (1, 1), (2, 2)]
        assert all(difference == pytest.approx(0.4) for _, _, difference in pairs)

    def test_out_of_tolerance_not_matched(self):
        assert _greedy_pairs([2.0], [3.5], tolerance_s=1.0) == []

    def test_tolerance_is_inclusive(self):
        assert len(_greedy_pairs([2.0], [3.0], tolerance_s=1.0)) == 1

    def test_empty_inputs(self):
        assert _greedy_pairs([], [1.0], 1.0) == []
        assert _greedy_pairs([1.0], [], 1.0) == []


class TestOneToOne:
    def test_each_change_used_once(self):
        # Two received changes near one transmitted change.
        pairs = _greedy_pairs([5.0], [4.8, 5.3], tolerance_s=1.0)
        assert _index_pairs(pairs) == [(0, 0)]  # the closer one wins

    def test_greedy_prefers_globally_closest(self):
        pairs = _greedy_pairs([5.0, 6.0], [5.9], tolerance_s=1.5)
        assert _index_pairs(pairs) == [(1, 0)]

    def test_crossing_assignments_resolved(self):
        pairs = _greedy_pairs([1.0, 2.0], [2.1, 1.2], tolerance_s=1.0)
        assert set(_index_pairs(pairs)) == {(0, 1), (1, 0)}

    def test_match_count_bounded_by_smaller_side(self):
        t = [2.5 * i for i in range(5)]
        r = [1.0 * i for i in range(11)]
        assert len(_greedy_pairs(t, r, tolerance_s=2.0)) == 5


class TestOrderingAndValidation:
    def test_matches_sorted_by_transmitted_time(self):
        t = [8.0, 2.0, 5.0]
        r = [2.1, 5.1, 8.1]
        times = [t[i] for i, _, _ in _greedy_pairs(t, r, tolerance_s=1.0)]
        assert times == sorted(times)
