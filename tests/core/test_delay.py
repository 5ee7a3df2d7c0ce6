"""Delay estimation and signal alignment (Sec. VI)."""

import numpy as np
import pytest

from repro.core.delay import _overlap, estimate_delay
from repro.core.matching import ChangeMatch, _greedy_pairs


def _matches(*diffs: float) -> list[ChangeMatch]:
    return [
        ChangeMatch(transmitted_index=i, received_index=i, time_difference_s=d)
        for i, d in enumerate(diffs)
    ]


class TestEstimateDelay:
    def test_mean_of_differences(self):
        assert estimate_delay(_matches(0.4, 0.6, 0.5)) == pytest.approx(0.5)

    def test_single_match(self):
        assert estimate_delay(_matches(0.3)) == pytest.approx(0.3)

    def test_no_matches_returns_none(self):
        assert estimate_delay([]) is None

    def test_recovers_planted_delay_through_matching(self):
        t_times = [2.0, 7.0, 12.0]
        r_times = [t + 0.42 for t in t_times]
        pairs = _greedy_pairs(t_times, r_times, tolerance_s=1.0)
        assert estimate_delay(_matches(*(d for _, _, d in pairs))) == pytest.approx(0.42)


class TestAlignSignals:
    def test_positive_delay_shifts_received_back(self):
        t = np.arange(10.0)
        r = np.concatenate([[0.0, 0.0], np.arange(8.0)])  # r lags by 2 samples
        t_a, r_a = _overlap(t, r, delay_s=0.2, sample_rate_hz=10.0)
        assert np.allclose(t_a, r_a)
        assert t_a.size == 8

    def test_zero_delay_is_identity(self):
        t = np.arange(5.0)
        r = np.arange(5.0) * 2
        t_a, r_a = _overlap(t, r, 0.0, 10.0)
        assert np.allclose(t_a, t)
        assert np.allclose(r_a, r)

    def test_negative_delay_shifts_other_way(self):
        t = np.concatenate([[0.0, 0.0], np.arange(8.0)])
        r = np.arange(10.0)
        t_a, r_a = _overlap(t, r, delay_s=-0.2, sample_rate_hz=10.0)
        assert np.allclose(t_a, r_a)

    def test_rounding_to_sample_grid(self):
        t = np.arange(10.0)
        r = np.arange(10.0)
        t_a, r_a = _overlap(t, r, delay_s=0.04, sample_rate_hz=10.0)
        assert t_a.size == 10  # 0.04 s rounds to 0 samples

    def test_excessive_delay_has_no_overlap(self):
        assert _overlap(np.arange(5.0), np.arange(5.0), 10.0, 10.0) is None
        assert _overlap(np.arange(5.0), np.arange(5.0), -10.0, 10.0) is None
