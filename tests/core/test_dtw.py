"""Dynamic time warping distance (feature z4), one pair at a time."""

import numpy as np
import pytest

from repro.core.batch import dtw_distance_batch


def dtw_distance(x, y):
    """The batch kernel on a batch of one pair."""
    return float(dtw_distance_batch([x], [y])[0])


class TestExactValues:
    def test_identical_sequences_zero(self):
        x = np.array([1.0, 2.0, 3.0, 2.0])
        assert dtw_distance(x, x) == pytest.approx(0.0)

    def test_constant_offset(self):
        x = np.zeros(5)
        y = np.ones(5)
        # No warping helps; every aligned pair costs 1.
        assert dtw_distance(x, y) == pytest.approx(5.0)

    def test_single_elements(self):
        assert dtw_distance(np.array([3.0]), np.array([7.0])) == pytest.approx(4.0)

    def test_known_small_case(self):
        x = np.array([0.0, 1.0, 2.0])
        y = np.array([0.0, 2.0])
        # Optimal path: (0,0)->(1,1)->(2,1): 0 + 1 + 0 = 1.
        assert dtw_distance(x, y) == pytest.approx(1.0)

    def test_time_shift_cheaper_than_euclidean(self):
        t = np.linspace(0, 2 * np.pi, 50)
        x = np.sin(t)
        y = np.roll(np.sin(t), 3)
        euclidean = np.abs(x - y).sum()
        assert dtw_distance(x, y) < euclidean


class TestSymmetryAndScale:
    def test_symmetric(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=20)
        y = rng.normal(size=25)
        assert dtw_distance(x, y) == pytest.approx(dtw_distance(y, x))

    def test_scales_with_amplitude(self):
        x = np.zeros(10)
        y = np.sin(np.linspace(0, np.pi, 10))
        assert dtw_distance(x, 2 * y) == pytest.approx(2 * dtw_distance(x, y))


class TestValidation:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            dtw_distance(np.array([]), np.array([1.0]))

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            dtw_distance(np.zeros((2, 2)), np.zeros(4))
