"""Property-based tests of the DTW distance, one pair at a time."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ..core.test_dtw import dtw_distance

seq = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(min_value=1, max_value=40),
    elements=st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
)


class TestDtwAxioms:
    @given(seq)
    @settings(max_examples=50, deadline=None)
    def test_identity(self, x):
        assert dtw_distance(x, x) == pytest.approx(0.0)

    @given(seq, seq)
    @settings(max_examples=50, deadline=None)
    def test_symmetry(self, x, y):
        assert dtw_distance(x, y) == dtw_distance(y, x)

    @given(seq, seq)
    @settings(max_examples=50, deadline=None)
    def test_non_negative(self, x, y):
        assert dtw_distance(x, y) >= 0.0

    @given(seq, seq)
    @settings(max_examples=50, deadline=None)
    def test_bounded_by_worst_path(self, x, y):
        # Any monotone path has at most n + m - 1 steps; each step costs
        # at most the maximum pointwise difference.
        bound = (x.size + y.size) * (
            max(x.max(), y.max()) - min(x.min(), y.min())
        )
        assert dtw_distance(x, y) <= bound + 1e-9

    @given(seq, seq, st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_translation_invariance(self, x, y, offset):
        # Shifting both sequences by the same constant changes nothing.
        a = dtw_distance(x, y)
        b = dtw_distance(x + offset, y + offset)
        assert np.isclose(a, b, rtol=1e-9, atol=1e-7)

    @given(seq)
    @settings(max_examples=50, deadline=None)
    def test_repeated_samples_free(self, x):
        # DTW can match a repeated sample to its original at zero cost.
        stretched = np.repeat(x, 2)
        assert dtw_distance(x, stretched) == pytest.approx(0.0)
