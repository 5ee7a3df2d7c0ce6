"""Property-based tests of the signal-processing stages, each stated on
its batch kernel over one ``(1, samples)`` row."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.batch import (
    moving_rms_batch,
    moving_variance_batch,
    reflect_convolve_batch,
    threshold_filter_batch,
)
from repro.core.preprocessing import design_lowpass

#: The paper's 1 Hz low-pass at 10 Hz sampling, and its window-10 average.
LOWPASS = design_lowpass(1.0, 10.0, 41)
AVERAGE = np.full(10, 1.0 / 10)

finite_signal = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.just(1), st.integers(min_value=5, max_value=200)),
    elements=st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
)


class TestShapeInvariants:
    @given(finite_signal)
    @settings(max_examples=40, deadline=None)
    def test_every_stage_preserves_length(self, x):
        assert reflect_convolve_batch(x, LOWPASS).shape == x.shape
        assert moving_variance_batch(x, 10).shape == x.shape
        assert threshold_filter_batch(x, 2.0).shape == x.shape
        assert moving_rms_batch(x, 30).shape == x.shape
        assert reflect_convolve_batch(x, AVERAGE).shape == x.shape


class TestVarianceProperties:
    @given(finite_signal)
    @settings(max_examples=40, deadline=None)
    def test_variance_non_negative(self, x):
        assert (moving_variance_batch(x, 10) >= 0).all()

    @given(finite_signal, st.floats(min_value=-1e4, max_value=1e4, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_variance_shift_invariant(self, x, offset):
        a = moving_variance_batch(x, 10)
        b = moving_variance_batch(x + offset, 10)
        scale = max(np.abs(x).max(), abs(offset), 1.0)
        assert np.allclose(a, b, atol=1e-6 * scale**2 + 1e-9)

    @given(finite_signal, st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=40, deadline=None)
    def test_variance_scales_quadratically(self, x, factor):
        a = moving_variance_batch(x, 10)
        b = moving_variance_batch(x * factor, 10)
        # Absolute tolerance tracks the cancellation error of the
        # cumulative-sum formulation at the signal's magnitude.
        scale = (np.abs(x).max() * max(factor, 1.0) + 1.0) ** 2
        assert np.allclose(b, a * factor**2, rtol=1e-6, atol=1e-9 * scale)


class TestLinearStageProperties:
    @given(finite_signal, finite_signal)
    @settings(max_examples=30, deadline=None)
    def test_lowpass_is_linear(self, x, y):
        n = min(x.shape[1], y.shape[1])
        x, y = x[:, :n], y[:, :n]
        combined = reflect_convolve_batch(x + y, LOWPASS)
        separate = reflect_convolve_batch(x, LOWPASS) + reflect_convolve_batch(y, LOWPASS)
        scale = max(np.abs(x).max(), np.abs(y).max(), 1.0)
        assert np.allclose(combined, separate, atol=1e-9 * scale)

    @given(st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
           st.integers(min_value=5, max_value=100))
    @settings(max_examples=40, deadline=None)
    def test_constants_are_fixed_points(self, value, n):
        x = np.full((1, n), value)
        atol = 1e-9 * max(abs(value), 1)
        assert np.allclose(reflect_convolve_batch(x, LOWPASS), value, atol=atol)
        assert np.allclose(reflect_convolve_batch(x, AVERAGE), value, atol=atol)


class TestThresholdProperties:
    @given(finite_signal, st.floats(min_value=0.0, max_value=100.0))
    @settings(max_examples=40, deadline=None)
    def test_output_is_zero_or_original(self, x, cutoff):
        out = threshold_filter_batch(x, cutoff)
        # Exact by construction: the filter writes literal 0.0 or the
        # original sample, never an approximation of either.
        assert ((out == 0.0) | (out == x)).all()  # reprolint: disable=R004

    @given(finite_signal)
    @settings(max_examples=40, deadline=None)
    def test_idempotent(self, x):
        once = threshold_filter_batch(x, 2.0)
        twice = threshold_filter_batch(once, 2.0)
        assert np.array_equal(once, twice)


class TestRmsProperties:
    @given(finite_signal)
    @settings(max_examples=40, deadline=None)
    def test_rms_non_negative_and_bounded(self, x):
        out = moving_rms_batch(x, 30)
        assert (out >= 0).all()
        assert out.max() <= np.abs(x).max() + 1e-9
