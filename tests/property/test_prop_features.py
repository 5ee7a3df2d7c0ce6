"""Property-based tests of matching, delay removal, and feature ranges."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DetectorConfig
from repro.core.delay import align_signals, estimate_delay
from repro.core.features import extract_features_batch, normalize_unit
from repro.core.matching import match_changes

times = st.lists(
    st.floats(min_value=0.0, max_value=15.0, allow_nan=False),
    min_size=0,
    max_size=8,
).map(lambda ts: np.array(sorted(ts)))


@st.composite
def spaced_times(draw, min_gap=2.1, max_count=6):
    """Sorted change times with pairwise gaps > 2x the match tolerance,
    so a one-to-one greedy matching is unambiguous."""
    gaps = draw(
        st.lists(
            st.floats(min_value=min_gap, max_value=6.0, allow_nan=False),
            min_size=1,
            max_size=max_count,
        )
    )
    start = draw(st.floats(min_value=0.0, max_value=3.0, allow_nan=False))
    return start + np.cumsum(np.array(gaps)) - gaps[0]


class TestMatchingProperties:
    @given(times, times, st.floats(min_value=0.1, max_value=3.0))
    @settings(max_examples=60, deadline=None)
    def test_one_to_one(self, t, r, tol):
        matches = match_changes(t, r, tol)
        assert len({m.transmitted_index for m in matches}) == len(matches)
        assert len({m.received_index for m in matches}) == len(matches)

    @given(times, times, st.floats(min_value=0.1, max_value=3.0))
    @settings(max_examples=60, deadline=None)
    def test_all_pairs_within_tolerance(self, t, r, tol):
        for m in match_changes(t, r, tol):
            assert abs(m.time_difference_s) <= tol + 1e-12

    @given(spaced_times(), st.floats(min_value=0.0, max_value=0.9))
    @settings(max_examples=60, deadline=None)
    def test_planted_delay_recovered(self, t, delay):
        # Changes spaced > 2x tolerance apart: the matching is unambiguous
        # and the estimator must recover the planted delay exactly.
        matches = match_changes(t, t + delay, tolerance_s=1.0)
        estimated = estimate_delay(matches)
        assert estimated is not None
        assert abs(estimated - delay) < 1e-9

    @given(times, times, st.floats(min_value=0.1, max_value=3.0))
    @settings(max_examples=60, deadline=None)
    def test_symmetry_of_match_count(self, t, r, tol):
        forward = match_changes(t, r, tol)
        backward = match_changes(r, t, tol)
        assert len(forward) == len(backward)


class TestAlignProperties:
    @given(
        st.integers(min_value=10, max_value=100),
        st.integers(min_value=-5, max_value=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_alignment_undoes_integer_shift(self, n, shift_samples):
        rng = np.random.default_rng(abs(shift_samples) + n)
        x = rng.normal(size=n)
        if shift_samples >= 0:
            y = np.concatenate([np.zeros(shift_samples), x])[:n]
        else:
            y = np.concatenate([x[-shift_samples:], np.zeros(-shift_samples)])
        t_a, r_a = align_signals(x, y, shift_samples / 10.0, 10.0)
        overlap = min(t_a.size, r_a.size)
        if shift_samples >= 0:
            assert np.allclose(t_a[: overlap - shift_samples], r_a[: overlap - shift_samples])


class TestNormalizeProperties:
    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=100,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_output_in_unit_interval(self, values):
        out = normalize_unit(np.array(values))
        assert out.min() >= 0.0
        assert out.max() <= 1.0


class TestFeatureRanges:
    @given(st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=15, deadline=None)
    def test_features_always_in_sane_ranges(self, seed):
        """Whatever noisy signals come in, features stay bounded."""
        rng = np.random.default_rng(seed)
        t = 150.0 + np.cumsum(rng.normal(0, rng.uniform(0.1, 8.0), 150))
        r = 120.0 + np.cumsum(rng.normal(0, rng.uniform(0.1, 4.0), 150))
        fx = extract_features_batch([(np.clip(t, 0, 255), np.clip(r, 0, 255))], DetectorConfig())[0]
        z = fx.features
        assert 0.0 <= z.z1 <= 1.0
        assert 0.0 <= z.z2 <= 1.0
        assert -1.0 <= z.z3 <= 1.0
        assert z.z4 >= 0.0
        assert np.isfinite(z.as_array()).all()
