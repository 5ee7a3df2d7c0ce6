"""Feature extraction: z1..z4 semantics on controlled signals."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.config import DetectorConfig
from repro.core.features import (
    FeatureVector,
    extract_features_batch,
    normalize_unit,
    pearson_correlation,
    split_segments,
)


class TestPearson:
    def test_perfect_positive(self):
        x = np.arange(10.0)
        assert pearson_correlation(x, 3 * x + 2) == pytest.approx(1.0)

    def test_perfect_negative(self):
        x = np.arange(10.0)
        assert pearson_correlation(x, -x) == pytest.approx(-1.0)

    def test_constant_input_gives_zero(self):
        assert pearson_correlation(np.ones(10), np.arange(10.0)) == pytest.approx(0.0)

    def test_matches_numpy_corrcoef(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=50)
        y = rng.normal(size=50)
        assert pearson_correlation(x, y) == pytest.approx(np.corrcoef(x, y)[0, 1])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            pearson_correlation(np.zeros(3), np.zeros(4))


def _pearson_reference(x, y):
    """The formula before the one-mean rewrite, kept as the oracle:
    ``std()`` and ``mean()`` each reduce every input again."""
    a = np.asarray(x, dtype=np.float64)
    b = np.asarray(y, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("inputs must be 1-D arrays of equal length")
    if a.size < 2:
        return 0.0
    std_a = a.std()
    std_b = b.std()
    if std_a < 1e-12 or std_b < 1e-12:
        return 0.0
    return float(((a - a.mean()) * (b - b.mean())).mean() / (std_a * std_b))


@st.composite
def _signal_pairs(draw):
    """Equal-length pairs: unit-range like the normalized segments z3
    reads, or wide-range, and sometimes strided views."""
    n = draw(st.integers(min_value=0, max_value=160))
    bound = draw(st.sampled_from([1.0, 1e6]))
    elements = st.floats(min_value=-bound, max_value=bound, allow_nan=False)
    step = draw(st.sampled_from([1, 2]))
    pair = [draw(hnp.arrays(np.float64, n * step, elements=elements))[::step] for _ in "ab"]
    return tuple(pair)


class TestPearsonMatchesReference:
    @given(_signal_pairs())
    @settings(max_examples=300, deadline=None)
    def test_bit_identical(self, pair):
        x, y = pair
        assert repr(pearson_correlation(x, y)) == repr(_pearson_reference(x, y))


class TestNormalizeUnit:
    def test_range_is_unit(self):
        x = np.array([5.0, 10.0, 7.5])
        out = normalize_unit(x)
        assert out.min() == pytest.approx(0.0)
        assert out.max() == pytest.approx(1.0)

    def test_flat_signal_maps_to_zero(self):
        assert np.allclose(normalize_unit(np.full(5, 3.0)), 0.0)

    def test_preserves_shape_monotonicity(self):
        x = np.array([1.0, 3.0, 2.0])
        out = normalize_unit(x)
        assert out[1] > out[2] > out[0]


class TestSplitSegments:
    def test_two_halves(self):
        segs = split_segments(np.arange(10.0), 2)
        assert len(segs) == 2
        assert np.allclose(segs[0], np.arange(5.0))
        assert np.allclose(segs[1], np.arange(5.0, 10.0))

    def test_tail_dropped(self):
        segs = split_segments(np.arange(11.0), 2)
        assert all(s.size == 5 for s in segs)

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            split_segments(np.arange(1.0), 2)


class TestFeatureVector:
    def test_array_round_trip(self):
        fv = FeatureVector(z1=0.5, z2=1.0, z3=0.9, z4=0.1)
        assert FeatureVector.from_array(fv.as_array()) == fv

    def test_from_array_validates_shape(self):
        with pytest.raises(ValueError):
            FeatureVector.from_array(np.zeros(3))


class TestExtractFeaturesCorrelated:
    """A genuine-looking pair: delayed, scaled reflection of the challenge."""

    def test_behavior_features_are_perfect(self, step_signal, reflected_signal, config):
        fx = extract_features_batch([(step_signal, reflected_signal)], config)[0]
        assert fx.features.z1 == pytest.approx(1.0)
        assert fx.features.z2 == pytest.approx(1.0)

    def test_delay_estimated_near_truth(self, step_signal, reflected_signal, config):
        fx = extract_features_batch([(step_signal, reflected_signal)], config)[0]
        assert abs(fx.delay_s - 0.4) < 0.3

    def test_trend_features_indicate_live(self, step_signal, reflected_signal, config):
        fx = extract_features_batch([(step_signal, reflected_signal)], config)[0]
        assert fx.features.z3 > 0.9
        assert fx.features.z4 < 0.3


class TestExtractFeaturesUncorrelated:
    """An attack-looking pair: independent luminance tracks."""

    @pytest.fixture()
    def attack_pair(self, step_signal):
        # Fake video with changes at completely different times.
        r = np.full(150, 140.0)
        r[20:] += 20.0
        r[75:] -= 30.0
        return step_signal, r

    def test_changes_mostly_unmatched(self, attack_pair, config):
        fx = extract_features_batch([attack_pair], config)[0]
        assert fx.features.z1 < 0.6
        assert fx.features.z2 < 0.6

    def test_trend_decorrelated(self, attack_pair, config):
        fx = extract_features_batch([attack_pair], config)[0]
        assert fx.features.z3 < 0.6


class TestDegenerateInputs:
    def test_flat_received_signal(self, step_signal, config):
        fx = extract_features_batch([(step_signal, np.full(150, 120.0))], config)[0]
        assert fx.features.z1 == pytest.approx(0.0)
        assert fx.features.z2 == pytest.approx(0.0)  # M == 0

    def test_flat_both(self, config):
        fx = extract_features_batch([(np.full(150, 100.0), np.full(150, 120.0))], config)[0]
        assert fx.features.z1 == pytest.approx(0.0)
        assert fx.features.z2 == pytest.approx(0.0)
        # Flat trends: no correlation evidence.
        assert fx.features.z3 <= 0.0 or fx.features.z3 == pytest.approx(0.0)

    def test_short_signals_do_not_crash(self, config):
        fx = extract_features_batch([(np.full(20, 100.0), np.full(20, 120.0))], config)[0]
        assert isinstance(fx.features, FeatureVector)


class TestMatchIndexContract:
    def test_matches_index_the_untrimmed_peak_lists(self, step_signal, config):
        """Regression: match_changes runs on guard-trimmed peak arrays;
        the returned ChangeMatch indices must be remapped to the full
        (untrimmed) change lists, or a trimmed leading received peak
        shifts every received_index off by one."""
        rng = np.random.default_rng(13)
        delayed = np.concatenate([np.full(4, step_signal[0]), step_signal[:-4]])
        received = 120.0 + 0.3 * delayed + rng.normal(0.0, 0.4, delayed.size)
        # A pre-clip challenge's reflection: a step at 1.4 s, inside the
        # 2 s start guard, so the matcher never sees this peak.
        received[:14] -= 30.0
        fx = extract_features_batch([(step_signal, received)], config)[0]
        r_times = fx.received.peak_times
        t_times = fx.transmitted.peak_times
        assert r_times.size == 3
        assert r_times[0] < config.boundary_guard_s  # the trimmed peak
        assert len(fx.matches) == 2
        for m in fx.matches:
            assert 0 <= m.transmitted_index < t_times.size
            assert 0 < m.received_index < r_times.size  # never the trimmed one
            gap = abs(
                t_times[m.transmitted_index] - r_times[m.received_index]
            )
            assert gap <= config.match_tolerance_s

    def test_matched_pair_times_reproduce_time_difference(
        self, step_signal, reflected_signal, config
    ):
        fx = extract_features_batch([(step_signal, reflected_signal)], config)[0]
        for m in fx.matches:
            gap = (
                fx.received.peak_times[m.received_index]
                - fx.transmitted.peak_times[m.transmitted_index]
            )
            assert gap == pytest.approx(m.time_difference_s)


class TestBoundaryGuard:
    def test_change_near_clip_end_not_counted(self, config):
        # One challenge well inside, one inside the end guard window.
        t = np.full(150, 180.0)
        t[50:] -= 50.0
        t[144:] += 50.0  # at 14.4 s, inside the 2 s guard
        r = 120.0 + 0.3 * np.concatenate([np.full(4, t[0]), t[:-4]])
        # Remove the guarded change's reflection (truncated anyway).
        fx = extract_features_batch([(t, r)], config)[0]
        assert fx.features.z1 == pytest.approx(1.0)  # the truncated change is excused

    def test_guard_disabled_counts_everything(self, step_signal, reflected_signal):
        cfg = DetectorConfig(boundary_guard_s=0.0)
        fx = extract_features_batch([(step_signal, reflected_signal)], cfg)[0]
        assert fx.features.z1 == pytest.approx(1.0)  # both changes are interior here
