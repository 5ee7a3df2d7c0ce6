"""DetectorConfig: paper defaults and validation."""

import dataclasses
import math

import pytest

from repro.core.config import PAPER_CONFIG, DetectorConfig


class TestPaperDefaults:
    def test_sampling(self):
        assert PAPER_CONFIG.sample_rate_hz == 10.0
        assert PAPER_CONFIG.clip_duration_s == 15.0
        assert PAPER_CONFIG.samples_per_clip == 150

    def test_filter_chain_constants(self):
        assert PAPER_CONFIG.lowpass_cutoff_hz == 1.0
        assert PAPER_CONFIG.variance_window == 10
        assert PAPER_CONFIG.variance_threshold == 2.0
        assert PAPER_CONFIG.rms_window == 30
        assert PAPER_CONFIG.savgol_window == 31
        assert PAPER_CONFIG.moving_average_window == 10

    def test_peak_prominences(self):
        assert PAPER_CONFIG.peak_prominence_screen == 10.0
        assert PAPER_CONFIG.peak_prominence_face == 0.5

    def test_classifier_constants(self):
        assert PAPER_CONFIG.lof_neighbors == 5
        assert PAPER_CONFIG.lof_threshold == 3.0
        assert PAPER_CONFIG.vote_fraction == 0.7
        assert PAPER_CONFIG.dtw_scale == 30.0
        assert PAPER_CONFIG.segment_count == 2

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            PAPER_CONFIG.lof_threshold = 1.0  # type: ignore[misc]


class TestValidation:
    def test_rejects_nonpositive_sample_rate(self):
        with pytest.raises(ValueError):
            DetectorConfig(sample_rate_hz=0.0)

    def test_rejects_cutoff_above_nyquist(self):
        with pytest.raises(ValueError):
            DetectorConfig(sample_rate_hz=10.0, lowpass_cutoff_hz=5.0)

    def test_rejects_even_savgol_window(self):
        with pytest.raises(ValueError):
            DetectorConfig(savgol_window=30)

    def test_rejects_polyorder_ge_window(self):
        with pytest.raises(ValueError):
            DetectorConfig(savgol_window=5, savgol_polyorder=5)

    def test_rejects_even_lowpass_taps(self):
        with pytest.raises(ValueError):
            DetectorConfig(lowpass_taps=40)

    def test_rejects_bad_vote_fraction(self):
        with pytest.raises(ValueError):
            DetectorConfig(vote_fraction=1.0)
        with pytest.raises(ValueError):
            DetectorConfig(vote_fraction=0.0)

    def test_rejects_negative_guard(self):
        with pytest.raises(ValueError):
            DetectorConfig(boundary_guard_s=-1.0)

    def test_rejects_zero_prominence(self):
        with pytest.raises(ValueError):
            DetectorConfig(peak_prominence_face=0.0)

    @pytest.mark.parametrize(
        "name",
        [f.name for f in dataclasses.fields(DetectorConfig) if isinstance(f.default, float)],
    )
    def test_rejects_nan_by_field_name(self, name):
        # A NaN fails every range comparison, so `nan <= 0` checks let
        # it through (a NaN face gate then rejects every live face).
        with pytest.raises(ValueError, match=name):
            PAPER_CONFIG.with_overrides(**{name: math.nan})


class TestWithOverrides:
    def test_returns_modified_copy(self):
        changed = PAPER_CONFIG.with_overrides(sample_rate_hz=8.0)
        # Verbatim: 8.0 is the exact value passed one line up.
        assert changed.sample_rate_hz == 8.0  # reprolint: disable=R004
        assert PAPER_CONFIG.sample_rate_hz == 10.0
        assert changed.lof_threshold == PAPER_CONFIG.lof_threshold

    def test_validates_values(self):
        with pytest.raises(ValueError):
            PAPER_CONFIG.with_overrides(sample_rate_hz=-1.0)

    def test_rejects_unknown_field_by_name(self):
        with pytest.raises(ValueError, match="lof_treshold"):
            # The typo is the point of the test (R006's runtime twin).
            PAPER_CONFIG.with_overrides(lof_treshold=2.0)  # reprolint: disable=R006

    def test_no_overrides_is_an_identical_copy(self):
        assert PAPER_CONFIG.with_overrides() == PAPER_CONFIG

    def test_samples_per_clip_tracks_rate(self):
        assert PAPER_CONFIG.with_overrides(sample_rate_hz=8.0).samples_per_clip == 120
        assert PAPER_CONFIG.with_overrides(sample_rate_hz=5.0).samples_per_clip == 75
