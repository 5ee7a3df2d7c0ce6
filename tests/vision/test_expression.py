"""Expression/pose dynamics."""

import math

import numpy as np
import pytest

from repro.vision.expression import ExpressionTrack


class TestDeterminism:
    def test_same_seed_same_performance(self):
        a = ExpressionTrack(seed=11)
        b = ExpressionTrack(seed=11)
        for t in (0.0, 1.3, 7.7, 59.2):
            assert a.sample(t) == b.sample(t)

    def test_different_seeds_differ(self):
        a = ExpressionTrack(seed=1).sample(5.0)
        b = ExpressionTrack(seed=2).sample(5.0)
        assert a != b


class TestPoseBounds:
    @pytest.mark.parametrize("seed", range(5))
    def test_face_stays_in_frame(self, seed):
        track = ExpressionTrack(seed=seed, movement_amplitude=0.035)
        for t in np.linspace(0, 60, 200):
            pose = track.sample(float(t))
            assert 0.3 < pose.center_x < 0.7
            assert 0.3 < pose.center_y < 0.7
            assert 0.2 < pose.scale < 0.45

    def test_blink_and_mouth_in_unit_range(self):
        track = ExpressionTrack(seed=3)
        for t in np.linspace(0, 30, 300):
            pose = track.sample(float(t))
            assert 0.0 <= pose.blink <= 1.0
            assert 0.0 <= pose.mouth_open <= 1.0


class TestBlinking:
    def test_blinks_happen(self):
        track = ExpressionTrack(seed=4, blink_rate_hz=0.5)
        blinks = [track.sample(float(t)).blink for t in np.linspace(0, 60, 1200)]
        assert max(blinks) > 0.5

    def test_no_blinks_when_rate_zero(self):
        track = ExpressionTrack(seed=4, blink_rate_hz=0.0)
        blinks = [track.sample(float(t)).blink for t in np.linspace(0, 30, 300)]
        assert max(blinks) == pytest.approx(0.0)

    def test_blinks_are_brief(self):
        track = ExpressionTrack(seed=5, blink_rate_hz=0.3)
        ts = np.linspace(0, 120, 4800)
        closed = np.array([track.sample(float(t)).blink for t in ts]) > 0.1
        assert 0.0 < closed.mean() < 0.15


class TestTalking:
    def test_mouth_moves_when_talking(self):
        track = ExpressionTrack(seed=6, talking=True)
        mouth = [track.sample(float(t)).mouth_open for t in np.linspace(0, 10, 100)]
        assert max(mouth) > 0.2

    def test_mouth_still_when_silent(self):
        track = ExpressionTrack(seed=6, talking=False)
        mouth = [track.sample(float(t)).mouth_open for t in np.linspace(0, 10, 100)]
        assert max(mouth) == pytest.approx(0.0)


class TestValidation:
    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            ExpressionTrack(seed=0).sample(-1.0)

    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError):
            ExpressionTrack(seed=0, scale_base=0.5)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_rejected(self, t):
        with pytest.raises(ValueError, match="finite"):
            ExpressionTrack(seed=0).sample(t)
