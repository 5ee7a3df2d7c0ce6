"""FaceLive baseline and its sensor-forgery collapse."""

import numpy as np
import pytest

from repro.baselines.facelive import FaceLiveDetector, SensorChannel


def _motion(seed=0, n=150):
    rng = np.random.default_rng(seed)
    t = np.arange(n) / 10.0
    return 3.0 * np.sin(2 * np.pi * 0.2 * t + rng.uniform(0, 6)) + rng.normal(0, 0.1, n)


class TestHonestProver:
    def test_honest_sensors_correlate(self):
        motion = _motion(1)
        sensors = SensorChannel.honest(motion, noise_std=0.3, seed=2)
        detector = FaceLiveDetector()
        assert detector.is_live(motion, sensors)

    def test_uncorrelated_motion_rejected(self):
        detector = FaceLiveDetector()
        sensors = SensorChannel.honest(_motion(3), seed=4)
        assert not detector.is_live(_motion(5), sensors)


class TestSensorForgery:
    def test_attacker_with_forged_sensors_passes(self):
        """The paper's point: FaceLive is broken by reenactment attackers
        because they control the sensor channel."""
        fake_video_motion = _motion(7)  # motion the attacker synthesized
        forged = SensorChannel.forged(fake_video_motion)
        detector = FaceLiveDetector()
        assert detector.is_live(fake_video_motion, forged)
        assert detector.score(fake_video_motion, forged) == pytest.approx(1.0)


class TestVideoMotionExtraction:
    def test_length_mismatch_rejected(self):
        detector = FaceLiveDetector()
        with pytest.raises(ValueError):
            detector.score(np.zeros(10), SensorChannel(readings=np.zeros(11)))
