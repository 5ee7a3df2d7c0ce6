"""Landmark-detector robustness across the conditions the system meets."""

import numpy as np
import pytest

from repro.camera.sensor import ImageSensor
from repro.vision.expression import PoseState
from repro.vision.face_model import make_face
from repro.vision.landmarks import LandmarkDetector, mean_landmark_error
from repro.vision.renderer import FaceRenderer


def _pose(**kwargs):
    defaults = dict(center_x=0.5, center_y=0.48, scale=0.3, roll=0.0, blink=0.0, mouth_open=0.0)
    defaults.update(kwargs)
    return PoseState(**defaults)


def _capture(renderer, pose, illum, exposure=None, noisy=False, seed=0):
    result = renderer.render(pose, illum, ambient_lux=illum)
    rng = np.random.default_rng(seed) if noisy else None
    sensor = ImageSensor(rng=rng)
    if exposure is None:
        exposure = 0.5 / max(result.radiance.mean(), 1e-9)
    return sensor.expose(result.radiance, exposure), result


class TestIlluminationLadder:
    @pytest.mark.parametrize("illum", [25.0, 60.0, 150.0, 400.0])
    def test_detects_across_light_levels(self, illum):
        face = make_face("x", tone="tan", rng=np.random.default_rng(0))
        renderer = FaceRenderer(face, 96, 96, seed=1)
        pixels, truth = _capture(renderer, _pose(), illum)
        detector = LandmarkDetector(jitter_fraction=0.0)
        landmarks = detector.detect(pixels)
        assert landmarks is not None
        assert mean_landmark_error(landmarks, truth.landmarks) < 8.0

    def test_severely_underexposed_frame_fails_gracefully(self):
        face = make_face("x", tone="dark", rng=np.random.default_rng(0))
        renderer = FaceRenderer(face, 96, 96, seed=1)
        pixels, _ = _capture(renderer, _pose(), 50.0, exposure=1e-4)
        assert LandmarkDetector().detect(pixels) is None


class TestPoseRobustness:
    @pytest.mark.parametrize("cx", [0.38, 0.5, 0.62])
    @pytest.mark.parametrize("scale", [0.24, 0.3, 0.36])
    def test_detects_across_positions_and_sizes(self, cx, scale):
        face = make_face("x", tone="light", rng=np.random.default_rng(2))
        renderer = FaceRenderer(face, 96, 96, seed=3)
        pixels, truth = _capture(renderer, _pose(center_x=cx, scale=scale), 120.0)
        detector = LandmarkDetector(jitter_fraction=0.0)
        landmarks = detector.detect(pixels)
        assert landmarks is not None
        # Error scales with face size; stay within a third of the half-width.
        assert mean_landmark_error(landmarks, truth.landmarks) < 0.35 * scale * 96

    def test_roll_tolerated(self):
        face = make_face("x", tone="light", rng=np.random.default_rng(4))
        renderer = FaceRenderer(face, 96, 96, seed=5)
        pixels, truth = _capture(renderer, _pose(roll=0.05), 120.0)
        landmarks = LandmarkDetector(jitter_fraction=0.0).detect(pixels)
        assert landmarks is not None

    def test_blink_and_talk_do_not_break_detection(self):
        face = make_face("x", tone="brown", rng=np.random.default_rng(6))
        renderer = FaceRenderer(face, 96, 96, seed=7)
        pixels, _ = _capture(renderer, _pose(blink=1.0, mouth_open=1.0), 120.0)
        assert LandmarkDetector().detect(pixels) is not None


class TestSensorNoise:
    def test_noise_only_jitters_landmarks(self):
        face = make_face("x", tone="light", rng=np.random.default_rng(8))
        renderer = FaceRenderer(face, 96, 96, seed=9)
        detector = LandmarkDetector(jitter_fraction=0.0)
        clean, _ = _capture(renderer, _pose(), 120.0)
        noisy, _ = _capture(renderer, _pose(), 120.0, noisy=True, seed=10)
        a = detector.detect(clean)
        b = detector.detect(noisy)
        assert a is not None and b is not None
        assert a.nasal_bridge[-1].distance_to(b.nasal_bridge[-1]) < 3.0

    def test_glasses_do_not_break_detection(self):
        face = make_face("x", tone="tan", rng=np.random.default_rng(11), has_glasses=True)
        renderer = FaceRenderer(face, 96, 96, seed=12)
        pixels, _ = _capture(renderer, _pose(), 120.0)
        assert LandmarkDetector().detect(pixels) is not None
