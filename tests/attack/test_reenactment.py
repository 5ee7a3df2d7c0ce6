"""Reenactment attacker: the two properties the defense relies on."""

import numpy as np
import pytest

from repro.attack.reenactment import ReenactmentAttacker
from repro.attack.target import TargetRecording
from repro.video.luminance import frame_mean_luminance
from repro.vision.expression import ExpressionTrack
from repro.vision.face_model import make_face
from repro.vision.landmarks import LandmarkDetector, mean_landmark_error

from ..conftest import blank_frame


@pytest.fixture()
def attacker():
    target = TargetRecording(victim=make_face("victim", tone="light"), seed=10)
    return ReenactmentAttacker(target=target, frame_size=(64, 64), seed=11)


class TestLuminanceDecoupling:
    def test_output_ignores_displayed_content(self, attacker):
        """The fake face reflects the *target recording's* light, never the
        attacker's screen — the paper's core insight (Sec. II-A)."""
        bright = blank_frame(8, 8, value=255.0)
        dark = blank_frame(8, 8, value=0.0)
        lum_bright = frame_mean_luminance(attacker.produce_frame(0.0, bright))
        # Fresh attacker so internal clocks match.
        target = TargetRecording(victim=make_face("victim", tone="light"), seed=10)
        attacker2 = ReenactmentAttacker(target=target, frame_size=(64, 64), seed=11)
        lum_dark = frame_mean_luminance(attacker2.produce_frame(0.0, dark))
        assert lum_bright == pytest.approx(lum_dark, rel=0.05)

    def test_output_follows_target_track(self, attacker):
        # Sample the fake video across a minute: its luminance must move
        # with the recording's illumination events.
        lums = []
        illums = []
        for i, t in enumerate(np.arange(0.0, 60.0, 0.5)):
            lums.append(frame_mean_luminance(attacker.produce_frame(t, None)))
            illums.append(attacker.target.illuminance_at(t))
        corr = np.corrcoef(lums, illums)[0, 1]
        assert corr > 0.6


class TestRealism:
    def test_fake_face_fools_landmark_detector(self, attacker):
        """Per the adversary model the fake video is visually convincing —
        the landmark API must find a face in it."""
        frame = attacker.produce_frame(1.0, None)
        assert LandmarkDetector().detect(frame.pixels) is not None

    def test_expressions_come_from_driving_track(self):
        target = TargetRecording(victim=make_face("victim"), seed=20)
        driving = ExpressionTrack(seed=77)
        attacker = ReenactmentAttacker(target=target, driving=driving, frame_size=(64, 64))
        frame = attacker.produce_frame(3.0, None)
        assert "landmarks_truth" not in frame.metadata
        pose = driving.sample(3.0)
        lux = target.illuminance_at(3.0)
        truth = attacker.renderer.render(pose, lux, lux).landmarks
        expected_x = pose.center_x * 64
        assert truth["nasal_bridge"][0].x == pytest.approx(expected_x, abs=2.0)
        # The fake frame shows the face at the driving pose's landmarks.
        detected = LandmarkDetector().detect(frame.pixels)
        assert detected is not None
        assert mean_landmark_error(detected, truth) < 4.0

    def test_frames_flagged_fake(self, attacker):
        frame = attacker.produce_frame(0.5, None)
        assert frame.metadata["fake"] is True

    def test_artifacts_add_noise(self):
        target = TargetRecording(victim=make_face("victim"), seed=30)
        clean = ReenactmentAttacker(target=target, artifact_level=0.0, frame_size=(64, 64), seed=1)
        noisy = ReenactmentAttacker(target=target, artifact_level=0.05, frame_size=(64, 64), seed=1)
        lum_clean = [frame_mean_luminance(clean.produce_frame(t, None)) for t in np.arange(0, 2, 0.1)]
        lum_noisy = [frame_mean_luminance(noisy.produce_frame(t, None)) for t in np.arange(0, 2, 0.1)]
        assert np.std(np.diff(lum_noisy)) > np.std(np.diff(lum_clean))

    def test_negative_artifact_level_rejected(self):
        target = TargetRecording(victim=make_face("victim"), seed=1)
        with pytest.raises(ValueError):
            ReenactmentAttacker(target=target, artifact_level=-0.1)
