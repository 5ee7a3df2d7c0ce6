"""Replay attacker."""

import numpy as np
import pytest

from repro.attack.replay import ReplayAttacker
from repro.attack.target import TargetRecording
from repro.video.luminance import frame_mean_luminance
from repro.vision.face_model import make_face

from ..conftest import blank_frame


@pytest.fixture()
def target():
    return TargetRecording(victim=make_face("victim"), seed=50)


class TestReplay:
    def test_uses_victims_own_expressions(self, target):
        attacker = ReplayAttacker(target=target, frame_size=(64, 64))
        assert attacker.driving is target.expression

    def test_no_synthesis_artifacts(self, target):
        attacker = ReplayAttacker(target=target, frame_size=(64, 64))
        assert attacker.artifact_level == pytest.approx(0.0)

    def test_ignores_displayed_content(self, target):
        a = ReplayAttacker(target=target, frame_size=(64, 64))
        b = ReplayAttacker(
            target=TargetRecording(victim=make_face("victim"), seed=50),
            frame_size=(64, 64),
        )
        bright = frame_mean_luminance(a.produce_frame(0.0, blank_frame(4, 4, value=255.0)))
        dark = frame_mean_luminance(b.produce_frame(0.0, blank_frame(4, 4, value=0.0)))
        assert bright == pytest.approx(dark, rel=0.03)

    def test_playback_offset_shifts_track(self, target):
        a = ReplayAttacker(target=target, playback_offset_s=0.0, frame_size=(64, 64))
        b = ReplayAttacker(target=target, playback_offset_s=100.0, frame_size=(64, 64))
        ts = np.arange(0.0, 20.0, 0.5)
        la = [a.target.illuminance_at(t, a.playback_offset_s) for t in ts]
        lb = [b.target.illuminance_at(t, b.playback_offset_s) for t in ts]
        assert not np.allclose(la, lb)

    def test_negative_offset_rejected(self, target):
        with pytest.raises(ValueError):
            ReplayAttacker(target=target, playback_offset_s=-1.0)
