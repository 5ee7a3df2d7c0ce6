"""Adaptive luminance forger (Sec. VIII-J)."""

import numpy as np
import pytest

from repro.attack.adaptive import AdaptiveLuminanceForger
from repro.attack.target import TargetRecording
from repro.video.luminance import frame_mean_luminance
from repro.vision.face_model import make_face

from ..conftest import blank_frame


def _forger(delay=0.5, seed=40, ambient=50.0):
    target = TargetRecording(victim=make_face("victim"), seed=seed)
    return AdaptiveLuminanceForger(
        target=target,
        processing_delay_s=delay,
        frame_size=(64, 64),
        seed=seed,
        ambient_lux=ambient,
    )


BRIGHT = blank_frame(8, 8, value=255.0)
DARK = blank_frame(8, 8, value=5.0)


class TestForgedReflection:
    def test_zero_delay_tracks_screen_immediately(self):
        forger = _forger(delay=0.0)
        lum_dark = frame_mean_luminance(forger.produce_frame(0.0, DARK))
        lum_bright = frame_mean_luminance(forger.produce_frame(0.1, BRIGHT))
        assert lum_bright > lum_dark + 3.0

    def test_delay_postpones_the_forged_change(self):
        forger = _forger(delay=1.0)
        # Feed dark for 2 s, then switch to bright.
        lums = []
        for i in range(50):
            t = i * 0.1
            displayed = DARK if t < 2.0 else BRIGHT
            lums.append(frame_mean_luminance(forger.produce_frame(t, displayed)))
        lums = np.array(lums)
        before = lums[15:20].mean()  # right before the switch
        just_after = lums[21:29].mean()  # switch happened, delay not elapsed
        well_after = lums[35:].mean()  # forged reflection applied
        assert just_after == pytest.approx(before, abs=1.5)
        assert well_after > before + 3.0

    def test_forged_illuminance_matches_genuine_model(self):
        """With zero delay the forger reproduces exactly the reflection a
        genuine prover would show (same screen/distance model)."""
        forger = _forger(delay=0.0)
        observed = forger._observed_screen_lux(BRIGHT)
        from repro.screen.illumination import screen_illuminance

        expected = screen_illuminance(
            forger.mimic_screen.emitted_luminance(255.0),
            forger.mimic_screen.area_m2,
            forger.mimic_distance_m,
        )
        assert observed == pytest.approx(expected)


class TestValidation:
    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            _forger(delay=-0.5)

    def test_negative_ambient_rejected(self):
        with pytest.raises(ValueError):
            _forger(ambient=-1.0)

    def test_bad_distance_rejected(self):
        target = TargetRecording(victim=make_face("v"), seed=1)
        with pytest.raises(ValueError):
            AdaptiveLuminanceForger(target=target, mimic_distance_m=0.0)
