"""Chat endpoints: Alice's challenge behaviour, Bob's reflection."""

import numpy as np
import pytest

from repro.camera.metering import LightMeter, MeteringMode
from repro.chat.endpoints import GenuineProverEndpoint, MeteringBehavior, VerifierEndpoint
from repro.screen.display import DELL_27_LED, PHONE_6_OLED
from repro.screen.illumination import AmbientLight
from repro.video.luminance import frame_mean_luminance
from repro.vision.expression import ExpressionTrack
from repro.vision.face_model import make_face
from repro.vision.landmarks import LandmarkDetector, mean_landmark_error

from ..conftest import blank_frame


def _verifier(seed=0):
    return VerifierEndpoint(
        face=make_face("alice", tone="tan", rng=np.random.default_rng(seed)),
        expression=ExpressionTrack(seed=seed, movement_amplitude=0.01),
        ambient=AmbientLight(base_lux=90.0),
        frame_size=(48, 48),
        seed=seed,
    )


def _prover(seed=0, screen=DELL_27_LED, distance=0.5):
    return GenuineProverEndpoint(
        face=make_face("bob", tone="light", rng=np.random.default_rng(seed + 1)),
        expression=ExpressionTrack(seed=seed + 2),
        ambient=AmbientLight(base_lux=50.0),
        screen=screen,
        viewing_distance_m=distance,
        frame_size=(64, 64),
        seed=seed,
    )


class TestMeteringBehavior:
    def test_events_respect_gap_range(self):
        behavior = MeteringBehavior(
            bright_spot=(0.9, 0.5), dark_spot=(0.1, 0.5), gap_range_s=(4.0, 6.0), seed=3
        )
        times = [t for t, _ in behavior.events]
        gaps = np.diff(times)
        assert gaps.min() >= 4.0 - 1e-9
        assert gaps.max() <= 6.0 + 1e-9

    def test_touches_alternate_between_zones(self):
        behavior = MeteringBehavior(bright_spot=(0.9, 0.5), dark_spot=(0.1, 0.5), seed=4)
        targets = [spot for _, spot in behavior.events[:6]]
        for a, b in zip(targets, targets[1:]):
            assert a != b

    def test_spot_at_follows_schedule(self):
        behavior = MeteringBehavior(bright_spot=(0.9, 0.5), dark_spot=(0.1, 0.5), seed=5)
        first_time, first_target = behavior.events[0]
        assert behavior.spot_at(first_time - 0.1) == (0.5, 0.45)  # initial face spot
        assert behavior.spot_at(first_time + 0.1) == first_target

    def test_apply_points_the_meter(self):
        behavior = MeteringBehavior(bright_spot=(0.9, 0.5), dark_spot=(0.1, 0.5), seed=6)
        meter = LightMeter(mode=MeteringMode.MULTI_ZONE)
        behavior.apply(meter, behavior.events[0][0] + 0.1)
        assert meter.mode is MeteringMode.SPOT

    def test_bad_gap_range(self):
        with pytest.raises(ValueError):
            MeteringBehavior((0.9, 0.5), (0.1, 0.5), gap_range_s=(5.0, 4.0))


class TestVerifierEndpoint:
    def test_metering_challenges_change_video_luminance(self):
        verifier = _verifier(seed=2)
        signal = [
            frame_mean_luminance(verifier.produce_frame(t))
            for t in np.arange(0.0, 20.0, 0.1)
        ]
        span = max(signal) - min(signal)
        assert span > 30.0  # several stops of exposure swing

    def test_frames_carry_ground_truth(self):
        """A captured frame shows its face where the render's ground truth
        (``RenderResult.landmarks``, computed on read) puts it; the frame
        itself carries only the camera's metadata."""
        verifier = _verifier(seed=3)
        frame = verifier.produce_frame(0.0)
        assert "landmarks_truth" not in frame.metadata
        assert "exposure" in frame.metadata
        lux = verifier.ambient.sample(0.0)
        truth = verifier.renderer.render(verifier.expression.sample(0.0), lux, lux).landmarks
        detected = LandmarkDetector().detect(frame.pixels)
        assert detected is not None
        assert mean_landmark_error(detected, truth) < 4.0


class TestGenuineProver:
    def test_screen_light_reaches_face(self):
        prover = _prover(seed=1)
        dark = prover.screen_lux(blank_frame(8, 8, value=0.0), t=0.0)
        bright = prover.screen_lux(blank_frame(8, 8, value=255.0), t=0.0)
        assert bright > 10 * max(dark, 0.1)

    def test_no_display_means_no_screen_light(self):
        prover = _prover(seed=1)
        assert prover.screen_lux(None, t=0.0) <= prover.screen_lux(
            blank_frame(8, 8, value=255.0), t=0.0
        ) * 0.05

    def test_face_brightens_with_displayed_content(self):
        prover = _prover(seed=4)
        bright_frame = blank_frame(8, 8, value=240.0)
        dark_frame = blank_frame(8, 8, value=10.0)
        # Let auto-exposure converge on the dark content and lock (as in
        # a real call), then flip the screen content.
        f_dark = None
        for i in range(20):
            f_dark = prover.produce_frame(i * 0.1, dark_frame)
        assert prover.camera.auto_exposure.locked
        f_bright = prover.produce_frame(2.1, bright_frame)
        assert frame_mean_luminance(f_bright) > frame_mean_luminance(f_dark)

    def test_phone_at_distance_gives_weak_reflection(self):
        monitor = _prover(seed=5, screen=DELL_27_LED, distance=0.5)
        phone = _prover(seed=5, screen=PHONE_6_OLED, distance=0.5)
        white = blank_frame(8, 8, value=255.0)
        assert phone.screen_lux(white, 0.0) < 0.2 * monitor.screen_lux(white, 0.0)

    def test_phone_close_up_recovers(self):
        far = _prover(seed=6, screen=PHONE_6_OLED, distance=0.5)
        near = _prover(seed=6, screen=PHONE_6_OLED, distance=0.1)
        white = blank_frame(8, 8, value=255.0)
        assert near.screen_lux(white, 0.0) > 5 * far.screen_lux(white, 0.0)

    def test_exposure_locks_after_warmup(self):
        prover = _prover(seed=7)
        displayed = blank_frame(8, 8, value=120.0)
        for i in range(25):
            prover.produce_frame(i * 0.1, displayed)
        assert prover.camera.auto_exposure.locked

    def test_orientation_wobble_bounded(self):
        prover = _prover(seed=8)
        gains = [prover._orientation_gain(t) for t in np.linspace(0, 100, 500)]
        assert min(gains) >= 1.0 - prover.orientation_wobble - 1e-9
        assert max(gains) <= 1.0 + 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            _prover(distance=0.0)
