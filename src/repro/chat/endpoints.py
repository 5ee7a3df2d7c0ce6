"""Chat endpoints: the verifier (Alice) and the genuine prover (Bob).

Step numbering follows the paper's Fig. 4:

1. Alice records her own facial video — her camera's metering spot is the
   *challenge source*: by touching the screen she re-points it between
   bright and dark zones, swinging auto-exposure and thus the luminance
   of her outgoing video (Sec. II-B).
2. The video travels to Bob and fills his screen, so Bob's screen light
   tracks Alice's video luminance.
3. Bob's camera records his face, which reflects that screen light
   (Von Kries, Sec. II-C) on top of his ambient light.
4. Bob's video travels back; Alice now holds both luminance signals.

Any object with a ``produce_frame(t, displayed)`` method can sit in Bob's
chair — the attack module provides hostile implementations.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Protocol

import numpy as np

if TYPE_CHECKING:
    from collections.abc import Sequence

    from ..core.challenge import ChallengeScheduler
    from ..protocol.schedule import DerivedSchedule

from ..camera.camera import Camera
from ..camera.exposure import AutoExposureController
from ..camera.metering import LightMeter, MeteringMode
from ..camera.sensor import ImageSensor
from ..screen.display import DELL_27_LED, ScreenSpec
from ..screen.illumination import AmbientLight, screen_illuminance
from ..video.frame import Frame
from ..vision.expression import ExpressionTrack
from ..vision.face_model import FaceModel
from ..vision.renderer import FaceRenderer
from ..video.luminance import frame_mean_luminance

__all__ = [
    "ProverEndpoint",
    "VerifierEndpoint",
    "GenuineProverEndpoint",
    "MeteringBehavior",
    "ScheduledMeteringBehavior",
    "DerivedMeteringBehavior",
]


class ProverEndpoint(Protocol):
    """Anything that can occupy the untrusted (Bob) side of the chat."""

    def produce_frame(self, t: float, displayed: Frame | None) -> Frame:
        """Produce the frame the endpoint feeds into the chat software at
        time ``t``, given the frame currently shown on its screen."""
        ...


class MeteringBehavior:
    """Alice's challenge schedule: seeded screen touches re-pointing the
    metering spot among the scene's bright zone, dark zone, and her face.

    Gaps between touches are drawn uniformly from ``gap_range_s``; each
    touch moves the spot to a zone different from the current one, which
    guarantees every touch actually changes the metered level (a
    *significant* luminance change, in the paper's vocabulary).

    The default gap range keeps successive touches at least ~4.5 s apart:
    the Sec. V smoothing chain (RMS window 30 + Savitzky-Golay 31 +
    moving average 10, all at 10 Hz) merges variance bumps closer than
    roughly 4 s into a single peak, so closer challenges would be
    *undercounted* on the transmitted side and mis-matched on the
    received side.
    """

    def __init__(
        self,
        bright_spot: tuple[float, float],
        dark_spot: tuple[float, float],
        face_spot: tuple[float, float] = (0.5, 0.45),
        gap_range_s: tuple[float, float] = (4.5, 7.5),
        duration_s: float = 600.0,
        seed: int = 0,
    ) -> None:
        low, high = gap_range_s
        if not 0 < low <= high:
            raise ValueError("gap_range_s must satisfy 0 < low <= high")
        rng = np.random.default_rng(seed)
        # Touches alternate strictly between the bright and dark zones:
        # those two levels differ by several stops, so *every* challenge
        # is a significant change on the transmitted side (prominence
        # above the screen-signal gate of 10).  Mixing in mid-level zones
        # (the face) produces challenges big enough to register in the
        # sensitive face-reflection signal but too small for the screen
        # signal's gate — systematically unmatched changes that hurt the
        # legitimate user.
        spots = [bright_spot, dark_spot]
        self.events: list[tuple[float, tuple[float, float]]] = []
        t = float(rng.uniform(0.5, high))
        current = int(rng.integers(0, 2))
        while t < duration_s:
            current = 1 - current
            self.events.append((t, spots[current]))
            t += float(rng.uniform(low, high))
        self._initial = face_spot

    def spot_at(self, t: float) -> tuple[float, float]:
        """Where the metering spot points at time ``t``."""
        spot = self._initial
        for event_time, target in self.events:
            if event_time <= t:
                spot = target
            else:
                break
        return spot

    def apply(self, meter: LightMeter, t: float) -> None:
        """Point the camera's meter per the schedule."""
        x, y = self.spot_at(t)
        meter.point_spot(x, y)


class ScheduledMeteringBehavior(MeteringBehavior):
    """Metering behaviour driven by an active
    :class:`~repro.core.challenge.ChallengeScheduler`.

    Passive behaviour relies on the user touching the screen often
    enough; this variant *guarantees* challenge coverage: every tick the
    scheduler is consulted, and when a challenge is due the spot flips to
    the zone opposite the current one.  User-initiated touches can still
    be layered on top via ``scheduler.note_challenge``.
    """

    def __init__(
        self,
        bright_spot: tuple[float, float],
        dark_spot: tuple[float, float],
        scheduler: "ChallengeScheduler",
        face_spot: tuple[float, float] = (0.5, 0.45),
    ) -> None:
        # Initialize the passive parent with an empty schedule; events
        # are appended live as the scheduler fires.
        super().__init__(
            bright_spot=bright_spot,
            dark_spot=dark_spot,
            face_spot=face_spot,
            duration_s=1e-9,
        )
        self.events = []
        self._spots = [bright_spot, dark_spot]
        self._current = 0
        self.scheduler = scheduler

    def apply(self, meter: LightMeter, t: float) -> None:
        if self.scheduler.tick(t):
            self._current = 1 - self._current
            self.events.append((t, self._spots[self._current]))
        super().apply(meter, t)


class DerivedMeteringBehavior(MeteringBehavior):
    """Metering behaviour replaying a nonce-derived challenge schedule.

    The protocol layer expands ``(tenant_key, nonce, attempt)`` into
    per-clip challenge times and spot flips
    (:func:`~repro.protocol.schedule.derive_schedule`); this behaviour
    turns those clip-relative schedules into the absolute touch events
    the verifier's camera executes.  ``start_offset_s`` is the session
    warmup that precedes the first *recorded* clip — frame timestamps
    include it, so schedule times must be shifted by it.
    """

    def __init__(
        self,
        bright_spot: tuple[float, float],
        dark_spot: tuple[float, float],
        schedules: "Sequence[DerivedSchedule]",
        start_offset_s: float = 0.0,
        face_spot: tuple[float, float] = (0.5, 0.45),
    ) -> None:
        if start_offset_s < 0:
            raise ValueError("start_offset_s must be non-negative")
        super().__init__(
            bright_spot=bright_spot,
            dark_spot=dark_spot,
            face_spot=face_spot,
            duration_s=1e-9,
        )
        spots = {"bright": bright_spot, "dark": dark_spot}
        events: list[tuple[float, tuple[float, float]]] = []
        for schedule in schedules:
            base = start_offset_s + schedule.attempt_index * schedule.clip_duration_s
            for challenge in schedule.challenges:
                events.append((base + challenge.time_s, spots[challenge.spot]))
        self.events = sorted(events)


class VerifierEndpoint:
    """Alice: renders her own scene and produces the transmitted video."""

    def __init__(
        self,
        face: FaceModel,
        expression: ExpressionTrack,
        ambient: AmbientLight,
        metering: MeteringBehavior | None = None,
        renderer: FaceRenderer | None = None,
        camera: Camera | None = None,
        frame_size: tuple[int, int] = (64, 64),
        seed: int = 0,
        handshake: dict | None = None,
    ) -> None:
        height, width = frame_size
        self.face = face
        self.expression = expression
        self.ambient = ambient
        # Optional protocol handshake payload (session id + nonce hex,
        # see repro.protocol.nonce.handshake_payload) riding on every
        # transmitted frame's metadata, so the prover can ack the nonce.
        self.handshake = handshake
        self.renderer = renderer or FaceRenderer(face, height=height, width=width, seed=seed)
        if metering is None:
            background = self.renderer.background
            metering = MeteringBehavior(
                bright_spot=background.bright_spot,
                dark_spot=background.dark_spot,
                seed=seed,
            )
        self.metering = metering
        if camera is None:
            camera = Camera(
                sensor=ImageSensor(rng=np.random.default_rng(seed + 1)),
                meter=LightMeter(mode=MeteringMode.SPOT),
                auto_exposure=AutoExposureController(target_level=0.5),
            )
        self.camera = camera

    def produce_frame(self, t: float) -> Frame:
        """Render and capture Alice's frame at time ``t``."""
        pose = self.expression.sample(t)
        ambient_lux = self.ambient.sample(t)
        result = self.renderer.render(
            pose,
            face_illuminance_lux=ambient_lux,
            ambient_lux=ambient_lux,
        )
        self.metering.apply(self.camera.meter, t)
        metadata: dict = {}
        if self.handshake is not None:
            metadata["handshake"] = dict(self.handshake)
        return self.camera.capture(
            result.radiance,
            timestamp=t,
            metadata=metadata,
        )


class GenuineProverEndpoint:
    """Bob when he is who he claims: a real face in front of a real screen.

    The screen shows whatever frame last arrived from Alice; its emitted
    light reaches Bob's face per the panel photometry and viewing
    distance, rides on his ambient light, reflects off his skin and is
    captured by his (exposure-locked) camera.
    """

    def __init__(
        self,
        face: FaceModel,
        expression: ExpressionTrack,
        ambient: AmbientLight,
        screen: ScreenSpec = DELL_27_LED,
        viewing_distance_m: float = 0.5,
        renderer: FaceRenderer | None = None,
        camera: Camera | None = None,
        frame_size: tuple[int, int] = (96, 96),
        lock_exposure_after_s: float = 1.5,
        orientation_wobble: float = 0.25,
        seed: int = 0,
        on_handshake: Callable[[dict], str] | None = None,
    ) -> None:
        if viewing_distance_m <= 0:
            raise ValueError("viewing_distance_m must be positive")
        if not 0 <= orientation_wobble < 1:
            raise ValueError("orientation_wobble must lie in [0, 1)")
        height, width = frame_size
        self.face = face
        self.expression = expression
        self.ambient = ambient
        self.screen = screen
        self.viewing_distance_m = viewing_distance_m
        # Head orientation relative to the screen modulates the received
        # irradiance (Lambert cosine): as the user turns or tilts, the
        # face catches a slowly-varying fraction of the screen light.
        # This is the main source of natural within-user variability in
        # the trend features (without it every genuine clip correlates
        # near-perfectly and the LOF cluster degenerates).
        self.orientation_wobble = orientation_wobble
        # Wobble periods of 16-50 s: slow enough that the induced slope
        # stays below the variance-threshold floor (cutoff 2) and does
        # not register as a fake "significant change", yet it reshapes
        # bump amplitudes across a clip.
        wobble_rng = np.random.default_rng(seed + 0xA11CE)
        self._wobble_freqs = wobble_rng.uniform(0.02, 0.06, size=2)
        self._wobble_phases = wobble_rng.uniform(0.0, 2.0 * np.pi, size=2)
        self.renderer = renderer or FaceRenderer(face, height=height, width=width, seed=seed)
        if camera is None:
            # Target level 0.22 keeps the (bright) nasal area comfortably
            # below sensor saturation so reflection deltas stay linear.
            camera = Camera(
                sensor=ImageSensor(rng=np.random.default_rng(seed + 2)),
                meter=LightMeter(mode=MeteringMode.MULTI_ZONE),
                auto_exposure=AutoExposureController(target_level=0.22),
            )
        self.camera = camera
        self.lock_exposure_after_s = lock_exposure_after_s
        self._start_time: float | None = None
        # Protocol handshake: when the displayed frame carries a
        # handshake payload, answer it once (hex ack tag) and repeat the
        # tag on every outgoing frame — individual frames may be lost.
        self.on_handshake = on_handshake
        self._ack: str | None = None

    def _orientation_gain(self, t: float) -> float:
        """Slowly-varying fraction of screen light the face catches."""
        if self.orientation_wobble <= 0:
            return 1.0
        mix = float(
            np.mean(np.sin(2.0 * np.pi * self._wobble_freqs * t + self._wobble_phases))
        )
        return 1.0 - self.orientation_wobble * (0.5 + 0.5 * mix)

    def screen_lux(self, displayed: Frame | None, t: float = 0.0) -> float:
        """Illuminance the screen currently delivers to Bob's face."""
        if displayed is None:
            mean_pixel = 0.0
        else:
            mean_pixel = frame_mean_luminance(displayed)
        nits = self.screen.emitted_luminance(mean_pixel)
        direct = screen_illuminance(nits, self.screen.area_m2, self.viewing_distance_m)
        return direct * self._orientation_gain(t)

    def produce_frame(self, t: float, displayed: Frame | None) -> Frame:
        if self._start_time is None:
            self._start_time = t
        if (
            self.on_handshake is not None
            and self._ack is None
            and displayed is not None
        ):
            payload = displayed.metadata.get("handshake")
            if payload is not None:
                self._ack = self.on_handshake(payload)
        pose = self.expression.sample(t)
        ambient_lux = self.ambient.sample(t)
        screen_lux = self.screen_lux(displayed, t)
        result = self.renderer.render(
            pose,
            face_illuminance_lux=ambient_lux + screen_lux,
            ambient_lux=ambient_lux,
            screen_lux=screen_lux,
        )
        metadata: dict = {
            "screen_lux": screen_lux,
            "ambient_lux": ambient_lux,
        }
        if self._ack is not None:
            metadata["ack"] = self._ack
        frame = self.camera.capture(
            result.radiance,
            timestamp=t,
            metadata=metadata,
        )
        if (
            not self.camera.auto_exposure.locked
            and t - self._start_time >= self.lock_exposure_after_s
        ):
            self.camera.auto_exposure.lock()
        return frame
