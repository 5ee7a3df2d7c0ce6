"""Head pose and expression dynamics.

The paper lets volunteers "freely move the head as long as the whole face
can be captured" and talk during the chat (Sec. II-D, IV).  Both movements
matter to the detector: head motion jitters the nasal-bridge ROI, and
blinking/talking is exactly why the paper measures the nose rather than
the eyes or mouth.

:class:`ExpressionTrack` is a deterministic (seeded) generator of
:class:`PoseState` values: smooth multi-sinusoid head drift, Poisson blink
events, and a band-limited talking signal.  Face reenactment transfers
*these* dynamics from the driving actor onto the target face — which is
why the attack simulator reuses this class directly.
"""

from __future__ import annotations

import bisect
import dataclasses
import math

import numpy as np

__all__ = ["PoseState", "ExpressionTrack"]


@dataclasses.dataclass(frozen=True)
class PoseState:
    """Instantaneous head pose and expression.

    ``center_x``/``center_y`` are in normalized frame coordinates [0, 1];
    ``scale`` is the face half-width as a fraction of the frame width;
    ``roll`` is in radians; ``blink`` and ``mouth_open`` are in [0, 1].
    """

    center_x: float
    center_y: float
    scale: float
    roll: float
    blink: float
    mouth_open: float


@dataclasses.dataclass(frozen=True)
class _Blink:
    start_s: float
    duration_s: float

    def amount(self, t: float) -> float:
        """Eyelid closure in [0, 1] (triangular profile)."""
        phase = (t - self.start_s) / self.duration_s
        if phase < 0.0 or phase > 1.0:
            return 0.0
        return 1.0 - abs(2.0 * phase - 1.0)


class ExpressionTrack:
    """Seeded pose/expression process for one performance.

    Parameters
    ----------
    seed:
        Seed of the internal generator; two tracks with the same seed
        produce identical performances (the property reenactment
        transfer relies on in tests).
    movement_amplitude:
        Scale of head translation, as a fraction of the frame
        (user-specific; the dataset draws it per volunteer).
    scale_base:
        Nominal face half-width as a fraction of frame width.
    blink_rate_hz:
        Poisson rate of blinks (humans blink roughly every 3-6 s).
    talking:
        Whether the mouth articulates.
    duration_s:
        Horizon for pre-drawing blink events.
    """

    def __init__(
        self,
        seed: int,
        movement_amplitude: float = 0.02,
        scale_base: float = 0.30,
        blink_rate_hz: float = 0.25,
        talking: bool = True,
        duration_s: float = 600.0,
    ) -> None:
        if movement_amplitude < 0:
            raise ValueError("movement_amplitude must be non-negative")
        if not 0.05 <= scale_base <= 0.45:
            raise ValueError("scale_base must keep the face inside the frame")
        if blink_rate_hz < 0:
            raise ValueError("blink_rate_hz must be non-negative")
        if duration_s <= 0:
            raise ValueError("duration_s must be positive")
        self.movement_amplitude = movement_amplitude
        self.scale_base = scale_base
        self.talking = talking
        rng = np.random.default_rng(seed)

        # Head drift: sum of three incommensurate sinusoids per axis.
        self._freqs_x = rng.uniform(0.03, 0.25, size=3)
        self._freqs_y = rng.uniform(0.03, 0.25, size=3)
        self._phases_x = rng.uniform(0.0, 2.0 * math.pi, size=3)
        self._phases_y = rng.uniform(0.0, 2.0 * math.pi, size=3)
        self._amps = np.array([0.55, 0.3, 0.15])

        # Slow in-plane rotation and distance (scale) breathing.
        self._roll_amp = float(rng.uniform(0.0, 0.05))
        self._roll_freq = float(rng.uniform(0.02, 0.1))
        self._roll_phase = float(rng.uniform(0.0, 2.0 * math.pi))
        self._scale_amp = float(rng.uniform(0.0, 0.02))
        self._scale_freq = float(rng.uniform(0.02, 0.08))
        self._scale_phase = float(rng.uniform(0.0, 2.0 * math.pi))

        # Blink events over the whole horizon (kept sorted for bisection).
        self._blinks: list[_Blink] = []
        if blink_rate_hz > 0:
            t = 0.0
            while True:
                t += float(rng.exponential(1.0 / blink_rate_hz))
                if t >= duration_s:
                    break
                self._blinks.append(_Blink(start_s=t, duration_s=float(rng.uniform(0.15, 0.3))))
        self._blink_starts = [b.start_s for b in self._blinks]

        # Talking: band-limited mouth motion.
        self._mouth_freqs = rng.uniform(0.8, 2.5, size=3)
        self._mouth_phases = rng.uniform(0.0, 2.0 * math.pi, size=3)

    def sample(self, t: float) -> PoseState:
        """Pose at time ``t`` (seconds)."""
        if not math.isfinite(t) or t < 0:
            raise ValueError("time must be finite and non-negative")
        dx = float(
            np.sum(self._amps * np.sin(2.0 * math.pi * self._freqs_x * t + self._phases_x))
        )
        dy = float(
            np.sum(self._amps * np.sin(2.0 * math.pi * self._freqs_y * t + self._phases_y))
        )
        center_x = 0.5 + self.movement_amplitude * dx
        center_y = 0.48 + self.movement_amplitude * dy
        roll = self._roll_amp * math.sin(2.0 * math.pi * self._roll_freq * t + self._roll_phase)
        scale = self.scale_base + self._scale_amp * math.sin(
            2.0 * math.pi * self._scale_freq * t + self._scale_phase
        )

        # Only the most recent blink can be active (blinks are brief and
        # sparse); bisect instead of scanning the whole horizon.
        blink = 0.0
        if self._blinks:
            pos = bisect.bisect_right(self._blink_starts, t)
            if pos > 0:
                blink = self._blinks[pos - 1].amount(t)

        mouth = 0.0
        if self.talking:
            raw = float(
                np.mean(np.sin(2.0 * math.pi * self._mouth_freqs * t + self._mouth_phases))
            )
            mouth = max(0.0, raw)
        return PoseState(
            center_x=center_x,
            center_y=center_y,
            scale=scale,
            roll=roll,
            blink=blink,
            mouth_open=mouth,
        )
