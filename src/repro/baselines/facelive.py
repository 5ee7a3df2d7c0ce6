"""FaceLive-style motion-correlation baseline (the paper's ref. [13]).

FaceLive correlates head movement measured by the *prover's* motion
sensors with the head-pose change visible in the video.  The paper's
criticism (Sec. I, X): a reenactment attacker controls both sides of the
correlation — it knows the fake video's head motion (it *generated* it)
and can fabricate matching sensor readings, so the check collapses.

This module implements the check and the forgery:

* :class:`SensorChannel` — what the prover reports as IMU data.  Honest
  provers report their true motion plus sensor noise; the attacker
  replays the fake video's own motion track (capability 2/3 of the
  adversary model makes this trivial).
* :class:`FaceLiveDetector` — Pearson correlation of the two tracks with
  a threshold.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..core.features import pearson_correlation

__all__ = ["SensorChannel", "FaceLiveDetector"]


@dataclasses.dataclass
class SensorChannel:
    """Motion-sensor readings reported by the (untrusted) prover.

    ``honest_motion`` is what the device actually measured; an attacker
    simply substitutes the fake video's own motion track (``forge``).
    The detector has no way to tell which it received — that is exactly
    the trust problem the paper points out.
    """

    readings: np.ndarray

    @classmethod
    def honest(  # reprolint: disable=R009 -- writes results/baseline_facelive.txt
        cls,
        true_motion: np.ndarray,
        noise_std: float = 0.3,
        seed: int = 0,
    ) -> "SensorChannel":
        """A genuine device: true motion plus IMU noise."""
        rng = np.random.default_rng(seed)
        readings = np.asarray(true_motion, dtype=np.float64)
        return cls(readings=readings + rng.normal(0.0, noise_std, readings.size))

    @classmethod
    def forged(cls, fake_video_motion: np.ndarray) -> "SensorChannel":
        """An attacker: report exactly the motion visible in the fake
        video (it generated that motion, so it knows it perfectly)."""
        return cls(readings=np.asarray(fake_video_motion, dtype=np.float64).copy())


@dataclasses.dataclass
class FaceLiveDetector:
    """Correlate reported sensor motion against video motion."""

    threshold: float = 0.5

    def score(self, video_motion: np.ndarray, sensors: SensorChannel) -> float:
        """Pearson correlation of the two motion tracks."""
        video = np.asarray(video_motion, dtype=np.float64)
        if video.size != sensors.readings.size:
            raise ValueError("motion tracks must have equal length")
        return pearson_correlation(video, sensors.readings)

    def is_live(self, video_motion: np.ndarray, sensors: SensorChannel) -> bool:
        return self.score(video_motion, sensors) >= self.threshold
