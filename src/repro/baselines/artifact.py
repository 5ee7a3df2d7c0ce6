"""Artifact-detection baseline (the Sec. X class the paper argues against).

Artifact detectors classify *appearance statistics* of the received video
alone — synthesis flicker, boundary blending, temporal noise signatures —
with a supervised model.  This implementation extracts three cheap
temporal-artifact statistics and fits a Gaussian discriminant.

It exists to demonstrate the paper's two criticisms concretely:

1. **It needs attacker training data** (``fit`` takes both classes); the
   paper's detector needs none.
2. **It does not generalize**: trained on one synthesis artifact level,
   it degrades on attacks with a different level, whereas the
   challenge-response signal is invariant to synthesis quality (the
   benches show this).
"""

from __future__ import annotations

import numpy as np

from ..video.stream import VideoStream
from ..video.luminance import pixel_luminance

__all__ = ["ArtifactFeatures", "ArtifactDetector", "artifact_features"]


class ArtifactFeatures:
    """Names of the statistics, for reports."""

    NAMES = ("frame_diff_energy", "flicker_index", "highfreq_ratio")


def artifact_features(stream: VideoStream) -> np.ndarray:
    """Three temporal-artifact statistics of a received video clip.

    * ``frame_diff_energy`` — mean absolute inter-frame pixel difference
      (synthesis jitter raises it beyond natural motion).
    * ``flicker_index`` — standard deviation of the frame-luminance
      first difference (global synthesis flicker).
    * ``highfreq_ratio`` — energy fraction of the frame-mean-luminance
      signal above 2 Hz (natural videos concentrate energy low).
    """
    if len(stream) < 4:
        raise ValueError("need at least 4 frames for artifact statistics")
    luma_frames = [pixel_luminance(f.pixels) for f in stream]
    diffs = [
        np.abs(b - a).mean() for a, b in zip(luma_frames[:-1], luma_frames[1:])
    ]
    frame_means = np.array([lf.mean() for lf in luma_frames])
    flicker = float(np.diff(frame_means).std())

    spectrum = np.abs(np.fft.rfft(frame_means - frame_means.mean())) ** 2
    freqs = np.fft.rfftfreq(frame_means.size, d=1.0 / stream.fps)
    total = spectrum.sum()
    high = spectrum[freqs > 2.0].sum()
    ratio = float(high / total) if total > 0 else 0.0
    return np.array([float(np.mean(diffs)), flicker, ratio])


class ArtifactDetector:
    """Two-class Gaussian discriminant over artifact statistics."""

    def __init__(self) -> None:
        self._mean: dict[str, np.ndarray] = {}
        self._var: dict[str, np.ndarray] = {}

    @property
    def is_trained(self) -> bool:
        return bool(self._mean)

    def fit(self, genuine: np.ndarray, fake: np.ndarray) -> "ArtifactDetector":
        """Fit on labelled feature matrices — note that unlike the
        paper's detector, *attacker data is mandatory here*."""
        genuine = np.asarray(genuine, dtype=np.float64)
        fake = np.asarray(fake, dtype=np.float64)
        if genuine.ndim != 2 or fake.ndim != 2 or genuine.shape[1] != fake.shape[1]:
            raise ValueError("feature matrices must be 2-D with equal widths")
        if genuine.shape[0] < 2 or fake.shape[0] < 2:
            raise ValueError("need at least 2 samples per class")
        for label, data in (("genuine", genuine), ("fake", fake)):
            self._mean[label] = data.mean(axis=0)
            self._var[label] = data.var(axis=0) + 1e-9
        return self

    def _log_likelihood(self, features: np.ndarray, label: str) -> float:
        mean = self._mean[label]
        var = self._var[label]
        return float(
            -0.5 * (np.log(2 * np.pi * var) + (features - mean) ** 2 / var).sum()
        )

    def is_live(self, features: np.ndarray) -> bool:
        """True when the genuine class is more likely."""
        if not self.is_trained:
            raise RuntimeError("fit the detector first")
        features = np.asarray(features, dtype=np.float64)
        return self._log_likelihood(features, "genuine") >= self._log_likelihood(
            features, "fake"
        )

    def is_live_stream(self, stream: VideoStream) -> bool:  # reprolint: disable=R009 -- test-only, see ROADMAP
        """Convenience: classify a received video clip directly."""
        return self.is_live(artifact_features(stream))
