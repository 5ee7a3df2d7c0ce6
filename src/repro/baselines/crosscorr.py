"""Naive cross-correlation liveness detector.

The obvious simple alternative to the paper's pipeline: low-pass both
luminance signals, normalize, and threshold the maximum normalized
cross-correlation over a lag window.  No feature engineering, no outlier
model — a useful lower bound that shows what the paper's matched-change
behaviour features and LOF classifier add (it needs a hand-picked global
threshold and degrades when clips contain few or weak changes).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..core.config import DetectorConfig
from ..core.batch import reflect_convolve_batch
from ..core.preprocessing import design_lowpass

__all__ = ["CrossCorrelationDetector", "max_normalized_crosscorr"]


def max_normalized_crosscorr(
    x: np.ndarray,
    y: np.ndarray,
    max_lag: int,
) -> tuple[float, int]:
    """(peak normalized cross-correlation, lag in samples), lag >= 0 only
    (the reflection can only trail the challenge)."""
    a = np.asarray(x, dtype=np.float64)
    b = np.asarray(y, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1 or a.size != b.size:
        raise ValueError("inputs must be 1-D arrays of equal length")
    if max_lag < 0 or max_lag >= a.size:
        raise ValueError("max_lag must lie in [0, len)")
    best = -1.0
    best_lag = 0
    for lag in range(max_lag + 1):
        a_seg = a[: a.size - lag]
        b_seg = b[lag:]
        sa = a_seg.std()
        sb = b_seg.std()
        if sa < 1e-12 or sb < 1e-12:
            continue
        corr = float(
            ((a_seg - a_seg.mean()) * (b_seg - b_seg.mean())).mean() / (sa * sb)
        )
        if corr > best:
            best = corr
            best_lag = lag
    return best, best_lag


@dataclasses.dataclass
class CrossCorrelationDetector:
    """Threshold on the peak lagged correlation of the two signals.

    Parameters
    ----------
    threshold:
        Accept when the peak correlation is at least this.
    max_lag_s:
        Largest admissible reflection lag.
    config:
        Shared sampling/filtering constants.
    """

    threshold: float = 0.6
    max_lag_s: float = 1.5
    config: DetectorConfig = dataclasses.field(default_factory=DetectorConfig)

    def score(self, transmitted: np.ndarray, received: np.ndarray) -> float:
        """Peak normalized cross-correlation (higher = more live)."""
        fs = self.config.sample_rate_hz
        kernel = design_lowpass(self.config.lowpass_cutoff_hz, fs, self.config.lowpass_taps)
        t_filtered, r_filtered = reflect_convolve_batch(np.stack([transmitted, received]), kernel)
        max_lag = int(round(self.max_lag_s * fs))
        max_lag = min(max_lag, t_filtered.size - 2)
        corr, _ = max_normalized_crosscorr(t_filtered, r_filtered, max_lag)
        return corr

    def is_live(self, transmitted: np.ndarray, received: np.ndarray) -> bool:
        """Accept/reject decision."""
        return self.score(transmitted, received) >= self.threshold
