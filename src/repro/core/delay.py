"""Network-delay estimation and removal (Sec. VI).

The received video's reflection trails the transmitted video by the
round-trip network delay plus display/processing latency.  Before
correlating trends, the paper "estimates and removes the delay based on
the average time difference between matched luminance changes": the
feature extractor's per-clip tail runs :func:`estimate_delay`, then
:func:`_overlap`.
"""

from __future__ import annotations

import numpy as np

from .matching import ChangeMatch

__all__ = ["estimate_delay"]


def estimate_delay(matches: list[ChangeMatch]) -> float | None:
    """Mean received-minus-transmitted time difference over matches.

    Returns ``None`` when there are no matches to estimate from.
    """
    if not matches:
        return None
    # np.mean's summation order and division, without its overhead.
    differences = np.array([m.time_difference_s for m in matches], dtype=np.float64)
    return float(differences.sum()) / len(matches)


def _overlap(
    t: np.ndarray, r: np.ndarray, delay_s: float, sample_rate_hz: float
) -> tuple[np.ndarray, np.ndarray] | None:
    """Shift the received signal back by the estimated delay and trim
    both signals to their overlapping span, as views.

    A positive ``delay_s`` means the received signal lags: sample ``i`` of
    the output pair holds t[i] against r[i + delay].  Negative delays
    (possible when noise mis-matches changes) shift the other way.
    ``None`` when the delay leaves no overlap.
    """
    shift = int(round(delay_s * sample_rate_hz))
    if shift >= 0:
        t_aligned = t
        r_aligned = r[shift:]
    else:
        t_aligned = t[-shift:]
        r_aligned = r
    n = min(t_aligned.size, r_aligned.size)
    if n < 1:
        return None
    return t_aligned[:n], r_aligned[:n]
