"""Network-delay estimation and removal (Sec. VI).

The received video's reflection trails the transmitted video by the
round-trip network delay plus display/processing latency.  Before
correlating trends, the paper "estimates and removes the delay based on
the average time difference between matched luminance changes" — which is
exactly :func:`estimate_delay` + :func:`align_signals`.
"""

from __future__ import annotations

import numpy as np

from .matching import ChangeMatch

__all__ = ["estimate_delay", "align_signals"]


def estimate_delay(matches: list[ChangeMatch]) -> float | None:
    """Mean received-minus-transmitted time difference over matches.

    Returns ``None`` when there are no matches to estimate from.
    """
    if not matches:
        return None
    # np.mean's summation order and division, without its overhead.
    differences = np.array([m.time_difference_s for m in matches], dtype=np.float64)
    return float(differences.sum()) / len(matches)


def align_signals(
    transmitted: np.ndarray,
    received: np.ndarray,
    delay_s: float,
    sample_rate_hz: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Shift the received signal back by the estimated delay and trim
    both signals to their overlapping span.

    A positive ``delay_s`` means the received signal lags: sample ``i`` of
    the output pair holds transmitted[i] against received[i + delay].
    Negative delays (possible when noise mis-matches changes) shift the
    other way.  Raises when the overlap would be empty.
    """
    t = np.asarray(transmitted, dtype=np.float64)
    r = np.asarray(received, dtype=np.float64)
    if t.ndim != 1 or r.ndim != 1:
        raise ValueError("signals must be 1-D")
    if sample_rate_hz <= 0:
        raise ValueError("sample_rate_hz must be positive")
    aligned = _overlap(t, r, delay_s, sample_rate_hz)
    if aligned is None:
        raise ValueError(
            f"delay of {delay_s:.2f}s leaves no overlap between signals "
            f"of lengths {t.size} and {r.size}"
        )
    return aligned[0].copy(), aligned[1].copy()


def _overlap(
    t: np.ndarray, r: np.ndarray, delay_s: float, sample_rate_hz: float
) -> tuple[np.ndarray, np.ndarray] | None:
    """:func:`align_signals` as views and without its checks; ``None``
    when the delay leaves no overlap."""
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
