"""Peak finding with prominence (Sec. V, final stage).

The "traditional peak finding algorithm" the paper applies to each
smoothed variance signal, implemented from scratch: plateau-aware local
maxima, each qualified by its topographic *prominence* (height above the
highest saddle separating it from higher terrain).  The paper gates peaks
at a minimum prominence of 10 (screen signal) or 0.5 (face signal).
"""

from __future__ import annotations

import dataclasses

import numpy as np

__all__ = ["Peak", "find_peaks"]


@dataclasses.dataclass(frozen=True)
class Peak:
    """One local maximum of a 1-D signal."""

    index: int
    height: float
    prominence: float


def find_peaks(signal: np.ndarray, min_prominence: float) -> list[Peak]:
    """All local maxima with prominence >= ``min_prominence``.

    A plateau (run of equal values) counts as one maximum, reported at
    its midpoint, when both neighbours of the run are strictly lower.
    Signal endpoints are never maxima (their outer side is unknown).
    A maximum's prominence is its height minus the higher of its two
    saddles: walking left and right until terrain rises above the peak
    (or the signal ends), the lowest point passed on each side.

    One pass over the samples as Python floats: numpy scalar indexing
    costs more than the comparisons themselves, and Python floats follow
    the same IEEE rules (a NaN compares false, so it is never a maximum
    and it stops a saddle walk).

    Parameters
    ----------
    signal:
        1-D array.
    min_prominence:
        Gate on peak prominence (paper: 10 for screen light, 0.5 for
        face-reflected light).
    """
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("signal must be 1-D")
    if min_prominence <= 0:
        raise ValueError("min_prominence must be positive")
    v = x.tolist()
    n = len(v)
    last = n - 1
    peaks: list[Peak] = []
    i = 1
    while i < last:
        h = v[i]
        if h <= v[i - 1]:
            i += 1
            continue
        # Ascent found; walk any plateau.
        j = i
        while j < last and v[j + 1] == h:
            j += 1
        if j < last and v[j + 1] < h:
            index = (i + j) // 2
            # The midpoint's own value: a plateau may mix 0.0 and -0.0.
            height = v[index]
            left = height
            for k in range(index - 1, -1, -1):
                sample = v[k]
                if not sample <= height:
                    break
                if sample < left:
                    left = sample
            right = height
            for k in range(index + 1, n):
                sample = v[k]
                if not sample <= height:
                    break
                if sample < right:
                    right = sample
            prominence = height - max(left, right)
            if prominence >= min_prominence:
                peaks.append(Peak(index=index, height=height, prominence=prominence))
        i = j + 1
    return peaks
