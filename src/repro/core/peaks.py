"""Peak finding with prominence (Sec. V, final stage).

The "traditional peak finding algorithm" the paper applies to each
smoothed variance signal, implemented from scratch: plateau-aware local
maxima, each qualified by its topographic *prominence* (height above the
highest saddle separating it from higher terrain).  The paper gates peaks
at a minimum prominence of 10 (screen signal) or 0.5 (face signal).

:func:`find_peaks` is a batch kernel like the filter stages of
:mod:`~repro.core.batch`: it takes a ``(signals, samples)`` block of
equal-length rows, so that :func:`~repro.core.preprocessing.preprocess_batch`
finds the peaks of a whole length group in one call, and one signal
``x`` is the block ``x[None, :]``.  Each row's peaks depend on that row
and its gate only.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

import numpy as np

__all__ = ["Peak", "find_peaks"]


@dataclasses.dataclass(frozen=True)
class Peak:
    """One local maximum of a 1-D signal."""

    index: int
    height: float
    prominence: float


def _gates(min_prominence: float | Sequence[float], count: int) -> np.ndarray:
    """One positive gate per row, from one gate for all or one per row."""
    gates = np.asarray(min_prominence, dtype=np.float64)
    if gates.ndim == 0:
        gates = np.full(count, gates)
    elif gates.shape != (count,):
        raise ValueError(f"need one min_prominence per row: got {gates.size} for {count} rows")
    if count and not gates.min() > 0:  # a NaN gate fails this test too
        raise ValueError(f"min_prominence must be positive, got {gates[~(gates > 0)][0]!r}")
    return gates


@np.errstate(invalid="ignore")  # inf - inf is NaN, which fails every gate
def find_peaks(
    rows: np.ndarray,
    min_prominence: float | Sequence[float],
) -> list[list[Peak]]:
    """All local maxima with prominence >= the gate, one list per row.

    A plateau (run of equal values) counts as one maximum, reported at
    its midpoint, when both neighbours of the run are strictly lower.
    Signal endpoints are never maxima (their outer side is unknown).
    A maximum's prominence is its height minus the higher of its two
    saddles: walking left and right until terrain rises above the peak
    (or the signal ends), the lowest point passed on each side.

    The block is searched at once, not sample by sample:

    1. A sample ``i`` starts an ascent when ``~(x[i] <= x[i - 1])``, so
       the sample after a NaN does too, and a NaN never peaks.  It is a
       maximum when the next sample is lower; when the next sample is
       equal, the plateau it starts is walked in scalar code (rare).
    2. Every row is framed by a NaN on either side.  A candidate of
       height ``h`` is walled in by the nearest samples, left and right,
       where ``~(x <= h)`` (higher, NaN, or the frame): one
       ``searchsorted`` over the flat positions of every candidate's
       walls finds both.
    3. One ``minimum.reduceat`` takes each candidate's two saddles, the
       minima between its walls on either side of it.  ``min`` is exact,
       and the sign of a zero saddle changes ``h - saddle`` only when
       ``h`` is zero too, where the prominence is zero and fails every
       gate.

    This is a fixed number of NumPy calls per block, whatever its row
    and candidate counts; only a plateau costs Python steps per sample.
    Heights and prominences are Python floats.

    Parameters
    ----------
    rows:
        2-D ``(signals, samples)`` array, any memory order.
    min_prominence:
        Gate on peak prominence (paper: 10 for screen light, 0.5 for
        face-reflected light): one positive float for every row, or one
        per row.
    """
    block = np.asarray(rows, dtype=np.float64)
    if block.ndim != 2:
        raise ValueError("find_peaks takes 2-D (signals, samples) rows")
    count, n = block.shape
    gates = _gates(min_prominence, count)
    found: list[list[Peak]] = [[] for _ in range(count)]
    if n < 3 or count == 0:
        return found
    # Each row framed by a NaN on either side: a wall at the row's ends.
    framed = np.full((count, n + 2), np.nan)
    x = framed[:, 1:-1]
    x[...] = block
    mid = x[:, 1:-1]
    after = x[:, 2:]
    row, col = np.nonzero(~(mid <= x[:, :-2]) & (after <= mid))
    index = col + 1
    height = mid[row, col]
    plateau = after[row, col] == height
    if plateau.any():
        # A plateau: walk it, and keep its midpoint when a fall ends it.
        last = n - 1
        for k in np.flatnonzero(plateau).tolist():
            v = x[row[k]]
            i = j = int(index[k])
            while j < last and v[j + 1] == v[i]:
                j += 1
            index[k] = (i + j) // 2 if j < last and v[j + 1] < v[i] else -1
        real = index >= 0
        row, index = row[real], index[real]
        height = x[row, index]
    # Candidate k's framed row is block k of ``terrain``; its walls, in
    # flat positions, bracket the candidate at ``at``.
    terrain = framed[row]
    walls = np.flatnonzero(~(terrain <= height[:, None]))
    at = np.arange(0, row.size * (n + 2), n + 2) + (index + 1)
    right = np.searchsorted(walls, at)
    bounds = np.empty((row.size, 3), dtype=np.intp)
    bounds[:, 0] = walls[right - 1] + 1
    bounds[:, 1] = at
    bounds[:, 2] = walls[right]
    # Minima over [left wall + 1, at) and [at, right wall): the peak is
    # the highest sample of both ranges, so the right one may hold it,
    # and an empty left range (a NaN just before the peak) yields the
    # sample at ``at``, the height itself.
    sides = np.minimum.reduceat(terrain.ravel(), bounds.ravel())
    prominence = height - np.maximum(sides[0::3], sides[1::3])
    passed = prominence >= gates[row]
    for r, i, h, p, ok in zip(
        row.tolist(), index.tolist(), height.tolist(), prominence.tolist(), passed.tolist()
    ):
        if ok:
            found[r].append(Peak(index=i, height=h, prominence=p))
    return found
