"""Structure-of-arrays batch core for the Sec. V / Sec. VI hot path.

The per-clip signal chain (filter -> peaks -> z1..z4) does tiny NumPy
calls per clip, so dispatch overhead — not arithmetic — dominates the
experiment runners (``results/engine_scaling.txt``).  This module holds
the batched kernels that process N clips per NumPy call:

* :class:`ClipBatch` — padded ``(clips, max_len)`` float64 matrix plus a
  per-clip length vector; the SoA container every ``*_batch`` kernel
  consumes.
* ``reflect_convolve_batch`` / ``moving_variance_batch`` /
  ``threshold_filter_batch`` / ``moving_rms_batch`` — the filter stages
  of Sec. V over a dense group of equal-length rows.  They take and
  return ``(clips, samples)`` arrays but compute on the **time-major**
  block ``rows.T``: a convolution tap is two contiguous operations over
  one slice of the padded ``(samples, clips)`` block, and the window
  sums are ``cumsum(axis=0)``.  Each returns ``out.T``, a free view
  whose own ``.T`` is contiguous again for the next stage (the
  elementwise threshold keeps its input's memory order).  Every
  element gets the same operations in the same order as the row-major
  form (``add.accumulate`` is sequential along any axis), so the
  outputs are bit-identical to it.
* :func:`dtw_distance_batch` — feature ``z4``'s dynamic program as one
  anti-diagonal wavefront over every padded pair.

Every kernel is **row-independent**: the result of row ``i`` never
depends on any other row, so running a clip in a batch of one is
bit-identical to running it in a batch of N.  These kernels are the only
form of each filter stage (one clip ``x`` is the batch ``x[None, :]``),
and ``tests/property/test_prop_batch.py`` pins the identity across
ragged batches.  The filter kernels see rows of *different*
lengths only after grouping (:func:`group_by_length`), because a
filter's edge handling depends on where the row ends.  The DTW kernel
needs no grouping: it sweeps all pairs padded to one shape, and since a
DTW cell reads only cells with smaller indices, a pair's own cells
never read its padding.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

import numpy as np

__all__ = [
    "ClipBatch",
    "group_by_length",
    "reflect_convolve_batch",
    "moving_variance_batch",
    "threshold_filter_batch",
    "moving_rms_batch",
    "dtw_distance_batch",
]


def _as_row(signal: np.ndarray) -> np.ndarray:
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("signal must be 1-D")
    return x


def _as_rows(rows: np.ndarray) -> np.ndarray:
    x = np.asarray(rows, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("batch kernels take 2-D (clips, samples) arrays")
    return x


@dataclasses.dataclass(frozen=True)
class ClipBatch:
    """N ragged clips packed as one padded float64 matrix.

    ``data`` has shape ``(clips, max_len)``; row ``i`` holds clip ``i``
    in ``data[i, :lengths[i]]`` and zero padding after it.  The padding
    is inert: the filter kernels group rows by length and slice it off
    before computing, and the DTW wavefront never reads it into a
    pair's own cells, so it never contaminates a result.
    """

    data: np.ndarray
    lengths: np.ndarray

    def __post_init__(self) -> None:
        if self.data.ndim != 2 or self.data.dtype != np.float64:
            raise ValueError("data must be a 2-D float64 array")
        if self.lengths.ndim != 1 or self.lengths.shape[0] != self.data.shape[0]:
            raise ValueError("lengths must be 1-D with one entry per row")
        if self.lengths.size and (
            self.lengths.min() < 0 or self.lengths.max() > self.data.shape[1]
        ):
            raise ValueError("lengths must lie in [0, data.shape[1]]")

    @classmethod
    def from_signals(cls, signals: Sequence[np.ndarray]) -> "ClipBatch":
        """Pack a ragged list of 1-D signals into one padded batch."""
        arrays = [_as_row(s) for s in signals]
        lengths = np.array([a.size for a in arrays], dtype=np.int64)
        max_len = int(lengths.max()) if arrays else 0
        data = np.zeros((len(arrays), max_len), dtype=np.float64)
        for i, a in enumerate(arrays):
            data[i, : a.size] = a
        return cls(data=data, lengths=lengths)

    def __len__(self) -> int:
        return self.data.shape[0]

    @property
    def max_length(self) -> int:
        return self.data.shape[1]

    def row(self, i: int) -> np.ndarray:
        """Clip ``i`` without its padding (a view into ``data``)."""
        return self.data[i, : self.lengths[i]]

    def rows(self) -> list[np.ndarray]:
        """All clips without padding, in batch order."""
        return [self.row(i) for i in range(len(self))]


def group_by_length(lengths: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """Deterministic grouping of batch rows by clip length.

    Returns ``(length, row_indices)`` pairs sorted by ascending length,
    indices ascending within each group — the iteration order every
    batch consumer uses, so scatter/gather is reproducible.
    """
    arr = np.asarray(lengths, dtype=np.int64)
    return [(int(val), np.nonzero(arr == val)[0]) for val in np.unique(arr)]


#: Distinct ``(length, half)`` shapes whose gathers :func:`_reflect_index` keeps.
_GATHER_MEMO_SIZE = 32
_GATHERS: dict[tuple[int, int], np.ndarray] = {}


def _reflect_index(length: int, half: int) -> np.ndarray:
    """Column index that pads a row of ``length`` by ``half`` on each side.

    It is the historical padding (reflect capped at ``length - 1``, edge
    values beyond that) applied once to ``arange(length)``, so
    ``rows[:, index]`` equals padding the rows themselves by construction.
    Kept per shape as a read-only array, oldest entry evicted first.
    """
    key = (length, half)
    index = _GATHERS.get(key)
    if index is None:
        index = np.arange(length)
        reflect_pad = min(half, length - 1)
        if reflect_pad > 0:
            index = np.pad(index, reflect_pad, mode="reflect")
        extra = half - reflect_pad
        if extra > 0:
            index = np.pad(index, extra, mode="edge")
        index.flags.writeable = False
        if len(_GATHERS) >= _GATHER_MEMO_SIZE:
            del _GATHERS[next(iter(_GATHERS))]  # the oldest entry
        _GATHERS[key] = index
    return index


def reflect_convolve_batch(rows: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Same-length convolution with reflected edges, one row per clip.

    Matches the padding semantics of the historical per-clip
    ``_reflect_convolve`` (reflect capped at ``len - 1``, edge values
    beyond that), evaluated as a tap-accumulation sum so each output row
    depends only on its own input row.  The padding is one gather
    through the cached :func:`_reflect_index` of the row shape, taken on
    the time-major ``rows.T``, so each tap reads one contiguous slice of
    the padded ``(length + 2 * half, clips)`` block.
    """
    rows = _as_rows(rows)
    kernel = np.asarray(kernel, dtype=np.float64)
    if kernel.ndim != 1 or kernel.size == 0:
        raise ValueError("kernel must be a non-empty 1-D array")
    half = kernel.size // 2
    count, length = rows.shape
    if length == 0 or count == 0 or half == 0:
        if half == 0 and length > 0 and count > 0:
            return kernel[0] * rows
        return rows.copy()
    padded = rows.T[_reflect_index(length, half)]
    # out[m] = sum_k kernel[k] * padded[m + shift - k]; with the
    # symmetric padding above the kernel always has full support, so no
    # boundary cases remain (shift reproduces np.convolve's "same"
    # alignment for odd and even kernel sizes alike).
    shift = half + (kernel.size - 1) // 2
    out = np.zeros((length, count))
    term = np.empty_like(out)
    for k in range(kernel.size):
        start = shift - k
        np.multiply(padded[start : start + length], kernel[k], out=term)
        out += term
    return out.T


def _window_sums(block: np.ndarray) -> np.ndarray:
    """Running sums of a time-major block with a zero row in front:
    ``sums[m]`` is the sum of the first ``m`` samples of each column."""
    sums = np.empty((block.shape[0] + 1, block.shape[1]))
    sums[0] = 0.0
    np.cumsum(block, axis=0, out=sums[1:])
    return sums


def moving_variance_batch(rows: np.ndarray, window: int) -> np.ndarray:
    """Sliding-window variance per row.

    A significant luminance change (a fast rise or drop within the
    window) produces a local maximum in this signal; slow low-frequency
    noise produces only small values.  Each output sample is the
    variance of the window *ending* there (the leading ``window - 1``
    samples use the growing prefix), so a variance peak trails its
    luminance edge by at most the window length.
    """
    rows = _as_rows(rows)
    if window < 1:
        raise ValueError("window must be >= 1")
    count, length = rows.shape
    if length == 0 or count == 0:
        return rows.copy()
    block = rows.T
    csum = _window_sums(block)
    csum2 = _window_sums(block * block)
    idx = np.arange(length)
    lo = np.maximum(idx - window + 1, 0)
    n = (idx - lo + 1)[:, None]
    mean = (csum[1:] - csum[lo]) / n
    mean2 = (csum2[1:] - csum2[lo]) / n
    return np.maximum(mean2 - mean * mean, 0.0).T


def threshold_filter_batch(rows: np.ndarray, cutoff: float) -> np.ndarray:
    """Zero out samples below the cut-off, elementwise per row."""
    rows = _as_rows(rows)
    if not cutoff >= 0:
        raise ValueError(f"cutoff must be non-negative, got {cutoff!r}")
    return np.where(rows >= cutoff, rows, 0.0)


def moving_rms_batch(rows: np.ndarray, window: int) -> np.ndarray:
    """Sliding root-mean-square over a centered window, per row."""
    rows = _as_rows(rows)
    if window < 1:
        raise ValueError("window must be >= 1")
    count, length = rows.shape
    if length == 0 or count == 0:
        return rows.copy()
    block = rows.T
    csum2 = _window_sums(block * block)
    half = window // 2
    idx = np.arange(length)
    lo = np.maximum(idx - half, 0)
    hi = np.minimum(idx + window - half, length)
    return np.sqrt((csum2[hi] - csum2[lo]) / (hi - lo)[:, None]).T


def _time_major(signals: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """``signals`` packed by :meth:`ClipBatch.from_signals` as one
    contiguous ``(max_len, clips)`` array, plus the length vector."""
    batch = ClipBatch.from_signals(signals)
    return np.ascontiguousarray(batch.data.T), batch.lengths


def dtw_distance_batch(
    xs: Sequence[np.ndarray],
    ys: Sequence[np.ndarray],
) -> np.ndarray:
    """Exact DTW distances for many ``(x, y)`` pairs in one wavefront.

    ``D[i, j] = |x[i-1] - y[j-1]| + min(D[i-1, j-1], D[i-1, j], D[i, j-1])``
    with ``D[0, 0] = 0`` and the rest of row and column 0 infinite; a
    pair's distance is ``D[n, m]``, the cost of the cheapest monotone
    alignment path (steps right, down or diagonal).

    Both sides are packed with :meth:`ClipBatch.from_signals` to one
    ``N`` and one ``M`` and the cost matrix is swept one anti-diagonal
    ``s = i + j`` at a time, from 2 to ``N + M``.  Cell ``(i, s - i)``
    reads diagonal ``s - 2`` at ``i - 1`` and diagonal ``s - 1`` at
    ``i - 1`` and ``i``, so a step is five in-place vector operations
    over every pair and every cell on the diagonal.  Three diagonal
    buffers of ``N + 1`` cells per pair are all the state; they are
    stored cell-major, ``(N + 1, k)``, so that each slice is one
    contiguous block.  Pair ``p`` is read off diagonal ``n_p + m_p`` at
    index ``n_p``.  Its own cells read only smaller ``i`` and ``j``, so
    the padding never reaches them, and ``abs``/``min``/``add`` are
    exact in IEEE-754: each distance is bit-identical to the scalar
    row-by-row dynamic program and does not depend on the batch it
    rides in.
    """
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have the same number of sequences")
    a, n = _time_major(xs)
    b, m = _time_major(ys)
    if n.size and min(n.min(), m.min()) < 1:
        raise ValueError("dtw inputs must be non-empty")
    big_n, k = a.shape
    big_m = b.shape[0]
    out = np.empty(k, dtype=np.float64)
    if k == 0:
        return out
    # Reverse y in time, so that y[s - i - 1] over rising i is a forward slice.
    b = np.ascontiguousarray(b[::-1])
    before, prev, cur = (np.full((big_n + 1, k), np.inf) for _ in range(3))
    before[0] = 0.0  # D[0, 0]; every other boundary cell stays inf
    finish = dict(group_by_length(n + m))
    for s in range(2, big_n + big_m + 1):
        lo, hi = max(1, s - big_m), min(big_n, s - 1)
        d = cur[lo : hi + 1]
        np.minimum(before[lo - 1 : hi], prev[lo - 1 : hi], out=d)
        np.minimum(d, prev[lo : hi + 1], out=d)
        # Diagonal s - 2 is dead once read, so its cells lo..hi take the
        # costs.  Index 0 (a boundary) is never touched, and each entry
        # is either rewritten as diagonal s + 1 or lies past column M,
        # where no later step reads.
        c = before[lo : hi + 1]
        np.subtract(a[lo - 1 : hi], b[big_m - s + lo : big_m - s + hi + 1], out=c)
        np.abs(c, out=c)
        np.add(c, d, out=d)
        if s == 2:
            before[0] = np.inf  # D[0, 0] feeds D[1, 1] only
        rows = finish.get(s)
        if rows is not None:
            out[rows] = cur[n[rows], rows]
        before, prev, cur = prev, cur, before
    return out
