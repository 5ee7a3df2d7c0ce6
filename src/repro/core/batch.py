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
  anti-diagonal wavefront over every padded pair.  Its buffers and the
  views each step reads and writes are a plan built once per
  ``(N, M, k)`` shape, so a call runs bare ufunc calls.

Plans, reflect gathers and the FIR kernels of
:mod:`repro.core.preprocessing` are kept in memos (:class:`_Memo`), each
bounded by a fixed number of bytes, least recently used evicted first.
Like the tracer, they are process-local and single-threaded: a pool
worker builds its own, and two threads must not run a kernel at once.

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
import sys
from collections.abc import Hashable, Sequence
from typing import Generic, TypeVar

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


_K = TypeVar("_K", bound=Hashable)
_V = TypeVar("_V")


class _Memo(Generic[_K, _V]):
    """Least-recently-used memo that holds at most ``budget`` bytes.

    A hit in :meth:`get` makes its entry the newest.  :meth:`keep`
    evicts the least recently used entries until a new one fits, and
    does not keep an entry larger than the whole budget (its caller
    still uses it).  ``nbytes`` sums the sizes that :meth:`keep` was
    given for the entries kept.
    """

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self.nbytes = 0
        self._entries: dict[_K, tuple[_V, int]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: object) -> bool:
        return key in self._entries

    def get(self, key: _K) -> _V | None:
        entry = self._entries.pop(key, None)
        if entry is None:
            return None
        self._entries[key] = entry  # the newest end
        return entry[0]

    def values(self) -> list[_V]:
        return [value for value, _ in self._entries.values()]

    def clear(self) -> None:
        self._entries.clear()
        self.nbytes = 0

    def keep(self, key: _K, value: _V, nbytes: int) -> None:
        if nbytes > self.budget:
            return
        while self.nbytes + nbytes > self.budget:
            stalest = next(iter(self._entries))
            self.nbytes -= self._entries.pop(stalest)[1]
        self._entries[key] = (value, nbytes)
        self.nbytes += nbytes


#: Bytes of ``(length, half)`` gathers that :func:`_reflect_index` keeps.
_GATHER_MEMO_BYTES = 1 << 17
_GATHERS: _Memo[tuple[int, int], np.ndarray] = _Memo(_GATHER_MEMO_BYTES)


def _reflect_index(length: int, half: int) -> np.ndarray:
    """Column index that pads a row of ``length`` by ``half`` on each side.

    It is the historical padding (reflect capped at ``length - 1``, edge
    values beyond that) applied once to ``arange(length)``, so
    ``rows[:, index]`` equals padding the rows themselves by construction.
    Kept per shape as a read-only array, least recently used evicted
    first.
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
        _GATHERS.keep(key, index, index.nbytes)
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


#: Bytes of wavefront plans that :func:`_wavefront_plan` keeps.
_PLAN_MEMO_BYTES = 1 << 20


@dataclasses.dataclass(frozen=True)
class _WavefrontPlan:
    """Every buffer and view of one ``(N, M, k)`` DTW sweep.

    ``buffers`` is the three diagonal buffers, ``(N + 2, k)`` each:
    cells ``-1..N`` of a diagonal, cell ``i`` of pair ``p`` at
    ``[i + 1, p]``, and diagonal ``s`` in ``buffers[s % 3]``.
    ``diagonals`` is the same memory from cell 0 on.  ``a`` is the
    packed x block, ``(N, k)``, after a zero row that stands for
    ``x[-1]``; ``b`` is the time-reversed y block, ``(M, k)``.
    ``steps[s - 2]`` holds the six 1-D views step ``s`` reads and
    writes, in the order :func:`_sweep` takes them.
    """

    buffers: np.ndarray
    diagonals: np.ndarray
    a: np.ndarray
    b: np.ndarray
    steps: list[tuple[np.ndarray, ...]]


_PLANS: _Memo[tuple[int, int, int], _WavefrontPlan] = _Memo(_PLAN_MEMO_BYTES)


def _wavefront_plan(big_n: int, big_m: int, k: int) -> _WavefrontPlan:
    """The plan of an ``(N, M, k)`` sweep, built once per shape and kept
    while all kept plans hold at most ``_PLAN_MEMO_BYTES`` by their
    buffers plus their view tuples, least recently used evicted first.

    Every block is a cell-major slice of one flat array, so cells
    ``lo..hi`` of any block are one contiguous 1-D view.  Step ``s``
    covers cells ``lo = max(0, s - M)`` to ``hi = min(N, s - 1)`` of
    diagonal ``s``.  Cell 0 is the boundary ``D[0, s]``: the cells it
    reads, ``-1`` and ``0`` of the two diagonals before, are boundary
    cells too, all ``inf``, so the step itself writes ``inf`` there.
    """
    key = (big_n, big_m, k)
    plan = _PLANS.get(key)
    if plan is not None:
        return plan
    cells = (big_n + 2) * k  # one diagonal buffer
    a_at = 3 * cells
    b_at = a_at + (big_n + 1) * k
    store = np.zeros(b_at + big_m * k)
    steps = []
    for s in range(2, big_n + big_m + 1):
        lo = s - big_m if s > big_m else 0
        hi = s - 1 if s <= big_n else big_n
        width = (hi - lo + 1) * k
        row = lo * k  # offset of cell lo - 1 in a buffer, and of x[lo - 1] in a
        before = (s - 2) % 3 * cells + row
        prev = (s - 1) % 3 * cells + row
        cur = s % 3 * cells + row + k
        x = a_at + row
        y = b_at + (big_m - s + lo) * k  # y is time-reversed
        steps.append(
            (
                store[before : before + width],  # D[i-1, j-1]; then the minimum
                store[prev : prev + width],  # D[i-1, j]
                store[prev + k : prev + k + width],  # D[i, j-1]
                store[cur : cur + width],  # D[i, j]
                store[x : x + width],  # x[i-1]
                store[y : y + width],  # y[j-1]
            )
        )
    buffers = store[:a_at].reshape(3, big_n + 2, k)
    plan = _WavefrontPlan(
        buffers=buffers,
        diagonals=buffers[:, 1:],
        a=store[a_at + k : b_at].reshape(big_n, k),
        b=store[b_at:].reshape(big_m, k),
        steps=steps,
    )
    # Every view is a 1-D slice and every step a 6-tuple, so one of each
    # prices them all.
    step = sys.getsizeof(steps[0]) + 6 * sys.getsizeof(steps[0][0])
    _PLANS.keep(key, plan, store.nbytes + sys.getsizeof(steps) + len(steps) * step)
    return plan


def _sweep(steps: Sequence[tuple[np.ndarray, ...]]) -> None:
    """Run wavefront steps, one diagonal each, as five in-place ufunc calls:
    ``D[i, j] = |x[i-1] - y[j-1]| + min(D[i-1, j-1], D[i-1, j], D[i, j-1])``.

    The minimum goes into cells ``lo - 1..hi - 1`` of diagonal ``s - 2``,
    which is dead once read.  As diagonal ``s + 1`` each such cell is
    rewritten by the next step, lies past column ``M`` where no later
    step reads, or is cell ``-1``, where the minimum of boundary cells
    keeps ``inf``.
    """
    minimum, subtract, absolute, add = np.minimum, np.subtract, np.absolute, np.add
    for best, up, left, d, x, y in steps:
        minimum(best, up, out=best)
        minimum(best, left, out=best)
        subtract(x, y, out=d)
        absolute(d, out=d)
        add(d, best, out=d)


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
    ``s = i + j`` at a time, from 2 to the largest ``n_p + m_p``.  Cell
    ``(i, s - i)`` reads diagonal ``s - 2`` at ``i - 1`` and diagonal
    ``s - 1`` at ``i - 1`` and ``i``, so a step is five in-place vector
    operations over every pair and every cell on the diagonal.  Three
    diagonal buffers per pair are all the state; they are stored
    cell-major, ``(N + 2, k)``, so that each slice is one contiguous
    block.  The buffers and every step's views are a plan built once per
    ``(N, M, k)`` and kept in a module memo bounded by bytes
    (:func:`_wavefront_plan`).  A call packs its inputs into the plan,
    resets the diagonals and runs bare ufunc calls in chunks, each
    ending where a group of pairs finishes.  The plan is process-local
    and single-threaded, like the tracer.

    Pair ``p`` is read off diagonal ``n_p + m_p`` at index ``n_p``.  Its
    own cells read only smaller ``i`` and ``j``, so the padding never
    reaches them, and ``abs``/``min``/``add`` are exact in IEEE-754:
    each distance is bit-identical to the scalar row-by-row dynamic
    program and depends neither on the batch it rides in nor on the
    calls before it.  A NaN or infinite sample raises ``ValueError``
    naming the first pair that holds one, before any plan buffer is
    written.
    """
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have the same number of sequences")
    x_batch = ClipBatch.from_signals(xs)
    y_batch = ClipBatch.from_signals(ys)
    n, m = x_batch.lengths, y_batch.lengths
    k = n.size
    out = np.empty(k, dtype=np.float64)
    if k == 0:
        return out
    if min(n.min(), m.min()) < 1:
        raise ValueError("dtw inputs must be non-empty")
    # The padding is zeros, so a row is finite iff its signal is.
    finite = np.isfinite(x_batch.data).all(axis=1) & np.isfinite(y_batch.data).all(axis=1)
    if not finite.all():
        raise ValueError(f"dtw pair {int(np.argmin(finite))} has a non-finite sample")
    plan = _wavefront_plan(x_batch.max_length, y_batch.max_length, k)
    plan.a[...] = x_batch.data.T
    # Reverse y in time, so that y[s - i - 1] over rising i is a forward slice.
    plan.b[...] = y_batch.data.T[::-1]
    plan.buffers.fill(np.inf)
    plan.diagonals[0, 0] = 0.0  # D[0, 0]; every other boundary cell stays inf
    done = 0  # steps[i] sweeps diagonal i + 2
    for s, rows in group_by_length(n + m):
        _sweep(plan.steps[done : s - 1])
        done = s - 1
        out[rows] = plan.diagonals[s % 3, n[rows], rows]
    return out
