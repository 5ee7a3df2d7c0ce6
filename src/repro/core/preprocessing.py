"""The preprocessing filter chain of Sec. V.

Raw luminance signals carry broadband noise (object motion in the scene,
external light sources, landmark jitter); the screen-driven component
lives below 1 Hz (Fig. 6).  The paper's chain, applied in order:

1. low-pass filter, 1 Hz cut-off               -> ``lowpassed``
2. moving-window variance, window 10           -> ``variance``
3. threshold filter, cut-off 2                 -> ``thresholded``
4. moving-window RMS, window 30                -> ``rms``
5. Savitzky-Golay filter, window 31            -> ``savgol``
6. moving-average filter, window 10            -> ``smoothed``
7. peak finding with minimal prominence        -> ``peaks``

The arithmetic lives in the row-independent ``*_batch`` kernels of
:mod:`~repro.core.batch`; :func:`preprocess_batch` runs the whole chain
over N clips per NumPy call and keeps every intermediate (Fig. 7 plots
them, the ablation benchmarks read them).  A single clip is a batch of
one, bit-identical to its row of any larger batch.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

import numpy as np

from .batch import (
    ClipBatch,
    _Memo,
    group_by_length,
    moving_rms_batch,
    moving_variance_batch,
    reflect_convolve_batch,
    threshold_filter_batch,
)
from .config import DetectorConfig
from .peaks import Peak, find_peaks

__all__ = [
    "NonFiniteSampleError",
    "design_lowpass",
    "savgol_coefficients",
    "PreprocessedSignal",
    "preprocess_batch",
]


class NonFiniteSampleError(ValueError):
    """A signal handed to :func:`preprocess_batch` holds a NaN or an
    infinite sample; ``index`` is that signal's position in the batch."""

    def __init__(self, index: int) -> None:
        super().__init__(f"signal {index} has a non-finite sample")
        self.index = index


def design_lowpass(cutoff_hz: float, sample_rate_hz: float, taps: int) -> np.ndarray:
    """Hamming-windowed-sinc FIR low-pass kernel (unit DC gain)."""
    if not 0 < cutoff_hz < sample_rate_hz / 2:
        raise ValueError("cutoff must lie in (0, nyquist)")
    if taps < 3 or taps % 2 == 0:
        raise ValueError("taps must be an odd integer >= 3")
    normalized = cutoff_hz / sample_rate_hz  # cycles per sample
    n = np.arange(taps) - (taps - 1) / 2.0
    kernel = 2.0 * normalized * np.sinc(2.0 * normalized * n)
    kernel *= np.hamming(taps)
    return kernel / kernel.sum()


def savgol_coefficients(window: int, polyorder: int) -> np.ndarray:
    """Savitzky-Golay smoothing kernel via least-squares polynomial fit.

    The kernel is the row of the pseudo-inverse of the window's
    Vandermonde matrix that evaluates the fitted polynomial at the window
    center — the classic derivation of the filter the paper cites [20].
    """
    if window % 2 == 0 or window < 3:
        raise ValueError("window must be an odd integer >= 3")
    if not 0 <= polyorder < window:
        raise ValueError("polyorder must satisfy 0 <= polyorder < window")
    half = window // 2
    positions = np.arange(-half, half + 1, dtype=np.float64)
    vandermonde = np.vander(positions, polyorder + 1, increasing=True)
    # coefficients of the center evaluation: e0^T (V^T V)^-1 V^T
    pinv = np.linalg.pinv(vandermonde)
    kernel = pinv[0]
    # Convolution flips the kernel; it is symmetric for even orders but
    # flip explicitly so odd orders stay correct.
    return kernel[::-1].copy()


#: Bytes of filter kernels that :func:`_filter_kernels` keeps.
_KERNEL_MEMO_BYTES = 1 << 15
_KERNELS: _Memo[tuple[str, ...], tuple[np.ndarray, np.ndarray, np.ndarray]] = _Memo(
    _KERNEL_MEMO_BYTES
)


def _filter_kernels(config: DetectorConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The low-pass, Savitzky-Golay and moving-average kernels of
    ``config``'s chain, designed once per distinct set of filter fields
    and shared as read-only arrays.

    The memo key is the ``repr`` of each field, not its value: config
    equality treats ``0.0 == -0.0`` (the ``FeatureCache.keys_for`` note),
    so a value key could hand one config another's kernels.
    """
    fields = (
        config.lowpass_cutoff_hz,
        config.sample_rate_hz,
        config.lowpass_taps,
        config.savgol_window,
        config.savgol_polyorder,
        config.moving_average_window,
    )
    key = tuple(map(repr, fields))
    kernels = _KERNELS.get(key)
    if kernels is None:
        cutoff_hz, sample_rate_hz, taps, window, polyorder, average_window = fields
        lowpass = design_lowpass(cutoff_hz, sample_rate_hz, taps)
        savgol = savgol_coefficients(window, polyorder)
        if average_window < 1:
            raise ValueError("window must be >= 1")
        kernels = (lowpass, savgol, np.full(average_window, 1.0 / average_window))
        for kernel in kernels:
            kernel.flags.writeable = False
        _KERNELS.keep(key, kernels, sum(kernel.nbytes for kernel in kernels))
    return kernels


@dataclasses.dataclass(frozen=True)
class PreprocessedSignal:
    """All intermediates of the Sec. V chain for one luminance signal."""

    raw: np.ndarray
    lowpassed: np.ndarray
    variance: np.ndarray
    thresholded: np.ndarray
    rms: np.ndarray
    savgol: np.ndarray
    smoothed: np.ndarray
    peaks: tuple[Peak, ...]
    sample_rate_hz: float

    @property
    def peak_indices(self) -> np.ndarray:
        """Sample indices of the significant luminance changes."""
        return np.array([p.index for p in self.peaks], dtype=np.int64)

    @property
    def peak_times(self) -> np.ndarray:
        """Times (seconds) of the significant luminance changes."""
        return self.peak_indices / self.sample_rate_hz

    @property
    def change_count(self) -> int:
        """Number of significant luminance changes found."""
        return len(self.peaks)


def preprocess_batch(
    signals: Sequence[np.ndarray],
    config: DetectorConfig,
    min_prominence: float | Sequence[float],
) -> list[PreprocessedSignal]:
    """Run the full Sec. V chain over N clips, batched per stage.

    Clips are grouped by length (padding never enters a kernel) and the
    three FIR kernels are designed once per distinct set of filter
    fields, not once per call or clip.  Row independence of the batch
    kernels makes every clip's result bit-identical to a batch of that
    clip alone.

    ``min_prominence`` is the peak gate: one float for every signal, or
    one per signal, so that screen and face signals (which differ only
    in that gate) share one call.  A sequence of the wrong length raises
    ``ValueError``.

    Raises :class:`NonFiniteSampleError` (a ``ValueError``) naming the
    first signal that holds a NaN or infinite sample, by its index in
    this batch: the variance stage's running sums would carry it to the
    end of the clip, and the threshold stage would turn the rest of the
    clip into zeros, silently rejecting a live face.
    """
    batch = ClipBatch.from_signals(signals)
    if np.ndim(min_prominence) == 0:
        prominences = [min_prominence] * len(batch)
    else:
        prominences = list(min_prominence)
        if len(prominences) != len(batch):
            raise ValueError(
                f"need one prominence per signal: got {len(prominences)} "
                f"for {len(batch)} signals"
            )
    finite = np.isfinite(batch.data).all(axis=1)  # the padding is zeros
    if not finite.all():
        raise NonFiniteSampleError(int(np.argmin(finite)))
    lowpass_kernel, savgol_kernel, average_kernel = _filter_kernels(config)
    results: list[PreprocessedSignal | None] = [None] * len(batch)
    for length, indices in group_by_length(batch.lengths):
        raw = batch.data[indices][:, :length]
        lowpassed = reflect_convolve_batch(raw, lowpass_kernel)
        variance = moving_variance_batch(lowpassed, config.variance_window)
        thresholded = threshold_filter_batch(variance, config.variance_threshold)
        rms = moving_rms_batch(thresholded, config.rms_window)
        # The polynomial fit can undershoot below zero on the flanks of a
        # variance lump; two adjacent lumps leave a *negative-valued*
        # local maximum between their undershoots, which the peak finder
        # would report as a phantom luminance change.  Variance is
        # non-negative by definition, so the smoothed signal is clamped
        # at zero.
        savgol = np.maximum(reflect_convolve_batch(rms, savgol_kernel), 0.0)
        smoothed = np.maximum(reflect_convolve_batch(savgol, average_kernel), 0.0)
        peaks = find_peaks(smoothed, [prominences[i] for i in indices])
        for g, i in enumerate(indices):
            results[int(i)] = PreprocessedSignal(
                raw=raw[g],
                lowpassed=lowpassed[g],
                variance=variance[g],
                thresholded=thresholded[g],
                rms=rms[g],
                savgol=savgol[g],
                smoothed=smoothed[g],
                peaks=tuple(peaks[g]),
                sample_rate_hz=config.sample_rate_hz,
            )
    return [r for r in results if r is not None]
