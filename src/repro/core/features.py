"""Feature extraction (Sec. VI): z1..z4 from pairs of luminance signals.

Behaviour features (when changes happen):

* ``z1`` — proportion of the transmitted video's significant changes
  matched in the received video, ``F(T, R) / N`` (Eq. 4).
* ``z2`` — proportion of the received video's significant changes matched
  in the transmitted video, ``G(T, R) / M`` (Eq. 5).

Trend features (how the luminance changes), computed on the
delay-aligned, [0, 1]-normalized smoothed variance signals, cut into two
equal segments:

* ``z3`` — the smaller Pearson correlation coefficient over the segment
  pairs (Eq. 6).
* ``z4`` — the larger DTW distance over the segment pairs, divided by 30
  to keep its scale comparable.

A genuine prover clusters near (1, 1, high, low); a reenactment attacker
falls away on at least one dimension — which is all the LOF model needs.

The one entry point is :func:`extract_features_batch`: it runs the
Sec. V chain through the structure-of-arrays kernels of
:mod:`~repro.core.batch` and hands every clip's segment pairs to one
:func:`~repro.core.batch.dtw_distance_batch` call, a single
anti-diagonal sweep over all of them.  Both sides of every pair share
one :func:`~repro.core.preprocessing.preprocess_batch` call: the chain
is the same for both, only the peak-prominence gate differs (screen vs
face), and it is passed per signal.  A single clip is a batch of one;
each clip's result does not depend on the batch it rides in.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

import numpy as np

from ..obs.instrument import Instrumentation
from .batch import dtw_distance_batch
from .config import DetectorConfig
from .delay import _overlap, estimate_delay
from .matching import ChangeMatch, _greedy_pairs
from .preprocessing import NonFiniteSampleError, PreprocessedSignal, preprocess_batch

__all__ = [
    "FeatureVector",
    "FeatureExtraction",
    "pearson_correlation",
    "extract_features_batch",
]


@dataclasses.dataclass(frozen=True)
class FeatureVector:
    """The four-dimensional feature point fed to the classifier."""

    z1: float
    z2: float
    z3: float
    z4: float

    def as_array(self) -> np.ndarray:
        return np.array([self.z1, self.z2, self.z3, self.z4], dtype=np.float64)

    @classmethod
    def from_array(cls, values: np.ndarray) -> "FeatureVector":
        arr = np.asarray(values, dtype=np.float64)
        if arr.shape != (4,):
            raise ValueError(f"expected 4 features, got shape {arr.shape}")
        return cls(z1=float(arr[0]), z2=float(arr[1]), z3=float(arr[2]), z4=float(arr[3]))


@dataclasses.dataclass(frozen=True)
class FeatureExtraction:
    """Features plus every intermediate (for figures and diagnostics)."""

    features: FeatureVector
    transmitted: PreprocessedSignal
    received: PreprocessedSignal
    matches: tuple[ChangeMatch, ...]
    delay_s: float


def pearson_correlation(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation coefficient (Eq. 6); 0 when either input is
    constant (no trend to correlate)."""
    a = np.asarray(x, dtype=np.float64)
    b = np.asarray(y, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("inputs must be 1-D arrays of equal length")
    if a.size < 2:
        return 0.0
    return _pearson_rows(a[None, :], b[None, :])[0]


def _pearson_rows(a: np.ndarray, b: np.ndarray) -> list[float]:
    """:func:`pearson_correlation` of each row pair of two ``(rows, n)``
    matrices, ``n >= 2``.

    One mean per side, reused: the same sums and divisions as numpy's
    mean() and std(), so each value is bit-identical to
    ``((a - a.mean()) * (b - b.mean())).mean() / (a.std() * b.std())``
    on that row pair alone (a row sum of a contiguous matrix adds in the
    order a 1-D sum does).
    """
    n = a.shape[1]
    da = a - (a.sum(axis=1) / n)[:, None]
    db = b - (b.sum(axis=1) / n)[:, None]
    std_a = np.sqrt((da * da).sum(axis=1) / n)
    std_b = np.sqrt((db * db).sum(axis=1) / n)
    covariance = (da * db).sum(axis=1) / n
    return [
        0.0 if sa < 1e-12 or sb < 1e-12 else c / (sa * sb)
        for c, sa, sb in zip(covariance.tolist(), std_a.tolist(), std_b.tolist())
    ]


def extract_features_batch(
    pairs: Sequence[tuple[np.ndarray, np.ndarray]],
    config: DetectorConfig | None = None,
    instrumentation: Instrumentation | None = None,
) -> list[FeatureExtraction]:
    """Full Sec. V + Sec. VI pipeline over many raw signal pairs.

    One :func:`~repro.core.preprocessing.preprocess_batch` call filters
    all ``2n`` signals, ``[t_1..t_n, r_1..r_n]``, each side with its own
    peak gate, and all four features are extracted per clip; results
    come back in submission order, each bit-identical to the per-clip
    pipeline on that pair alone.

    A non-finite sample raises
    :class:`~repro.core.preprocessing.NonFiniteSampleError` naming the
    pair's index in ``pairs``; the transmitted sides are checked first.
    """
    config = config or DetectorConfig()
    instr = Instrumentation.ensure(instrumentation)
    pairs = list(pairs)
    if not pairs:
        return []
    n = len(pairs)
    signals = [t for t, _ in pairs] + [r for _, r in pairs]
    prominences = [config.peak_prominence_screen] * n + [config.peak_prominence_face] * n
    with instr.span("features.preprocess", stage="preprocessing"):
        try:
            pre = preprocess_batch(signals, config, prominences)
        except NonFiniteSampleError as exc:
            raise NonFiniteSampleError(exc.index % n) from None
    with instr.span("features.match", stage="matching"):
        return _features_from_signals_batch(pre[:n], pre[n:], config, instr)


@dataclasses.dataclass
class _ClipPartial:
    """One clip's Sec. VI state awaiting its batched DTW distances."""

    matches: list[ChangeMatch]
    z1: float
    z2: float
    delay_s: float
    length: int  # samples of the normalized transmitted signal
    correlations: list[float]
    dtw: list[float] = dataclasses.field(default_factory=list)


def _unit(x: np.ndarray) -> np.ndarray:
    """Scale a 1-D float64 signal to [0, 1]; a flat signal maps to all
    zeros."""
    if x.size == 0:
        return x.copy()
    low = x.min()
    span = x.max() - low
    if span < 1e-12:
        return np.zeros_like(x)
    return (x - low) / span


def _match_and_align(
    pre_t: PreprocessedSignal,
    pre_r: PreprocessedSignal,
    config: DetectorConfig,
) -> tuple[_ClipPartial, list[tuple[np.ndarray, np.ndarray]]]:
    """Everything per-clip up to (but excluding) the DTW distances.

    Matches the changes (:func:`~repro.core.matching._greedy_pairs`),
    estimates and removes the delay (:func:`~repro.core.delay.estimate_delay`,
    :func:`~repro.core.delay._overlap`), normalizes both smoothed
    signals to [0, 1] (:func:`_unit`), cuts them into
    ``config.segment_count`` equal segments (tail dropped) and
    correlates the segment pairs.  Peak times are Python floats read
    once, and the aligned signals and segments are views.
    """
    # Boundary guard: a transmitted change too close to the clip end has
    # its reflection truncated by the segmentation; a received change too
    # close to the clip start reflects a pre-clip challenge.  Neither can
    # be matched even for a live face, so they are excluded from N and M.
    guard = config.boundary_guard_s
    t_last = (pre_t.raw.size - 1) / config.sample_rate_hz - guard
    t_times = [p.index / pre_t.sample_rate_hz for p in pre_t.peaks]
    r_times = [p.index / pre_r.sample_rate_hz for p in pre_r.peaks]
    t_keep = [i for i, t in enumerate(t_times) if t <= t_last]
    r_keep = [j for j, r in enumerate(r_times) if r >= guard]

    # Matched over the trimmed lists; each match records its indices in
    # the untrimmed peak lists, as ChangeMatch documents.
    pairs = _greedy_pairs(
        [t_times[i] for i in t_keep], [r_times[j] for j in r_keep], config.match_tolerance_s
    )
    matches = [
        ChangeMatch(
            transmitted_index=t_keep[a],
            received_index=r_keep[b],
            time_difference_s=difference,
        )
        for a, b, difference in pairs
    ]
    n = len(t_keep)
    m = len(r_keep)
    z1 = len(matches) / n if n > 0 else 0.0
    z2 = len(matches) / m if m > 0 else 0.0

    delay = estimate_delay(matches)
    delay_s = 0.0 if delay is None else delay

    t_norm = _unit(pre_t.smoothed)
    r_norm = _unit(pre_r.smoothed)
    aligned = _overlap(t_norm, r_norm, delay_s, config.sample_rate_hz)
    if aligned is None:
        # Degenerate delay estimate (larger than the clip): fall back to
        # unaligned signals; the trend features will degrade on their own.
        t_aligned, r_aligned = t_norm, r_norm
        delay_s = 0.0
    else:
        t_aligned, r_aligned = aligned

    correlations: list[float] = []
    segment_pairs: list[tuple[np.ndarray, np.ndarray]] = []
    count = config.segment_count
    if t_aligned.size >= 2 * count:
        # The segments as the rows of one view per side.
        length = t_aligned.size // count
        if r_aligned.size // count != length:  # unequal sides, unaligned
            raise ValueError("inputs must be 1-D arrays of equal length")
        t_rows = t_aligned[: count * length].reshape(count, length)
        r_rows = r_aligned[: count * length].reshape(count, length)
        correlations = _pearson_rows(t_rows, r_rows)
        segment_pairs = list(zip(t_rows, r_rows))
    partial = _ClipPartial(
        matches=matches,
        z1=z1,
        z2=z2,
        delay_s=delay_s,
        length=t_norm.size,
        correlations=correlations,
    )
    return partial, segment_pairs


def _features_from_signals_batch(
    pre_ts: list[PreprocessedSignal],
    pre_rs: list[PreprocessedSignal],
    config: DetectorConfig,
    instr: Instrumentation,
) -> list[FeatureExtraction]:
    partials: list[_ClipPartial] = []
    seg_t: list[np.ndarray] = []
    seg_r: list[np.ndarray] = []
    seg_owner: list[int] = []
    for i, (pre_t, pre_r) in enumerate(zip(pre_ts, pre_rs)):
        partial, segment_pairs = _match_and_align(pre_t, pre_r, config)
        partials.append(partial)
        for t_seg, r_seg in segment_pairs:
            seg_t.append(t_seg)
            seg_r.append(r_seg)
            seg_owner.append(i)

    # One wavefront over every clip's segment pairs at once (the z4 hot
    # loop that used to run clip-by-clip in pure Python).
    if seg_t:
        distances = dtw_distance_batch(seg_t, seg_r)
        for owner, distance in zip(seg_owner, distances):
            partials[owner].dtw.append(float(distance))

    results: list[FeatureExtraction] = []
    for pre_t, pre_r, partial in zip(pre_ts, pre_rs, partials):
        if partial.correlations:
            z3 = min(partial.correlations)
            z4 = max(partial.dtw) / config.dtw_scale
        else:
            # Too little overlap to measure a trend: maximally suspicious.
            z3 = -1.0
            z4 = float(max(partial.length, 1)) / config.dtw_scale
        features = FeatureVector(
            z1=partial.z1, z2=partial.z2, z3=float(z3), z4=float(z4)
        )
        instr.count("features_clips_total")
        instr.count("features_matched_changes_total", len(partial.matches))
        results.append(
            FeatureExtraction(
                features=features,
                transmitted=pre_t,
                received=pre_r,
                matches=tuple(partial.matches),
                delay_s=partial.delay_s,
            )
        )
    return results

