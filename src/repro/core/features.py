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

The Sec. VI tail keeps per clip only what is Python by nature: the peak
times, the boundary guard, the greedy matching, ``z1``, ``z2`` and the
delay estimate, then the alignment and the cut, which are views.  Its
NumPy work runs once per group: one [0, 1] scaling (:func:`_unit`, a
row-block kernel) per length group of the ``2n`` smoothed signals, one
correlation call (:func:`_pearson_rows`) per segment length over the
stacked segment rows, and the one DTW call.  Every step is exact
elementwise or sums contiguous rows in 1-D order, so each value is
bit-identical to the same step on that clip alone.
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
    return _pearson_rows(np.stack((a, b)))[0]


def _pearson_rows(rows: np.ndarray) -> list[float]:
    """:func:`pearson_correlation` of row ``i`` with row ``k + i`` of a
    C-contiguous ``(2k, n)`` matrix, ``n >= 2``, for each ``i < k``.

    One mean per row, reused: the same sums and divisions as numpy's
    mean() and std(), so each value is bit-identical to
    ``((a - a.mean()) * (b - b.mean())).mean() / (a.std() * b.std())``
    on that row pair alone (a row sum of a contiguous matrix adds in the
    order a 1-D sum does).  Both sides in one matrix halve the ufunc
    calls of a small batch.
    """
    k = rows.shape[0] // 2
    n = rows.shape[1]
    add = np.add.reduce  # ndarray.sum without its Python wrapper
    deviations = rows - (add(rows, 1) / n)[:, None]
    std = np.sqrt(add(deviations * deviations, 1) / n).tolist()
    covariance = add(deviations[:k] * deviations[k:], 1) / n
    return [
        0.0 if sa < 1e-12 or sb < 1e-12 else c / (sa * sb)
        for c, sa, sb in zip(covariance.tolist(), std[:k], std[k:])
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


def _unit(rows: np.ndarray) -> np.ndarray:
    """Scale each row of a ``(rows, n)`` float64 block to [0, 1]; a flat
    row (span below 1e-12) maps to all zeros.

    ``min``, ``max``, the subtraction and the division are exact
    elementwise, so each row equals the scaling of that signal alone;
    one signal ``x`` is ``x[None, :]``.
    """
    if rows.shape[1] == 0:
        return rows.copy()
    low = np.minimum.reduce(rows, 1, keepdims=True)
    span = np.maximum.reduce(rows, 1, keepdims=True) - low
    flat = [s < 1e-12 for s in span[:, 0].tolist()]
    if True not in flat:
        return (rows - low) / span
    # A flat row is divided by 1, not by its (near-)zero span, then zeroed.
    span[flat] = 1.0
    out = (rows - low) / span
    out[flat] = 0.0
    return out


def _unit_by_length(signals: list[np.ndarray]) -> list[np.ndarray]:
    """:func:`_unit` of every signal, one call per length group; each
    result is a row of its group's block."""
    groups: dict[int, list[int]] = {}
    for i, x in enumerate(signals):
        groups.setdefault(x.size, []).append(i)
    rows: list[np.ndarray] = [signals[0]] * len(signals)
    for indices in groups.values():
        block = _unit(np.array([signals[i] for i in indices]))
        for g, i in enumerate(indices):
            rows[i] = block[g]
    return rows


def _match_clip(
    pre_t: PreprocessedSignal,
    pre_r: PreprocessedSignal,
    config: DetectorConfig,
) -> tuple[list[ChangeMatch], float, float, float]:
    """One clip's matches, ``z1``, ``z2`` and estimated delay (0 without
    matches).

    Peak times are Python floats read once; the changes are matched
    over the guard-trimmed lists (:func:`~repro.core.matching._greedy_pairs`)
    and each match records its indices in the untrimmed peak lists, as
    :class:`~repro.core.matching.ChangeMatch` documents.
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
    return matches, z1, z2, 0.0 if delay is None else delay


def _features_from_signals_batch(
    pre_ts: list[PreprocessedSignal],
    pre_rs: list[PreprocessedSignal],
    config: DetectorConfig,
    instr: Instrumentation,
) -> list[FeatureExtraction]:
    """The Sec. VI tail of a batch: the Python steps per clip, the NumPy
    work once per group.

    1. Per clip: matches, ``z1``, ``z2`` and the delay (:func:`_match_clip`).
    2. One [0, 1] scaling per length group over all ``2n`` smoothed
       signals (:func:`_unit_by_length`).
    3. Per clip: the aligned overlap and its segments, as views.
    4. One :func:`_pearson_rows` call per segment length.
    5. One :func:`~repro.core.batch.dtw_distance_batch` call over every
       clip's segment pairs, in clip order.
    6. The :class:`FeatureExtraction` of each clip.

    Each step is row-independent, so a clip's result does not depend on
    the batch it rides in.
    """
    n = len(pre_ts)
    count = config.segment_count
    clips = [_match_clip(pre_t, pre_r, config) for pre_t, pre_r in zip(pre_ts, pre_rs)]
    norms = _unit_by_length([pre.smoothed for pre in pre_ts] + [pre.smoothed for pre in pre_rs])

    # Align and cut each clip: its segments are the rows of one view per
    # side, filed by segment length for the correlation and in clip
    # order for the DTW call.  A contiguous row of the stacked segments
    # sums in 1-D order, which _pearson_rows relies on.
    delays: list[float] = []
    cuts: list[tuple[int, int] | None] = []  # (segment length, slot in its group)
    by_length: dict[int, tuple[list[np.ndarray], list[np.ndarray]]] = {}
    seg_t: list[np.ndarray] = []
    seg_r: list[np.ndarray] = []
    for i, (_, _, _, delay_s) in enumerate(clips):
        t_norm, r_norm = norms[i], norms[n + i]
        aligned = _overlap(t_norm, r_norm, delay_s, config.sample_rate_hz)
        if aligned is None:
            # Degenerate delay estimate (larger than the clip): fall back to
            # unaligned signals; the trend features will degrade on their own.
            t_aligned, r_aligned = t_norm, r_norm
            delay_s = 0.0
        else:
            t_aligned, r_aligned = aligned
        delays.append(delay_s)
        if t_aligned.size < 2 * count:
            cuts.append(None)
            continue
        length = t_aligned.size // count
        if r_aligned.size // count != length:  # unequal sides, unaligned
            raise ValueError("inputs must be 1-D arrays of equal length")
        t_rows = t_aligned[: count * length].reshape(count, length)
        r_rows = r_aligned[: count * length].reshape(count, length)
        t_blocks, r_blocks = by_length.setdefault(length, ([], []))
        cuts.append((length, len(t_blocks)))
        t_blocks.append(t_rows)
        r_blocks.append(r_rows)
        seg_t.extend(t_rows)
        seg_r.extend(r_rows)

    # One correlation call per segment length over contiguous rows, and
    # one wavefront over every clip's segment pairs at once.
    correlations = {
        length: _pearson_rows(np.concatenate(t_blocks + r_blocks))
        for length, (t_blocks, r_blocks) in by_length.items()
    }
    distances = dtw_distance_batch(seg_t, seg_r).tolist() if seg_t else []

    results: list[FeatureExtraction] = []
    start = 0
    for pre_t, pre_r, (matches, z1, z2, _), delay_s, cut in zip(
        pre_ts, pre_rs, clips, delays, cuts
    ):
        if cut is None:
            # Too little overlap to measure a trend: maximally suspicious.
            z3 = -1.0
            z4 = float(max(pre_t.smoothed.size, 1)) / config.dtw_scale
        else:
            length, slot = cut
            z3 = min(correlations[length][slot * count : (slot + 1) * count])
            z4 = max(distances[start : start + count]) / config.dtw_scale
            start += count
        features = FeatureVector(z1=z1, z2=z2, z3=float(z3), z4=float(z4))
        results.append(
            FeatureExtraction(
                features=features,
                transmitted=pre_t,
                received=pre_r,
                matches=tuple(matches),
                delay_s=delay_s,
            )
        )
    instr.count("features_clips_total", n)
    instr.count("features_matched_changes_total", sum(len(clip[0]) for clip in clips))
    return results
