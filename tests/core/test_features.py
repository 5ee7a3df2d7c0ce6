"""Feature extraction: z1..z4 semantics on controlled signals."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import features as features_module
from repro.core.batch import dtw_distance_batch
from repro.core.config import DetectorConfig
from repro.core.features import (
    FeatureVector,
    _features_from_signals_batch,
    _unit,
    extract_features_batch,
    pearson_correlation,
)
from repro.core.matching import ChangeMatch
from repro.core.peaks import Peak
from repro.core.preprocessing import NonFiniteSampleError, PreprocessedSignal, preprocess_batch
from repro.obs.instrument import NULL


class TestPearson:
    def test_perfect_positive(self):
        x = np.arange(10.0)
        assert pearson_correlation(x, 3 * x + 2) == pytest.approx(1.0)

    def test_perfect_negative(self):
        x = np.arange(10.0)
        assert pearson_correlation(x, -x) == pytest.approx(-1.0)

    def test_constant_input_gives_zero(self):
        assert pearson_correlation(np.ones(10), np.arange(10.0)) == pytest.approx(0.0)

    def test_matches_numpy_corrcoef(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=50)
        y = rng.normal(size=50)
        assert pearson_correlation(x, y) == pytest.approx(np.corrcoef(x, y)[0, 1])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            pearson_correlation(np.zeros(3), np.zeros(4))


def _pearson_reference(x, y):
    """The formula before the one-mean rewrite, kept as the oracle:
    ``std()`` and ``mean()`` each reduce every input again."""
    a = np.asarray(x, dtype=np.float64)
    b = np.asarray(y, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("inputs must be 1-D arrays of equal length")
    if a.size < 2:
        return 0.0
    std_a = a.std()
    std_b = b.std()
    if std_a < 1e-12 or std_b < 1e-12:
        return 0.0
    return float(((a - a.mean()) * (b - b.mean())).mean() / (std_a * std_b))


@st.composite
def _signal_pairs(draw):
    """Equal-length pairs: unit-range like the normalized segments z3
    reads, or wide-range, and sometimes strided views."""
    n = draw(st.integers(min_value=0, max_value=160))
    bound = draw(st.sampled_from([1.0, 1e6]))
    elements = st.floats(min_value=-bound, max_value=bound, allow_nan=False)
    step = draw(st.sampled_from([1, 2]))
    pair = [draw(hnp.arrays(np.float64, n * step, elements=elements))[::step] for _ in "ab"]
    return tuple(pair)


class TestPearsonMatchesReference:
    @given(_signal_pairs())
    @settings(max_examples=300, deadline=None)
    def test_bit_identical(self, pair):
        x, y = pair
        assert repr(pearson_correlation(x, y)) == repr(_pearson_reference(x, y))


class TestNormalizeUnit:
    """The row-block normaliser; one signal ``x`` is ``x[None, :]``."""

    def test_range_is_unit(self):
        x = np.array([5.0, 10.0, 7.5])
        out = _unit(x[None, :])[0]
        assert out.min() == pytest.approx(0.0)
        assert out.max() == pytest.approx(1.0)

    def test_flat_signal_maps_to_zero(self):
        assert np.allclose(_unit(np.full((1, 5), 3.0)), 0.0)

    def test_flat_rows_are_not_divided_by_their_span(self):
        rows = np.array([[3.0, 3.0, 3.0], [1.0, 2.0, 4.0], [0.0, 1e-13, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no 0/0 behind the zeros
            out = _unit(rows)
        assert out[[0, 2]].tolist() == [[0.0] * 3] * 2 and np.isfinite(out).all()

    def test_preserves_shape_monotonicity(self):
        x = np.array([1.0, 3.0, 2.0])
        out = _unit(x[None, :])[0]
        assert out[1] > out[2] > out[0]

    def test_rows_are_scaled_alone(self):
        # Different minima and spans, a flat row and a near-flat one in
        # one block: each row equals the 1-D normaliser on it alone.
        rows = np.array(
            [[5.0, 10.0, 7.5, 6.0], [-3.0, -3.0, -3.0, -3.0], [0.0, 1e-13, 0.0, 0.0],
             [1e6, -1e6, 0.5, 2.0]]
        )
        got = _unit(rows)
        for row, want in zip(got, rows):
            assert row.view(np.int64).tolist() == _unit_reference(want).view(np.int64).tolist()
        assert _unit(np.zeros((3, 0))).shape == (3, 0)


def _dtw_inputs(monkeypatch):
    """Record every ``dtw_distance_batch`` call the tail makes."""
    calls = []

    def recording(xs, ys):
        calls.append(([x.copy() for x in xs], [y.copy() for y in ys]))
        return dtw_distance_batch(xs, ys)

    monkeypatch.setattr(features_module, "dtw_distance_batch", recording)
    return calls


class TestSplitSegments:
    """The tail cuts the aligned, normalized signals into
    ``segment_count`` equal segments, tail dropped, and hands them to
    the DTW call."""

    def test_two_halves(self, config, monkeypatch):
        calls = _dtw_inputs(monkeypatch)
        pre = _pre(np.arange(10.0), peaks=[])
        _features_from_signals_batch([pre], [pre], config, NULL)
        [(segs, _)] = calls
        assert len(segs) == 2
        assert np.allclose(segs[0], np.arange(5.0) / 9.0)
        assert np.allclose(segs[1], np.arange(5.0, 10.0) / 9.0)

    def test_tail_dropped(self, config, monkeypatch):
        calls = _dtw_inputs(monkeypatch)
        pre = _pre(np.arange(11.0), peaks=[])
        _features_from_signals_batch([pre], [pre], config, NULL)
        [(t_segs, r_segs)] = calls
        assert all(t.size == 5 and r.size == 5 for t, r in zip(t_segs, r_segs))

    def test_too_short_signal_is_not_cut(self, config, monkeypatch):
        calls = _dtw_inputs(monkeypatch)
        pre = _pre(np.arange(3.0), peaks=[])  # fewer than two samples a segment
        got = _features_from_signals_batch([pre], [pre], config, NULL)[0]
        assert calls == []
        assert got.features.z3 == -1.0  # reprolint: disable=R004


class TestFeatureVector:
    def test_array_round_trip(self):
        fv = FeatureVector(z1=0.5, z2=1.0, z3=0.9, z4=0.1)
        assert FeatureVector.from_array(fv.as_array()) == fv

    def test_from_array_validates_shape(self):
        with pytest.raises(ValueError):
            FeatureVector.from_array(np.zeros(3))


class TestExtractFeaturesCorrelated:
    """A genuine-looking pair: delayed, scaled reflection of the challenge."""

    def test_behavior_features_are_perfect(self, step_signal, reflected_signal, config):
        fx = extract_features_batch([(step_signal, reflected_signal)], config)[0]
        assert fx.features.z1 == pytest.approx(1.0)
        assert fx.features.z2 == pytest.approx(1.0)

    def test_delay_estimated_near_truth(self, step_signal, reflected_signal, config):
        fx = extract_features_batch([(step_signal, reflected_signal)], config)[0]
        assert abs(fx.delay_s - 0.4) < 0.3

    def test_trend_features_indicate_live(self, step_signal, reflected_signal, config):
        fx = extract_features_batch([(step_signal, reflected_signal)], config)[0]
        assert fx.features.z3 > 0.9
        assert fx.features.z4 < 0.3


class TestExtractFeaturesUncorrelated:
    """An attack-looking pair: independent luminance tracks."""

    @pytest.fixture()
    def attack_pair(self, step_signal):
        # Fake video with changes at completely different times.
        r = np.full(150, 140.0)
        r[20:] += 20.0
        r[75:] -= 30.0
        return step_signal, r

    def test_changes_mostly_unmatched(self, attack_pair, config):
        fx = extract_features_batch([attack_pair], config)[0]
        assert fx.features.z1 < 0.6
        assert fx.features.z2 < 0.6

    def test_trend_decorrelated(self, attack_pair, config):
        fx = extract_features_batch([attack_pair], config)[0]
        assert fx.features.z3 < 0.6


class TestDegenerateInputs:
    def test_flat_received_signal(self, step_signal, config):
        fx = extract_features_batch([(step_signal, np.full(150, 120.0))], config)[0]
        assert fx.features.z1 == pytest.approx(0.0)
        assert fx.features.z2 == pytest.approx(0.0)  # M == 0

    def test_flat_both(self, config):
        fx = extract_features_batch([(np.full(150, 100.0), np.full(150, 120.0))], config)[0]
        assert fx.features.z1 == pytest.approx(0.0)
        assert fx.features.z2 == pytest.approx(0.0)
        # Flat trends: no correlation evidence.
        assert fx.features.z3 <= 0.0 or fx.features.z3 == pytest.approx(0.0)

    def test_short_signals_do_not_crash(self, config):
        fx = extract_features_batch([(np.full(20, 100.0), np.full(20, 120.0))], config)[0]
        assert isinstance(fx.features, FeatureVector)


class TestMatchIndexContract:
    def test_matches_index_the_untrimmed_peak_lists(self, step_signal, config):
        """Regression: the matcher runs on guard-trimmed peak lists;
        the returned ChangeMatch indices must be remapped to the full
        (untrimmed) change lists, or a trimmed leading received peak
        shifts every received_index off by one."""
        rng = np.random.default_rng(13)
        delayed = np.concatenate([np.full(4, step_signal[0]), step_signal[:-4]])
        received = 120.0 + 0.3 * delayed + rng.normal(0.0, 0.4, delayed.size)
        # A pre-clip challenge's reflection: a step at 1.4 s, inside the
        # 2 s start guard, so the matcher never sees this peak.
        received[:14] -= 30.0
        fx = extract_features_batch([(step_signal, received)], config)[0]
        r_times = fx.received.peak_times
        t_times = fx.transmitted.peak_times
        assert r_times.size == 3
        assert r_times[0] < config.boundary_guard_s  # the trimmed peak
        assert len(fx.matches) == 2
        for m in fx.matches:
            assert 0 <= m.transmitted_index < t_times.size
            assert 0 < m.received_index < r_times.size  # never the trimmed one
            gap = abs(
                t_times[m.transmitted_index] - r_times[m.received_index]
            )
            assert gap <= config.match_tolerance_s

    def test_matched_pair_times_reproduce_time_difference(
        self, step_signal, reflected_signal, config
    ):
        fx = extract_features_batch([(step_signal, reflected_signal)], config)[0]
        for m in fx.matches:
            gap = (
                fx.received.peak_times[m.received_index]
                - fx.transmitted.peak_times[m.transmitted_index]
            )
            assert gap == pytest.approx(m.time_difference_s)


class TestBoundaryGuard:
    def test_change_near_clip_end_not_counted(self, config):
        # One challenge well inside, one inside the end guard window.
        t = np.full(150, 180.0)
        t[50:] -= 50.0
        t[144:] += 50.0  # at 14.4 s, inside the 2 s guard
        r = 120.0 + 0.3 * np.concatenate([np.full(4, t[0]), t[:-4]])
        # Remove the guarded change's reflection (truncated anyway).
        fx = extract_features_batch([(t, r)], config)[0]
        assert fx.features.z1 == pytest.approx(1.0)  # the truncated change is excused

    def test_guard_disabled_counts_everything(self, step_signal, reflected_signal):
        cfg = DetectorConfig(boundary_guard_s=0.0)
        fx = extract_features_batch([(step_signal, reflected_signal)], cfg)[0]
        assert fx.features.z1 == pytest.approx(1.0)  # both changes are interior here


def _extract_features_two_pass(pairs, config):
    """The body before both sides shared one filter pass, kept as the
    oracle: one ``preprocess_batch`` call per side."""
    pre_ts = preprocess_batch([t for t, _ in pairs], config, config.peak_prominence_screen)
    pre_rs = preprocess_batch([r for _, r in pairs], config, config.peak_prominence_face)
    return _features_from_signals_batch(pre_ts, pre_rs, config, NULL)


def _screen(rng, n):
    """Two challenge steps (the ``batch-verify`` workload's generator)."""
    t = np.full(n, 180.0)
    t[int(rng.integers(25, 55)) :] -= 50.0
    t[int(rng.integers(85, 120)) :] += 50.0
    return t


def _echo(rng, t, delay, noise):
    delayed = np.concatenate([np.full(delay, t[0]), t[:-delay]])
    return 120.0 + rng.uniform(0.12, 0.4) * delayed + rng.normal(0.0, noise, t.size)


def _clip(rng, kind, n):
    """A genuine, forger (late echo) or reenactment (own light) pair."""
    t = _screen(rng, n)
    round_trip = int(rng.integers(2, 6))
    if kind == "genuine":
        return t, _echo(rng, t, round_trip, rng.uniform(0.3, 2.0))
    if kind == "forger":
        processing = int(round(10 * rng.uniform(0.4, 1.4)))
        return t, _echo(rng, t, round_trip + processing, rng.uniform(0.3, 1.0))
    r = np.full(n, 174.0)
    for _ in range(int(rng.integers(1, 3))):
        r[int(rng.integers(10, n - 10)) :] += rng.choice((-1.0, 1.0)) * rng.uniform(5, 20)
    return t, r + rng.normal(0.0, rng.uniform(0.3, 1.0), n)


_STAGES = ("raw", "lowpassed", "variance", "thresholded", "rms", "savgol", "smoothed")


def _assert_same_signal(got, want):
    for stage in _STAGES:
        a, b = getattr(got, stage), getattr(want, stage)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), stage
    assert [(p.index, repr(p.height), repr(p.prominence)) for p in got.peaks] == [
        (p.index, repr(p.height), repr(p.prominence)) for p in want.peaks
    ]
    assert got.sample_rate_hz == want.sample_rate_hz


def _assert_same_extractions(pairs, config):
    got = extract_features_batch(pairs, config)
    want = _extract_features_two_pass(pairs, config)
    assert len(got) == len(want) == len(pairs)
    for g, w in zip(got, want):
        assert g.features.as_array().tobytes() == w.features.as_array().tobytes()
        _assert_same_signal(g.transmitted, w.transmitted)
        _assert_same_signal(g.received, w.received)
        assert g.matches == w.matches
        assert repr(g.delay_s) == repr(w.delay_s)


class TestOnePassMatchesTwoPass:
    """Both sides in one ``preprocess_batch`` call equal one call per side."""

    KINDS = ("genuine", "reenactment", "forger")

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mixed_lengths_and_kinds(self, seed, config):
        rng = np.random.default_rng([seed, 24])
        pairs = [
            _clip(rng, kind, n) for n in (150, 175, 200) for kind in self.KINDS for _ in "ab"
        ]
        order = rng.permutation(len(pairs))
        _assert_same_extractions([pairs[i] for i in order], config)

    @pytest.mark.parametrize("kind", KINDS)
    def test_batch_of_one(self, kind, config):
        rng = np.random.default_rng(7)
        _assert_same_extractions([_clip(rng, kind, 150)], config)

    def test_sides_of_different_length(self, config):
        rng = np.random.default_rng(8)
        pairs = []
        lengths = [(150, 140), (175, 200), (200, 150), (150, 175)]
        for (n_t, n_r), kind in zip(lengths, self.KINDS * 2):
            t, r = _clip(rng, kind, max(n_t, n_r))
            pairs.append((t[:n_t], r[:n_r]))
        _assert_same_extractions(pairs, config)


class TestOnePassErrorIndex:
    """The merged pass names the caller's clip, not the merged row."""

    def _pairs(self, count):
        rng = np.random.default_rng(3)
        return [tuple(side.copy() for side in _clip(rng, "genuine", 150)) for _ in range(count)]

    def test_received_nan_names_its_clip(self, config):
        pairs = self._pairs(4)
        pairs[2][1][60] = np.nan
        with pytest.raises(NonFiniteSampleError, match="signal 2 has a non-finite") as info:
            extract_features_batch(pairs, config)
        assert info.value.index == 2

    def test_transmitted_side_is_checked_first(self, config):
        pairs = self._pairs(4)
        pairs[3][0][10] = np.inf
        pairs[1][1][20] = np.nan
        with pytest.raises(NonFiniteSampleError, match="signal 3 has a non-finite sample"):
            extract_features_batch(pairs, config)
        with pytest.raises(NonFiniteSampleError, match="signal 3 has a non-finite sample"):
            _extract_features_two_pass(pairs, config)


# ----------------------------------------------------------------------
# The lean per-clip Sec. VI tail against the one it replaced
# ----------------------------------------------------------------------


def _match_changes_reference(t_times, r_times, tolerance_s):
    """The greedy matcher before the lean tail, over numpy arrays."""
    if t_times.size == 0 or r_times.size == 0:
        return []
    candidates = []
    for i, t in enumerate(t_times):
        deltas = r_times - t
        for j in np.nonzero(np.abs(deltas) <= tolerance_s)[0]:
            candidates.append((abs(float(deltas[j])), i, int(j)))
    candidates.sort()
    used_t, used_r, matches = set(), set(), []
    for _, i, j in candidates:
        if i in used_t or j in used_r:
            continue
        used_t.add(i)
        used_r.add(j)
        matches.append(ChangeMatch(i, j, float(r_times[j] - t_times[i])))
    matches.sort(key=lambda m: t_times[m.transmitted_index])
    return matches


def _unit_reference(x):
    """The 1-D normaliser before the row-block form, kept as the oracle."""
    if x.size == 0:
        return x.copy()
    low = x.min()
    span = x.max() - low
    if span < 1e-12:
        return np.zeros_like(x)
    return (x - low) / span


def _align_reference(t, r, delay_s, sample_rate_hz):
    shift = int(round(delay_s * sample_rate_hz))
    if shift >= 0:
        t_aligned, r_aligned = t, r[shift:]
    else:
        t_aligned, r_aligned = t[-shift:], r
    n = min(t_aligned.size, r_aligned.size)
    if n < 1:
        raise ValueError("no overlap")
    return t_aligned[:n].copy(), r_aligned[:n].copy()


def _match_reference(pre_t, pre_r, config):
    """The first half of :func:`_match_and_align_reference`: matches,
    ``z1``, ``z2`` and the ``np.mean`` delay (0 without matches)."""
    guard = config.boundary_guard_s
    clip_end = (pre_t.raw.size - 1) / config.sample_rate_hz
    t_all = pre_t.peak_times
    r_all = pre_r.peak_times
    t_keep = np.nonzero(t_all <= clip_end - guard)[0]
    r_keep = np.nonzero(r_all >= guard)[0]
    t_times = t_all[t_keep]
    r_times = r_all[r_keep]

    matches = _match_changes_reference(t_times, r_times, config.match_tolerance_s)
    matches = [
        ChangeMatch(
            transmitted_index=int(t_keep[m.transmitted_index]),
            received_index=int(r_keep[m.received_index]),
            time_difference_s=m.time_difference_s,
        )
        for m in matches
    ]
    n = t_times.size
    m = r_times.size
    z1 = len(matches) / n if n > 0 else 0.0
    z2 = len(matches) / m if m > 0 else 0.0

    delay_s = float(np.mean([m.time_difference_s for m in matches])) if matches else 0.0
    return matches, z1, z2, delay_s


def _match_and_align_reference(pre_t, pre_r, config):
    """``features._match_and_align`` before the lean tail, kept verbatim
    as the oracle with the matcher, delay mean, aligner, normalizer,
    splitter and correlation it called then: numpy peak-time arrays, the
    guard-trimmed matches remapped to the untrimmed peak lists."""
    matches, z1, z2, delay_s = _match_reference(pre_t, pre_r, config)
    t_norm = _unit_reference(pre_t.smoothed)
    r_norm = _unit_reference(pre_r.smoothed)
    try:
        t_aligned, r_aligned = _align_reference(t_norm, r_norm, delay_s, config.sample_rate_hz)
    except ValueError:
        t_aligned, r_aligned = t_norm, r_norm
        delay_s = 0.0

    correlations = []
    segment_pairs = []
    if t_aligned.size >= 2 * config.segment_count:
        seg_len = t_aligned.size // config.segment_count
        bounds = [(i * seg_len, (i + 1) * seg_len) for i in range(config.segment_count)]
        t_segments = [t_aligned[a:b] for a, b in bounds]
        r_segments = [r_aligned[a:b] for a, b in bounds]
        for t_seg, r_seg in zip(t_segments, r_segments):
            correlations.append(_pearson_reference(t_seg, r_seg))
            segment_pairs.append((t_seg, r_seg))
    return matches, z1, z2, delay_s, t_norm.size, correlations, segment_pairs


def _features_reference(pre_t, pre_r, config):
    """The clip's features from the reference tail and its own DTW call."""
    matches, z1, z2, delay_s, length, correlations, segment_pairs = (
        _match_and_align_reference(pre_t, pre_r, config)
    )
    if correlations:
        distances = dtw_distance_batch(
            [t for t, _ in segment_pairs], [r for _, r in segment_pairs]
        )
        z3 = min(correlations)
        z4 = max(float(d) for d in distances) / config.dtw_scale
    else:
        z3 = -1.0
        z4 = float(max(length, 1)) / config.dtw_scale
    features = FeatureVector(z1=z1, z2=z2, z3=float(z3), z4=float(z4))
    return features, matches, delay_s


def _tail_refuses(pre_t, pre_r, config):
    """Whether the tail refuses a clip with ``ValueError``: the delay
    leaves no overlap, so the sides stay unaligned, and their segment
    lengths differ.  (The oracle cuts the received side with the
    transmitted side's bounds instead, or fails on the shapes.)"""
    delay_s = _match_reference(pre_t, pre_r, config)[3]
    t, r = pre_t.smoothed, pre_r.smoothed
    try:
        _align_reference(t, r, delay_s, config.sample_rate_hz)
        return False
    except ValueError:
        count = config.segment_count
        return t.size >= 2 * count and r.size // count != t.size // count


def _pre(smoothed, peaks, raw_size=None, rate=10.0):
    """A hand-made preprocessed signal with peaks at chosen indices."""
    smoothed = np.asarray(smoothed, dtype=np.float64)
    raw = np.zeros(smoothed.size if raw_size is None else raw_size)
    return PreprocessedSignal(
        raw=raw,
        lowpassed=raw,
        variance=raw,
        thresholded=raw,
        rms=raw,
        savgol=smoothed,
        smoothed=smoothed,
        peaks=tuple(Peak(index=int(i), height=1.0, prominence=1.0) for i in peaks),
        sample_rate_hz=rate,
    )


def _assert_extraction_is_oracle(got, pre_t, pre_r, config):
    """One clip's extraction equals the per-clip oracle bit for bit."""
    features, matches, delay_s = _features_reference(pre_t, pre_r, config)
    assert repr(got.features) == repr(features)
    assert repr(got.matches) == repr(tuple(matches))
    assert repr(got.delay_s) == repr(delay_s)
    assert got.transmitted is pre_t and got.received is pre_r


def _assert_tail_matches_reference(pre_t, pre_r, config):
    """The tail on a batch of one equals the oracle, down to the
    segments it hands to the DTW call."""
    with pytest.MonkeyPatch.context() as patch:
        calls = _dtw_inputs(patch)
        got = _features_from_signals_batch([pre_t], [pre_r], config, NULL)[0]
    ref_segments = _match_and_align_reference(pre_t, pre_r, config)[-1]
    segments = [pair for xs, ys in calls for pair in zip(xs, ys)]
    assert len(segments) == len(ref_segments)
    for (t_seg, r_seg), (t_ref, r_ref) in zip(segments, ref_segments):
        assert t_seg.tobytes() == t_ref.tobytes() and r_seg.tobytes() == r_ref.tobytes()
    _assert_extraction_is_oracle(got, pre_t, pre_r, config)
    return got


def _ramp(n, seed=0):
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.normal(size=n)) + np.linspace(0.0, 5.0, n)


class TestLeanTailMatchesReference:
    @pytest.mark.parametrize("kind", ["genuine", "reenactment", "forger"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_real_clips(self, kind, seed, config):
        rng = np.random.default_rng([seed, 26])
        pairs = [_clip(rng, kind, n) for n in (150, 175, 200)]
        n = len(pairs)
        prominences = [config.peak_prominence_screen] * n + [config.peak_prominence_face] * n
        pre = preprocess_batch([t for t, _ in pairs] + [r for _, r in pairs], config, prominences)
        for pre_t, pre_r in zip(pre[:n], pre[n:]):
            _assert_tail_matches_reference(pre_t, pre_r, config)

    def test_no_peaks(self, config):
        got = _assert_tail_matches_reference(
            _pre(_ramp(150), []), _pre(_ramp(150, 1), []), config
        )
        assert got.matches == () and not got.features.z1 and not got.delay_s

    def test_guard_trims_every_peak(self, config):
        # Transmitted changes within 2 s of the end, received within 2 s
        # of the start: nothing is left to count or match.
        got = _assert_tail_matches_reference(
            _pre(_ramp(150), [135, 140, 148]), _pre(_ramp(150, 1), [3, 12, 19]), config
        )
        assert not got.features.z1 and not got.features.z2 and got.matches == ()

    def test_negative_delay_and_tied_candidates(self, config):
        # r at 5.5 s is 0.5 s from both t changes; the received side
        # leads on average, so the delay is negative.
        got = _assert_tail_matches_reference(
            _pre(_ramp(150), [10, 50, 60, 100]), _pre(_ramp(150, 1), [45, 55, 93]), config
        )
        assert got.delay_s < 0 and len(got.matches) == 3

    def test_degenerate_delay_falls_back_to_unaligned(self, config):
        # Short smoothed signals under a long raw clip: the 0.9 s delay
        # is longer than the received signal, so nothing overlaps.
        got = _assert_tail_matches_reference(
            _pre(_ramp(6), [30], raw_size=200), _pre(_ramp(6, 1), [39], raw_size=200), config
        )
        assert len(got.matches) == 1 and not got.delay_s

    def test_flat_signal(self, config):
        pre_t, pre_r = _pre(np.full(150, 3.0), [40, 110]), _pre(_ramp(150, 1), [43, 114])
        got = _assert_tail_matches_reference(pre_t, pre_r, config)
        assert _match_and_align_reference(pre_t, pre_r, config)[5] == [0.0, 0.0]
        assert repr(got.features.z3) == repr(0.0)

    def test_fallback_on_unequal_sides_raises_like_the_reference(self, config):
        pre_t = _pre(_ramp(8), [30], raw_size=200)
        pre_r = _pre(_ramp(6, 1), [39], raw_size=200)
        with pytest.raises(ValueError, match="equal length"):
            _match_and_align_reference(pre_t, pre_r, config)
        with pytest.raises(ValueError, match="equal length"):
            _features_from_signals_batch([pre_t], [pre_r], config, NULL)


# ----------------------------------------------------------------------
# The grouped Sec. VI tail against the per-clip oracle
# ----------------------------------------------------------------------


def _edge_clips():
    """Hand-made clips for the corners of the grouped tail."""
    return [
        # Shared length, a 0.3 s delay.
        (_pre(_ramp(150, 3), [40, 110]), _pre(_ramp(150, 4), [43, 113])),
        # A flat transmitted signal.
        (_pre(np.full(150, 3.0), [40, 110]), _pre(_ramp(150, 5), [43, 114])),
        # Unequal sides: 160 transmitted against 140 received samples.
        (_pre(_ramp(160, 6), [50]), _pre(_ramp(140, 7), [52])),
        # A negative delay.
        (_pre(_ramp(150, 8), [10, 50, 60, 100]), _pre(_ramp(150, 9), [45, 55, 93])),
        # A delay that leaves no overlap: the unaligned fallback.
        (_pre(_ramp(6, 10), [30], raw_size=200), _pre(_ramp(6, 11), [39], raw_size=200)),
        # An overlap shorter than two segments: z3 = -1.
        (_pre(_ramp(5, 12), [30], raw_size=200), _pre(_ramp(5, 13), [32], raw_size=200)),
        # Both sides flat.
        (_pre(np.zeros(40), []), _pre(np.full(40, 7.0), [])),
    ]


def _real_clips(config, seed):
    rng = np.random.default_rng([seed, 30])
    pairs = [
        _clip(rng, kind, n)
        for n in (150, 175, 200)
        for kind in ("genuine", "genuine", "reenactment", "forger")
    ]
    n = len(pairs)
    prominences = [config.peak_prominence_screen] * n + [config.peak_prominence_face] * n
    pre = preprocess_batch([t for t, _ in pairs] + [r for _, r in pairs], config, prominences)
    return list(zip(pre[:n], pre[n:]))


def _run(clips, config):
    return _features_from_signals_batch(
        [t for t, _ in clips], [r for _, r in clips], config, NULL
    )


def _same(a, b):
    return (
        repr(a.features) == repr(b.features)
        and repr(a.matches) == repr(b.matches)
        and repr(a.delay_s) == repr(b.delay_s)
    )


class TestGroupedTailMatchesOracle:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_each_clip_equals_the_oracle(self, seed, config):
        clips = _real_clips(config, seed) + _edge_clips()
        order = np.random.default_rng(seed).permutation(len(clips))
        clips = [clips[i] for i in order]
        for got, (pre_t, pre_r) in zip(_run(clips, config), clips, strict=True):
            _assert_extraction_is_oracle(got, pre_t, pre_r, config)

    def test_shuffled_batch_gives_each_clip_the_same_result(self, config):
        clips = _real_clips(config, 2) + _edge_clips()
        want = _run(clips, config)
        order = np.random.default_rng(3).permutation(len(clips))
        got = _run([clips[i] for i in order], config)
        assert all(_same(got[k], want[i]) for k, i in enumerate(order))

    def test_batch_of_one_equals_its_row(self, config):
        clips = _real_clips(config, 4) + _edge_clips()
        batch = _run(clips, config)
        for clip, row in zip(clips, batch):
            assert _same(_run([clip], config)[0], row)

    def test_one_call_per_segment_length(self, config, monkeypatch):
        """Real batches share few segment lengths; every clip still gets
        its own correlations."""
        widths = []

        def counting(rows):
            widths.append(rows.shape[1])
            return pearson_rows(rows)

        pearson_rows = features_module._pearson_rows
        monkeypatch.setattr(features_module, "_pearson_rows", counting)
        clips = _real_clips(config, 5) + _edge_clips()
        got = _run(clips, config)
        assert len(widths) == len(set(widths)) and len(widths) < len(clips)
        for extraction, (pre_t, pre_r) in zip(got, clips):
            _assert_extraction_is_oracle(extraction, pre_t, pre_r, config)

    @pytest.mark.parametrize("lengths", [[60] * 5, [20, 30, 40, 50, 60]])
    def test_one_shared_or_all_distinct_segment_lengths(self, lengths, config):
        clips = [
            (_pre(_ramp(n, 20 + i), []), _pre(_ramp(n, 40 + i), []))
            for i, n in enumerate(lengths)
        ]
        for got, (pre_t, pre_r) in zip(_run(clips, config), clips, strict=True):
            _assert_extraction_is_oracle(got, pre_t, pre_r, config)

    def test_normalised_rows_equal_the_one_signal_form(self):
        rng = np.random.default_rng(31)
        signals = [rng.normal(size=n) for n in (150, 175, 150, 200, 175, 150)]
        signals[2][:] = 4.0  # flat
        signals[4][[3, 9]] = [0.0, -0.0]
        rows = features_module._unit_by_length(signals)
        for row, signal in zip(rows, signals, strict=True):
            assert row.view(np.int64).tolist() == _unit_reference(signal).view(np.int64).tolist()
