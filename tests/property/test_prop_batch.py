"""Property: every ``*_batch`` kernel is row-independent, so each row of
a batch is bit-identical to that row run as a batch of one, across
ragged batches (length 0 and 1 included).  This is the contract that
lets the engine split a batch into arbitrary chunks and still produce
serial-identical results.  DTW's loop oracle is :func:`_dtw_reference`,
the scalar dynamic program kept here."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import batch as batch_module
from repro.core.batch import (
    ClipBatch,
    dtw_distance_batch,
    group_by_length,
    moving_rms_batch,
    moving_variance_batch,
    reflect_convolve_batch,
    threshold_filter_batch,
)
from repro.core.config import DetectorConfig
from repro.core.features import extract_features_batch
from repro.core.peaks import find_peaks
from repro.core.preprocessing import design_lowpass, preprocess_batch, savgol_coefficients

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64)

ragged_signals = st.lists(
    st.lists(finite, min_size=0, max_size=40).map(np.array),
    min_size=1,
    max_size=6,
)


@st.composite
def mixed_shape_pairs(draw):
    """1-D ``(xs, ys)`` pairs whose ``(n, m)`` shapes differ by more than one.

    A ``(1, 1)`` and a ``(30, 12)`` pair ride in every example, in a
    drawn position among up to four pairs of free shape, so the DTW
    padding always covers cells of some pair's matrix.
    """
    free = st.tuples(st.integers(1, 30), st.integers(1, 30))
    shapes = draw(st.permutations([(1, 1), (30, 12)] + draw(st.lists(free, max_size=4))))
    xs = [draw(st.lists(finite, min_size=n, max_size=n).map(np.array)) for n, _ in shapes]
    ys = [draw(st.lists(finite, min_size=m, max_size=m).map(np.array)) for _, m in shapes]
    return xs, ys


def _pad(signals):
    return ClipBatch.from_signals(signals)


def _dtw_reference(x, y):
    """Scalar DTW oracle: the textbook row-by-row dynamic program.

    Sum of ``|x_i - y_j|`` along the cheapest monotone alignment path
    (boundary to boundary, steps right/down/diagonal).
    """
    a = np.asarray(x, dtype=np.float64)
    b = np.asarray(y, dtype=np.float64)
    n, m = a.size, b.size
    prev = np.full(m + 1, np.inf)
    prev[0] = 0.0
    current = np.empty(m + 1)
    for i in range(1, n + 1):
        current.fill(np.inf)
        ai = a[i - 1]
        for j in range(1, m + 1):
            cost = abs(ai - b[j - 1])
            best = prev[j - 1]
            if prev[j] < best:
                best = prev[j]
            if current[j - 1] < best:
                best = current[j - 1]
            current[j] = cost + best
        prev, current = current, prev
    return float(prev[m])


class TestClipBatchContainer:
    @given(ragged_signals)
    @settings(max_examples=40, deadline=None)
    def test_rows_round_trip(self, signals):
        batch = ClipBatch.from_signals(signals)
        assert len(batch) == len(signals)
        assert batch.max_length == max((s.size for s in signals), default=0)
        for original, row in zip(signals, batch.rows()):
            assert np.array_equal(np.asarray(original, dtype=np.float64), row)

    @given(ragged_signals)
    @settings(max_examples=40, deadline=None)
    def test_group_by_length_partitions(self, signals):
        batch = ClipBatch.from_signals(signals)
        seen = []
        previous = -1
        for length, indices in group_by_length(batch.lengths):
            assert length > previous  # ascending, no duplicate groups
            previous = length
            for i in indices:
                assert batch.lengths[i] == length
                seen.append(int(i))
        assert sorted(seen) == list(range(len(signals)))


def _assert_rows_stand_alone(signals, kernel):
    """``kernel(rows)[g]`` bit-equals ``kernel(rows[g : g + 1])[0]`` for
    every row of every equal-length group of ``signals``."""
    batch = _pad(signals)
    for length, indices in group_by_length(batch.lengths):
        rows = batch.data[indices][:, :length]
        out = kernel(rows)
        assert out.shape == rows.shape
        for g in range(len(indices)):
            assert out[g].tobytes() == kernel(rows[g : g + 1])[0].tobytes()


class TestKernelsMatchPerClipLoop:
    @given(ragged_signals, st.integers(min_value=1, max_value=12))
    @settings(max_examples=40, deadline=None)
    def test_moving_variance(self, signals, window):
        _assert_rows_stand_alone(signals, lambda rows: moving_variance_batch(rows, window))

    @given(ragged_signals, st.integers(min_value=1, max_value=12))
    @settings(max_examples=40, deadline=None)
    def test_moving_rms(self, signals, window):
        _assert_rows_stand_alone(signals, lambda rows: moving_rms_batch(rows, window))

    @given(ragged_signals, st.floats(min_value=0.0, max_value=10.0, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_threshold(self, signals, cutoff):
        _assert_rows_stand_alone(signals, lambda rows: threshold_filter_batch(rows, cutoff))

    @given(ragged_signals, st.integers(min_value=1, max_value=10))
    @settings(max_examples=30, deadline=None)
    def test_convolution_stages(self, signals, window):
        for kernel in (
            np.full(window, 1.0 / window),
            design_lowpass(1.0, 10.0, 41),
            savgol_coefficients(31, 3),
        ):
            _assert_rows_stand_alone(signals, lambda rows: reflect_convolve_batch(rows, kernel))

    @given(ragged_signals, st.data())
    @settings(max_examples=30, deadline=None)
    def test_find_peaks_on_padded_rows(self, signals, data):
        # A length group of a padded batch is a block that ends before
        # the padding; the kernel sees only the clips, each with its gate.
        gate = st.floats(min_value=0.01, max_value=5.0, allow_nan=False)
        gates = data.draw(st.lists(gate, min_size=len(signals), max_size=len(signals)))
        batch = _pad(signals)
        for length, indices in group_by_length(batch.lengths):
            rows = batch.data[indices][:, :length]
            got = find_peaks(rows, [gates[i] for i in indices])
            for g, i in enumerate(indices):
                assert got[g] == find_peaks(signals[i][None, :], gates[i])[0]


def _reflect_convolve_reference(rows, kernel):
    """The convolution with its padding built by two ``np.pad`` calls
    per call (reflect capped at ``len - 1``, then edge), kept as the
    oracle for the cached index gather."""
    rows = np.asarray(rows, dtype=np.float64)
    kernel = np.asarray(kernel, dtype=np.float64)
    half = kernel.size // 2
    count, length = rows.shape
    if length == 0 or count == 0 or half == 0:
        if half == 0 and length > 0 and count > 0:
            return kernel[0] * rows
        return rows.copy()
    reflect_pad = min(half, length - 1)
    if reflect_pad > 0:
        padded = np.pad(rows, ((0, 0), (reflect_pad, reflect_pad)), mode="reflect")
    else:
        padded = rows
    extra = half - reflect_pad
    if extra > 0:
        padded = np.pad(padded, ((0, 0), (extra, extra)), mode="edge")
    shift = half + (kernel.size - 1) // 2
    out = np.zeros_like(rows)
    for k in range(kernel.size):
        start = shift - k
        out += kernel[k] * padded[:, start : start + length]
    return out


def _moving_variance_reference(rows, window):
    """The row-major variance kernel the time-major one replaced."""
    count, length = rows.shape
    if length == 0 or count == 0:
        return rows.copy()
    zeros = np.zeros((count, 1), dtype=np.float64)
    csum = np.concatenate([zeros, np.cumsum(rows, axis=1)], axis=1)
    csum2 = np.concatenate([zeros, np.cumsum(rows * rows, axis=1)], axis=1)
    idx = np.arange(length)
    lo = np.maximum(idx - window + 1, 0)
    n = idx - lo + 1
    mean = (csum[:, idx + 1] - csum[:, lo]) / n
    mean2 = (csum2[:, idx + 1] - csum2[:, lo]) / n
    return np.maximum(mean2 - mean * mean, 0.0)


def _moving_rms_reference(rows, window):
    """The row-major RMS kernel the time-major one replaced."""
    count, length = rows.shape
    if length == 0 or count == 0:
        return rows.copy()
    zeros = np.zeros((count, 1), dtype=np.float64)
    csum2 = np.concatenate([zeros, np.cumsum(rows * rows, axis=1)], axis=1)
    half = window // 2
    idx = np.arange(length)
    lo = np.maximum(idx - half, 0)
    hi = np.minimum(idx + window - half, length)
    return np.sqrt((csum2[:, hi] - csum2[:, lo]) / (hi - lo))


def _bits(a):
    """The exact bit patterns of a float64 array (tells -0.0 from 0.0)."""
    return np.asarray(a, dtype=np.float64).view(np.int64)


#: A block of equal-length rows: up to five rows of up to 60 samples.
blocks = st.tuples(st.integers(1, 5), st.integers(0, 60)).flatmap(
    lambda shape: st.lists(
        st.lists(finite, min_size=shape[1], max_size=shape[1]),
        min_size=shape[0],
        max_size=shape[0],
    ).map(lambda rows: np.array(rows, dtype=np.float64).reshape(shape))
)


class TestTimeMajorKernels:
    """Each filter kernel computes time-major inside; its result is
    bit-equal to the row-major oracle on C-order input, on F-order input
    and row by row as batches of one."""

    def _check(self, rows, kernel, reference):
        want = _bits(reference(rows))
        assert np.array_equal(_bits(kernel(rows)), want)
        assert np.array_equal(_bits(kernel(np.asfortranarray(rows))), want)
        for g in range(rows.shape[0]):
            assert np.array_equal(_bits(kernel(rows[g : g + 1])[0]), want[g])

    @given(blocks, st.sampled_from([1, 2, 3, 10, 31, 41]), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_reflect_convolve(self, rows, taps, seed):
        kernel = np.random.default_rng(seed).normal(size=taps)
        self._check(
            rows,
            lambda r: reflect_convolve_batch(r, kernel),
            lambda r: _reflect_convolve_reference(r, kernel),
        )

    @given(blocks, st.integers(min_value=1, max_value=40))
    @settings(max_examples=40, deadline=None)
    def test_moving_variance(self, rows, window):
        self._check(
            rows,
            lambda r: moving_variance_batch(r, window),
            lambda r: _moving_variance_reference(r, window),
        )

    @given(blocks, st.integers(min_value=1, max_value=40))
    @settings(max_examples=40, deadline=None)
    def test_moving_rms(self, rows, window):
        self._check(
            rows,
            lambda r: moving_rms_batch(r, window),
            lambda r: _moving_rms_reference(r, window),
        )

    @given(blocks, st.floats(min_value=0.0, max_value=10.0, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_threshold(self, rows, cutoff):
        self._check(
            rows,
            lambda r: threshold_filter_batch(r, cutoff),
            lambda r: np.where(r >= cutoff, r, 0.0),
        )

    def test_threshold_rejects_nan_cutoff(self):
        with pytest.raises(ValueError, match="cutoff"):
            threshold_filter_batch(np.ones((1, 3)), float("nan"))


class TestReflectGather:
    @pytest.mark.parametrize("taps", [1, 2, 3, 10, 31, 41])
    def test_bitwise_equal_to_pad_reference(self, taps):
        rng = np.random.default_rng(taps)
        kernel = rng.normal(size=taps)
        for length in range(1, 61):
            for count in range(1, 5):
                rows = rng.uniform(-1e3, 1e3, size=(count, length))
                got = reflect_convolve_batch(rows, kernel)
                want = _reflect_convolve_reference(rows, kernel)
                assert got.tobytes() == want.tobytes(), (length, count)

    def test_index_cache_is_bounded_and_read_only(self):
        kernel = np.full(41, 1.0 / 41)
        gathers = batch_module._GATHERS
        gathers.clear()
        lengths = range(1, 400)
        hot = 150
        for length in lengths:
            reflect_convolve_batch(np.ones((1, length)), kernel)
            if length == hot:
                hot_index = gathers.get((hot, 20))
            if length > hot:  # a hit refreshes the hot shape
                reflect_convolve_batch(np.ones((1, hot)), kernel)
            held = sum(index.nbytes for index in gathers.values())
            assert held == gathers.nbytes <= batch_module._GATHER_MEMO_BYTES
        # The most recently used shapes are kept: the newest run and the
        # hot shape, least recently used evicted first.
        kept = sorted(length for length in lengths if (length, 20) in gathers)
        assert hot in kept and kept[0] > 1
        assert gathers.get((hot, 20)) is hot_index  # never evicted and rebuilt
        run = [length for length in kept if length != hot]
        assert run[0] > hot and run == list(range(run[0], lengths[-1] + 1))
        for index in gathers.values():
            assert not index.flags.writeable
            with pytest.raises(ValueError):
                index[0] = 0


class TestDtwBatch:
    @given(mixed_shape_pairs())
    @settings(max_examples=40, deadline=None)
    def test_bitwise_equal_to_scalar(self, pairs):
        xs, ys = pairs
        batched = dtw_distance_batch(xs, ys)
        for x, y, value in zip(xs, ys, batched):
            assert value == _dtw_reference(x, y)

    @given(mixed_shape_pairs(), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_plan_reuse_is_invisible(self, pairs, seed):
        """Cold plan, warm plan with other data of the same shapes, and the
        first data again: each call equals the scalar DP bit for bit."""
        xs, ys = pairs
        rng = np.random.default_rng(seed)
        other_xs = [rng.uniform(-1e6, 1e6, x.size) for x in xs]
        other_ys = [rng.uniform(-1e6, 1e6, y.size) for y in ys]
        batch_module._PLANS.clear()
        for bxs, bys in ((xs, ys), (other_xs, other_ys), (xs, ys)):
            batched = dtw_distance_batch(bxs, bys)
            for x, y, value in zip(bxs, bys, batched):
                assert value == _dtw_reference(x, y)

    @given(mixed_shape_pairs(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_non_finite_names_the_first_bad_pair(self, pairs, data):
        xs, ys = [x.copy() for x in pairs[0]], [y.copy() for y in pairs[1]]
        bad = data.draw(st.lists(st.integers(0, len(xs) - 1), min_size=1, unique=True))
        for pair in bad:
            side = data.draw(st.sampled_from([xs, ys]))
            at = data.draw(st.integers(0, side[pair].size - 1))
            side[pair][at] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        with pytest.raises(ValueError, match=f"dtw pair {min(bad)} has a non-finite sample"):
            dtw_distance_batch(xs, ys)

    def test_rejects_empty_sequences(self):
        with pytest.raises(ValueError):
            dtw_distance_batch([np.array([1.0])], [np.array([])])
        with pytest.raises(ValueError):
            dtw_distance_batch([np.array([1.0]), np.array([2.0])], [np.array([1.0])])


class TestPreprocessBatch:
    @given(ragged_signals)
    @settings(max_examples=20, deadline=None)
    def test_bitwise_equal_to_per_clip_loop(self, signals):
        config = DetectorConfig()
        batched = preprocess_batch(signals, config, config.peak_prominence_face)
        assert len(batched) == len(signals)
        for signal, got in zip(signals, batched):
            want = preprocess_batch([signal], config, config.peak_prominence_face)[0]
            for field in (
                "raw",
                "lowpassed",
                "variance",
                "thresholded",
                "rms",
                "savgol",
                "smoothed",
            ):
                assert np.array_equal(getattr(got, field), getattr(want, field)), field
            assert got.peaks == want.peaks

    def test_savgol_stage_is_row_independent(self):
        rng = np.random.default_rng(5)
        signals = list(rng.uniform(0.0, 4.0, size=(6, 64)))
        kernel = savgol_coefficients(31, 3)
        _assert_rows_stand_alone(signals, lambda rows: reflect_convolve_batch(rows, kernel))


class TestExtractFeaturesBatchIdentity:
    def test_ragged_batch_equals_singletons(self):
        rng = np.random.default_rng(11)
        pairs = []
        for length in (150, 1, 120, 150, 40):
            t_lum = rng.uniform(80.0, 140.0, length)
            r_lum = rng.uniform(0.2, 0.9, length)
            pairs.append((t_lum, r_lum))
        config = DetectorConfig()
        batched = extract_features_batch(pairs, config)
        for pair, got in zip(pairs, batched):
            want = extract_features_batch([pair], config)[0]
            assert got.features == want.features
            assert got.delay_s == want.delay_s
            assert got.matches == want.matches
