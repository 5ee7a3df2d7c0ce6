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

    @given(ragged_signals, st.floats(min_value=0.01, max_value=5.0, allow_nan=False))
    @settings(max_examples=30, deadline=None)
    def test_find_peaks_on_padded_rows(self, signals, prominence):
        # A row of a padded batch is a view that ends before the padding;
        # the finder sees only the clip.
        batch = _pad(signals)
        for row, signal in zip(batch.rows(), signals):
            assert find_peaks(row, prominence) == find_peaks(signal, prominence)


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
        bound = batch_module._GATHER_MEMO_SIZE
        for length in range(1, 3 * bound):
            reflect_convolve_batch(np.ones((1, length)), kernel)
            assert len(batch_module._GATHERS) <= bound
        # The newest shapes are the ones kept.
        assert (3 * bound - 1, 20) in batch_module._GATHERS
        assert (1, 20) not in batch_module._GATHERS
        for index in batch_module._GATHERS.values():
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
