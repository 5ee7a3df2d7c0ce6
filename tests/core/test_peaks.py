"""Peak finding: local maxima, plateaus, prominence gating, and the
batch kernel against the per-signal two-walk finder it replaced."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.config import DetectorConfig
from repro.core.peaks import Peak, find_peaks
from repro.core.preprocessing import preprocess_batch


@np.errstate(invalid="ignore")  # inf - inf prominence is NaN; the gate drops it
def _find_peaks_reference(signal, min_prominence):
    """The finder before the one-pass rewrite, kept verbatim as the
    oracle: a plateau-aware ascent scan, then a left/right saddle walk
    per maximum, all on numpy scalars."""
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("signal must be 1-D")
    if min_prominence <= 0:
        raise ValueError("min_prominence must be positive")
    if x.size < 3:
        return []
    maxima = []
    n = x.size
    i = 1
    while i < n - 1:
        if x[i] <= x[i - 1]:
            i += 1
            continue
        j = i
        while j < n - 1 and x[j + 1] == x[i]:
            j += 1
        if j < n - 1 and x[j + 1] < x[i]:
            maxima.append((i + j) // 2)
        i = j + 1
    peaks = []
    for peak in maxima:
        height = x[peak]
        left_min = height
        i = peak - 1
        while i >= 0 and x[i] <= height:
            left_min = min(left_min, x[i])
            i -= 1
        right_min = height
        i = peak + 1
        while i < n and x[i] <= height:
            right_min = min(right_min, x[i])
            i += 1
        prom = float(height - max(left_min, right_min))
        if prom >= min_prominence:
            peaks.append(Peak(index=peak, height=float(x[peak]), prominence=prom))
    return peaks


def _exact(peaks):
    """Peaks as comparable tuples that also tell 0.0 from -0.0 and a
    Python float from a numpy scalar (``Peak`` equality does neither)."""
    return [(p.index, repr(p.height), repr(p.prominence)) for p in peaks]


def _one(signal, min_prominence):
    """The peaks of one signal: the kernel over the batch of one."""
    return find_peaks(np.asarray(signal, dtype=np.float64)[None, :], min_prominence)[0]


# Values that make ties and plateaus likely, signed zeros, magnitudes
# near +-1e6 (where adding 1 still changes the value) and non-finite
# samples, mixed with arbitrary floats.
_POOL = (0.0, -0.0, 0.5, 1.0, 2.0, 3.0, 1e6, 1e6 + 1.0, -1e6, math.nan, math.inf, -math.inf)
_value = st.one_of(
    st.sampled_from(_POOL),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)
_finite_value = st.one_of(
    st.sampled_from([v for v in _POOL if math.isfinite(v)]),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)
_rising = st.lists(_finite_value, min_size=2, max_size=6).map(sorted)
_falling = _rising.map(lambda run: run[::-1])


@st.composite
def terrain(draw, value=_value):
    """A signal built from single samples, plateaus and monotone runs,
    any of which may touch either end."""
    plateau = st.tuples(value, st.integers(min_value=2, max_value=5)).map(
        lambda run: [run[0]] * run[1]
    )
    pieces = draw(
        st.lists(
            st.one_of(value.map(lambda v: [v]), plateau, _rising, _falling),
            max_size=10,
        )
    )
    return np.array([v for piece in pieces for v in piece], dtype=np.float64)


_prominence = st.one_of(
    st.sampled_from([1e-12, 0.5, 1.0, 10.0, 1e6]),
    st.floats(min_value=1e-12, max_value=2e6),
)


class TestBasicDetection:
    def test_single_triangle_peak(self):
        x = np.array([0, 1, 2, 3, 2, 1, 0], dtype=float)
        peaks = _one(x, 0.5)
        assert len(peaks) == 1
        assert peaks[0].index == 3
        assert peaks[0].height == pytest.approx(3.0)
        assert peaks[0].prominence == pytest.approx(3.0)

    def test_two_peaks_with_saddle(self):
        x = np.array([0, 5, 1, 4, 0], dtype=float)
        peaks = _one(x, 0.5)
        assert [p.index for p in peaks] == [1, 3]
        # Left peak rises from the global floor; right peak only from the saddle.
        assert peaks[0].prominence == pytest.approx(5.0)
        assert peaks[1].prominence == pytest.approx(3.0)

    def test_endpoints_never_peaks(self):
        x = np.array([5, 1, 0, 1, 6], dtype=float)
        assert _one(x, 0.5) == []

    def test_monotonic_signal_has_no_peaks(self):
        assert _one(np.arange(10.0), 0.1) == []

    def test_flat_signal_has_no_peaks(self):
        assert _one(np.zeros(20), 0.1) == []


class TestPlateaus:
    def test_plateau_reported_once_at_midpoint(self):
        x = np.array([0, 1, 3, 3, 3, 1, 0], dtype=float)
        peaks = _one(x, 0.5)
        assert len(peaks) == 1
        assert peaks[0].index == 3

    def test_plateau_touching_edge_is_not_a_peak(self):
        x = np.array([3, 3, 3, 1, 0], dtype=float)
        assert _one(x, 0.5) == []

    def test_zero_valley_between_lumps_is_not_a_peak(self):
        # The clamped smoothed-variance shape: lump, zero plateau, lump.
        x = np.array([0, 4, 8, 4, 0, 0, 0, 0, 3, 6, 3, 0], dtype=float)
        peaks = _one(x, 0.5)
        assert [p.index for p in peaks] == [2, 9]


class TestProminenceGate:
    def test_small_peak_filtered(self):
        x = np.array([0, 10, 0, 0.3, 0, 10, 0], dtype=float)
        peaks = _one(x, 0.5)
        assert [p.index for p in peaks] == [1, 5]

    def test_gate_is_inclusive(self):
        x = np.array([0, 0.5, 0], dtype=float)
        assert len(_one(x, 0.5)) == 1

    def test_prominence_measured_from_higher_saddle(self):
        # Peak of height 6 between floors 2 (left) and 4 (right).
        x = np.array([10, 2, 6, 4, 12], dtype=float)
        peaks = _one(x, 0.1)
        assert len(peaks) == 1
        assert peaks[0].prominence == pytest.approx(2.0)


class TestValidation:
    def test_rejects_non_2d_input(self):
        with pytest.raises(ValueError, match="2-D"):
            find_peaks(np.zeros(5), 1.0)
        with pytest.raises(ValueError, match="2-D"):
            find_peaks(np.zeros((2, 3, 3)), 1.0)

    def test_rejects_nonpositive_prominence(self):
        with pytest.raises(ValueError):
            _one(np.zeros(5), 0.0)
        with pytest.raises(ValueError, match="min_prominence"):
            find_peaks(np.zeros((2, 5)), [0.5, -1.0])

    def test_rejects_nan_prominence(self):
        x = np.array([0.0, 3.0, 0.0])
        with pytest.raises(ValueError, match="min_prominence"):
            _one(x, math.nan)
        with pytest.raises(ValueError, match="min_prominence"):
            find_peaks(np.stack([x, x]), [0.5, math.nan])

    def test_rejects_wrong_gate_count(self):
        with pytest.raises(ValueError, match="one min_prominence per row"):
            find_peaks(np.zeros((3, 5)), [0.5, 0.5])

    def test_empty_block_has_no_rows(self):
        assert find_peaks(np.zeros((0, 5)), 0.5) == []
        assert find_peaks(np.zeros((2, 0)), [0.5, 1.0]) == [[], []]

    def test_short_signal_returns_empty(self):
        assert _one(np.array([1.0, 2.0]), 0.5) == []

    def test_peak_is_frozen_dataclass(self):
        peak = Peak(index=1, height=2.0, prominence=1.0)
        with pytest.raises(Exception):
            peak.height = 5.0  # type: ignore[misc]


@st.composite
def terrain_group(draw):
    """One to four equal-length :func:`terrain` rows, each with its own
    gate (a shorter row is cut to the shortest one's length)."""
    rows = draw(st.lists(terrain(), min_size=1, max_size=4))
    length = min(row.size for row in rows)
    block = np.array([row[:length] for row in rows], dtype=np.float64).reshape(len(rows), length)
    gates = draw(st.lists(_prominence, min_size=len(rows), max_size=len(rows)))
    return block, gates


class TestKernelMatchesReference:
    """The batch kernel is bit-identical to :func:`_find_peaks_reference`
    on every row: same indices, same heights (sign of zero included),
    same prominences, and a row's peaks do not depend on its block."""

    @given(terrain(), _prominence)
    @settings(max_examples=300, deadline=None)
    @example(np.array([0.0, 1.0, 3.0, 3.0, 3.0, 3.0, 1.0]), 0.5)  # even plateau
    @example(np.array([math.nan, 5.0, 3.0, 4.0, 0.0]), 0.5)  # right after a NaN
    @example(np.array([-1.0, 0.0, -0.0, -0.0, -1.0]), 0.5)  # mixed-sign-zero plateau
    @example(np.array([0.0, math.inf, math.inf, 0.0, math.inf, -1.0]), 1.0)
    @example(np.array([-1e6, 1e6, 1e6 + 1.0, 1e6, -1e6]), 1.0)
    def test_terrain(self, x, prominence):
        assert _exact(_one(x, prominence)) == _exact(_find_peaks_reference(x, prominence))

    @given(st.lists(_value, max_size=5), _prominence)
    @settings(max_examples=200, deadline=None)
    def test_short_signals(self, values, prominence):
        x = np.array(values, dtype=np.float64)
        assert _exact(_one(x, prominence)) == _exact(_find_peaks_reference(x, prominence))

    @given(terrain_group())
    @settings(max_examples=200, deadline=None)
    @example((np.array([[0.0, 2.0, 2.0, 1.0], [math.nan, 1.0, 0.0, 0.0]]), [0.5, 1.0]))
    def test_terrain_groups(self, group):
        rows, gates = group
        got = find_peaks(rows, gates)
        assert len(got) == len(rows)
        for i, row in enumerate(rows):
            assert _exact(got[i]) == _exact(_find_peaks_reference(row, gates[i]))
            assert _exact(got[i]) == _exact(find_peaks(rows[i : i + 1], gates[i : i + 1])[0])
        assert [_exact(p) for p in find_peaks(np.asfortranarray(rows), gates)] == [
            _exact(p) for p in got
        ]

    @given(terrain_group())
    @settings(max_examples=50, deadline=None)
    def test_one_gate_is_every_row_gate(self, group):
        rows, gates = group
        shared = find_peaks(rows, gates[0])
        assert [_exact(p) for p in shared] == [
            _exact(p) for p in find_peaks(rows, [gates[0]] * len(rows))
        ]


def _kind_pair(rng, kind, n):
    """A raw luminance pair shaped like a genuine face, a reenactment or
    a forger (an echo delayed by a processing time)."""
    t = np.full(n, 180.0)
    t[int(rng.integers(25, 55)) :] -= 50.0
    t[int(rng.integers(85, 120)) :] += 50.0
    delay = int(rng.integers(2, 6)) + (int(rng.integers(4, 15)) if kind == "forger" else 0)
    if kind == "reenactment":
        r = np.full(n, 174.0)
        r[int(rng.integers(10, n - 10)) :] += rng.uniform(5, 20)
    else:
        r = 120.0 + rng.uniform(0.12, 0.4) * np.concatenate([np.full(delay, t[0]), t[:-delay]])
    return t, r + rng.normal(0.0, rng.uniform(0.3, 2.0), n)


class TestRealSmoothedSignals:
    @pytest.mark.parametrize("n", [150, 175, 200])
    @pytest.mark.parametrize("kind", ["genuine", "reenactment", "forger"])
    def test_preprocessed_clips(self, kind, n):
        config = DetectorConfig()
        rng = np.random.default_rng([n, len(kind)])
        pairs = [_kind_pair(rng, kind, n) for _ in range(8)]
        signals = [p[side] for p in pairs for side in (0, 1)]
        gates = [config.peak_prominence_screen, config.peak_prominence_face] * len(pairs)
        pres = preprocess_batch(signals, config, gates)
        block = np.array([pre.smoothed for pre in pres])
        found = 0
        for row_gates in (gates, [1e-9] * len(gates)):
            got = find_peaks(block, row_gates)
            for pre, peaks, gate in zip(pres, got, row_gates):
                assert _exact(peaks) == _exact(_find_peaks_reference(pre.smoothed, gate))
                found += len(peaks)
        assert [_exact(pre.peaks) for pre in pres] == [
            _exact(p) for p in find_peaks(block, gates)
        ]
        assert found > 0


class TestScipyCrossCheck:
    @given(terrain(_finite_value), st.floats(min_value=1e-6, max_value=1e3))
    @settings(max_examples=150, deadline=None)
    def test_matches_scipy_find_peaks(self, x, prominence):
        scipy_signal = pytest.importorskip("scipy.signal")
        ours = _one(x, prominence)
        indices, props = scipy_signal.find_peaks(x, prominence=prominence)
        assert [p.index for p in ours] == indices.tolist()
        assert [p.prominence for p in ours] == props["prominences"].tolist()
        assert [p.height for p in ours] == x[indices].tolist()
