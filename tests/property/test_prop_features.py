"""Property-based tests of matching, delay removal, feature ranges, and
the grouped Sec. VI tail against its per-clip oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.config import DetectorConfig
from repro.core.delay import _overlap, estimate_delay
from repro.core.features import (
    _features_from_signals_batch,
    _unit,
    _unit_by_length,
    extract_features_batch,
)
from repro.core.matching import ChangeMatch, _greedy_pairs
from repro.obs.instrument import NULL

from ..core.test_features import _features_reference, _pre, _tail_refuses, _unit_reference

times = st.lists(
    st.floats(min_value=0.0, max_value=15.0, allow_nan=False),
    min_size=0,
    max_size=8,
).map(sorted)


@st.composite
def spaced_times(draw, min_gap=2.1, max_count=6):
    """Sorted change times with pairwise gaps > 2x the match tolerance,
    so a one-to-one greedy matching is unambiguous."""
    gaps = draw(
        st.lists(
            st.floats(min_value=min_gap, max_value=6.0, allow_nan=False),
            min_size=1,
            max_size=max_count,
        )
    )
    start = draw(st.floats(min_value=0.0, max_value=3.0, allow_nan=False))
    return (start + np.cumsum(np.array(gaps)) - gaps[0]).tolist()


class TestMatchingProperties:
    @given(times, times, st.floats(min_value=0.1, max_value=3.0))
    @settings(max_examples=60, deadline=None)
    def test_one_to_one(self, t, r, tol):
        pairs = _greedy_pairs(t, r, tol)
        assert len({i for i, _, _ in pairs}) == len(pairs)
        assert len({j for _, j, _ in pairs}) == len(pairs)

    @given(times, times, st.floats(min_value=0.1, max_value=3.0))
    @settings(max_examples=60, deadline=None)
    def test_all_pairs_within_tolerance(self, t, r, tol):
        for _, _, difference in _greedy_pairs(t, r, tol):
            assert abs(difference) <= tol + 1e-12

    @given(spaced_times(), st.floats(min_value=0.0, max_value=0.9))
    @settings(max_examples=60, deadline=None)
    def test_planted_delay_recovered(self, t, delay):
        # Changes spaced > 2x tolerance apart: the matching is unambiguous
        # and the estimator must recover the planted delay exactly.
        pairs = _greedy_pairs(t, [x + delay for x in t], tolerance_s=1.0)
        estimated = estimate_delay([ChangeMatch(i, j, d) for i, j, d in pairs])
        assert estimated is not None
        assert abs(estimated - delay) < 1e-9

    @given(times, times, st.floats(min_value=0.1, max_value=3.0))
    @settings(max_examples=60, deadline=None)
    def test_symmetry_of_match_count(self, t, r, tol):
        forward = _greedy_pairs(t, r, tol)
        backward = _greedy_pairs(r, t, tol)
        assert len(forward) == len(backward)


class TestAlignProperties:
    @given(
        st.integers(min_value=10, max_value=100),
        st.integers(min_value=-5, max_value=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_alignment_undoes_integer_shift(self, n, shift_samples):
        rng = np.random.default_rng(abs(shift_samples) + n)
        x = rng.normal(size=n)
        if shift_samples >= 0:
            y = np.concatenate([np.zeros(shift_samples), x])[:n]
        else:
            y = np.concatenate([x[-shift_samples:], np.zeros(-shift_samples)])
        t_a, r_a = _overlap(x, y, shift_samples / 10.0, 10.0)
        overlap = min(t_a.size, r_a.size)
        if shift_samples >= 0:
            assert np.allclose(t_a[: overlap - shift_samples], r_a[: overlap - shift_samples])


class TestNormalizeProperties:
    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=100,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_output_in_unit_interval(self, values):
        out = _unit(np.array(values)[None, :])
        assert out.min() >= 0.0
        assert out.max() <= 1.0


class TestFeatureRanges:
    @given(st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=15, deadline=None)
    def test_features_always_in_sane_ranges(self, seed):
        """Whatever noisy signals come in, features stay bounded."""
        rng = np.random.default_rng(seed)
        t = 150.0 + np.cumsum(rng.normal(0, rng.uniform(0.1, 8.0), 150))
        r = 120.0 + np.cumsum(rng.normal(0, rng.uniform(0.1, 4.0), 150))
        fx = extract_features_batch([(np.clip(t, 0, 255), np.clip(r, 0, 255))], DetectorConfig())[0]
        z = fx.features
        assert 0.0 <= z.z1 <= 1.0
        assert 0.0 <= z.z2 <= 1.0
        assert -1.0 <= z.z3 <= 1.0
        assert z.z4 >= 0.0
        assert np.isfinite(z.as_array()).all()


# ----------------------------------------------------------------------
# The grouped Sec. VI tail against the per-clip oracle
# ----------------------------------------------------------------------

#: Sample values with both signed zeros, repeats and a wide range.
_samples = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 3.0]),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, width=32),
)


@st.composite
def _row_blocks(draw):
    """A ``(rows, n)`` block whose rows are random, flat or nearly flat."""
    rows = draw(st.integers(min_value=1, max_value=6))
    n = draw(st.integers(min_value=0, max_value=40))
    block = draw(hnp.arrays(np.float64, (rows, n), elements=_samples))
    for i in range(rows):
        shape = draw(st.sampled_from(["random", "flat", "near-flat"]))
        if shape == "flat" and n:
            block[i] = block[i, 0]
        elif shape == "near-flat" and n:
            block[i] = 5.0
            block[i, draw(st.integers(0, n - 1))] += 1e-13
    return block


class TestUnitRows:
    @given(_row_blocks())
    @settings(max_examples=150, deadline=None)
    def test_each_row_equals_the_one_signal_form(self, block):
        got = _unit(block)
        assert got.shape == block.shape
        for row, signal in zip(got, block):
            assert row.view(np.int64).tolist() == _unit_reference(signal).view(np.int64).tolist()

    @given(st.lists(_row_blocks().map(lambda b: list(b)), min_size=1, max_size=4))
    @settings(max_examples=80, deadline=None)
    def test_ragged_groups_equal_the_one_signal_form(self, groups):
        signals = [row for group in groups for row in group]
        order = np.random.default_rng(len(signals)).permutation(len(signals))
        signals = [signals[i] for i in order]
        for row, signal in zip(_unit_by_length(signals), signals, strict=True):
            assert row.view(np.int64).tolist() == _unit_reference(signal).view(np.int64).tolist()


@st.composite
def _tail_clip(draw, length=None):
    """One hand-made clip: smoothed signals of free or given length, and
    peaks placed so that matches, guard trims, positive and negative
    delays, and delays past the end of the signals all occur."""
    n_t = length or draw(st.integers(min_value=1, max_value=60))
    n_r = length or draw(st.sampled_from([n_t, draw(st.integers(min_value=1, max_value=60))]))
    sides = []
    for n in (n_t, n_r):
        shape = draw(st.sampled_from(["walk", "walk", "flat", "samples"]))
        if shape == "walk":
            rng = np.random.default_rng(draw(st.integers(0, 2**16)))
            sides.append(np.cumsum(rng.normal(size=n)) + np.linspace(0.0, 3.0, n))
        elif shape == "flat":
            sides.append(np.full(n, draw(_samples)))
        else:
            sides.append(draw(hnp.arrays(np.float64, n, elements=_samples)))
    if length is not None:
        return _pre(sides[0], []), _pre(sides[1], [])
    raw_size = draw(st.integers(min_value=max(n_t, 25), max_value=90))
    t_peaks = sorted(draw(st.sets(st.integers(10, raw_size - 1), max_size=4)))
    offsets = st.sampled_from([-12, -8, -5, -3, -1, 0, 2, 4, 7, 9, 12])
    shifts = draw(st.lists(offsets, min_size=len(t_peaks), max_size=len(t_peaks)))
    r_peaks = sorted({max(0, p + d) for p, d in zip(t_peaks, shifts)})
    return _pre(sides[0], t_peaks, raw_size=raw_size), _pre(sides[1], r_peaks)


@st.composite
def _tail_batches(draw):
    """Ragged batches: free lengths, one shared length or all-distinct
    lengths, under two or three segments."""
    count = draw(st.integers(min_value=1, max_value=7))
    mode = draw(st.sampled_from(["free", "shared", "distinct"]))
    if mode == "free":
        clips = [draw(_tail_clip()) for _ in range(count)]
    elif mode == "shared":
        length = draw(st.integers(min_value=4, max_value=60))
        clips = [draw(_tail_clip(length)) for _ in range(count)]
    else:
        lengths = draw(
            st.lists(st.integers(2, 20), min_size=count, max_size=count, unique=True)
        )
        clips = [draw(_tail_clip(6 * n)) for n in lengths]
    return clips, DetectorConfig(segment_count=draw(st.sampled_from([2, 3])))


class TestGroupedTail:
    @given(_tail_batches())
    @settings(max_examples=120, deadline=None)
    def test_each_clip_equals_the_oracle(self, batch):
        clips, config = batch
        pre_ts, pre_rs = [t for t, _ in clips], [r for _, r in clips]
        if any(_tail_refuses(t, r, config) for t, r in clips):
            with pytest.raises(ValueError, match="equal length"):
                _features_from_signals_batch(pre_ts, pre_rs, config, NULL)
            return
        wants = [_features_reference(t, r, config) for t, r in clips]
        got = _features_from_signals_batch(pre_ts, pre_rs, config, NULL)
        for extraction, (features, matches, delay_s) in zip(got, wants, strict=True):
            assert repr(extraction.features) == repr(features)
            assert repr(extraction.matches) == repr(tuple(matches))
            assert repr(extraction.delay_s) == repr(delay_s)

    @given(_tail_batches(), st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_shuffled_and_single_clips_agree_with_the_batch(self, batch, seed):
        clips, config = batch
        if any(_tail_refuses(t, r, config) for t, r in clips):
            return

        def run(subset):
            got = _features_from_signals_batch(
                [t for t, _ in subset], [r for _, r in subset], config, NULL
            )
            return [repr((x.features, x.matches, x.delay_s)) for x in got]

        whole = run(clips)
        order = np.random.default_rng(seed).permutation(len(clips))
        assert run([clips[i] for i in order]) == [whole[i] for i in order]
        assert [run([clip])[0] for clip in clips] == whole
