"""Unit tests for the structure-of-arrays batch container and kernels."""

import numpy as np
import pytest

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

from ..property.test_prop_batch import _dtw_reference


class TestClipBatch:
    def test_from_signals_pads_and_masks(self):
        batch = ClipBatch.from_signals([[1.0, 2.0, 3.0], [4.0], []])
        assert batch.data.shape == (3, 3)
        assert batch.lengths.tolist() == [3, 1, 0]
        assert batch.max_length == 3
        assert len(batch) == 3
        # Padding beyond each clip is set to literal zero.
        assert batch.data[1, 1] == 0.0  # reprolint: disable=R004

    def test_row_returns_trimmed_view(self):
        batch = ClipBatch.from_signals([[1.0, 2.0], [3.0]])
        assert np.array_equal(batch.row(0), [1.0, 2.0])
        assert np.array_equal(batch.row(1), [3.0])
        rows = batch.rows()
        assert [r.size for r in rows] == [2, 1]

    def test_empty_batch(self):
        batch = ClipBatch.from_signals([])
        assert len(batch) == 0
        assert batch.max_length == 0
        assert batch.rows() == []

    def test_rejects_multidimensional_signal(self):
        with pytest.raises(ValueError):
            ClipBatch.from_signals([np.zeros((2, 2))])

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            ClipBatch(data=np.zeros((2, 3)), lengths=np.array([1, 2, 3]))
        with pytest.raises(ValueError):
            ClipBatch(data=np.zeros((2, 3)), lengths=np.array([1, 4]))
        with pytest.raises(ValueError):
            ClipBatch(data=np.zeros(3), lengths=np.array([3]))

    def test_group_by_length_orders_ascending(self):
        groups = group_by_length(np.array([5, 2, 5, 0, 2]))
        assert [(length, idx.tolist()) for length, idx in groups] == [
            (0, [3]),
            (2, [1, 4]),
            (5, [0, 2]),
        ]


class TestKernelValidation:
    def test_reflect_convolve_rejects_bad_inputs(self):
        rows = np.zeros((1, 4))
        with pytest.raises(ValueError):
            reflect_convolve_batch(np.zeros(4), np.ones(3))  # not 2-D
        with pytest.raises(ValueError):
            reflect_convolve_batch(rows, np.ones((2, 2)))  # kernel not 1-D
        with pytest.raises(ValueError):
            reflect_convolve_batch(rows, np.array([]))  # empty kernel

    def test_moving_windows_reject_nonpositive(self):
        rows = np.zeros((1, 4))
        with pytest.raises(ValueError):
            moving_variance_batch(rows, 0)
        with pytest.raises(ValueError):
            moving_rms_batch(rows, 0)

    def test_threshold_filter_batch_requires_2d(self):
        with pytest.raises(ValueError):
            threshold_filter_batch(np.zeros(4), 1.0)

    def test_zero_length_rows_pass_through(self):
        rows = np.zeros((2, 0))
        assert reflect_convolve_batch(rows, np.ones(3) / 3).shape == (2, 0)
        assert moving_variance_batch(rows, 4).shape == (2, 0)
        assert moving_rms_batch(rows, 4).shape == (2, 0)
        assert threshold_filter_batch(rows, 0.5).shape == (2, 0)


class TestDtwDistanceBatch:
    def test_known_distances(self):
        xs = [np.array([0.0, 1.0, 2.0]), np.array([1.0, 1.0])]
        ys = [np.array([0.0, 1.0, 2.0]), np.array([3.0])]
        assert dtw_distance_batch(xs, ys).tolist() == [0.0, 4.0]

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            dtw_distance_batch([np.array([1.0])], [])

    def test_rejects_2d_input(self):
        with pytest.raises(ValueError):
            dtw_distance_batch([np.zeros((2, 2))], [np.array([1.0])])

    def test_empty_batch(self):
        assert dtw_distance_batch([], []).size == 0


@pytest.fixture(scope="module")
def ragged_real_pairs():
    """64 segment pairs at the shapes z4 sees, with their oracle distances.

    Clip halves are 60-100 samples after delay alignment, and the two
    sides of a pair differ in length whenever the delay trims one.
    """
    rng = np.random.default_rng(16)
    n = rng.integers(60, 101, size=64)
    m = np.where(rng.random(64) < 0.5, n, rng.integers(60, 101, size=64))
    xs = [rng.uniform(0.0, 1.0, size) for size in n]
    ys = [rng.uniform(0.0, 1.0, size) for size in m]
    want = np.array([_dtw_reference(x, y) for x, y in zip(xs, ys)])
    return xs, ys, want


class TestDtwOracleAtRealShapes:
    def test_ragged_64_pairs(self, ragged_real_pairs):
        xs, ys, want = ragged_real_pairs
        assert any(x.size != y.size for x, y in zip(xs, ys))
        assert len({(x.size, y.size) for x, y in zip(xs, ys)}) > 32
        assert np.array_equal(dtw_distance_batch(xs, ys), want)

    def test_extreme_shapes_in_one_batch(self):
        rng = np.random.default_rng(17)
        shapes = [(1, 30), (30, 1), (1, 1), (30, 30)]
        xs = [rng.normal(size=n) for n, _ in shapes]
        ys = [rng.normal(size=m) for _, m in shapes]
        want = np.array([_dtw_reference(x, y) for x, y in zip(xs, ys)])
        assert np.array_equal(dtw_distance_batch(xs, ys), want)

    def test_large_magnitudes_and_exact_ties(self):
        rng = np.random.default_rng(18)
        big = [1e6 - rng.random(40), -1e6 + rng.random(25), rng.choice([-1e6, 1e6], 33)]
        # Integer-valued steps make many alignment paths cost exactly
        # the same, so the three-way minimum sees equal candidates.
        ties = [rng.integers(0, 3, 20).astype(float), np.repeat([0.0, 1.0, 2.0], 7)]
        xs = big + ties
        ys = [big[1], big[2], big[0], ties[1], ties[0]]
        want = np.array([_dtw_reference(x, y) for x, y in zip(xs, ys)])
        assert np.array_equal(dtw_distance_batch(xs, ys), want)

    def test_rows_are_independent(self, ragged_real_pairs):
        xs, ys, want = ragged_real_pairs
        alone = np.array([dtw_distance_batch([x], [y])[0] for x, y in zip(xs, ys)])
        assert np.array_equal(alone, want)
        assert np.array_equal(dtw_distance_batch(xs, ys), want)
        order = np.random.default_rng(19).permutation(len(xs))
        shuffled = dtw_distance_batch([xs[i] for i in order], [ys[i] for i in order])
        assert np.array_equal(shuffled, want[order])


def _oracle(xs, ys):
    return np.array([_dtw_reference(x, y) for x, y in zip(xs, ys)])


def _pairs(rng, shapes):
    xs = [rng.normal(size=n) for n, _ in shapes]
    ys = [rng.normal(size=m) for _, m in shapes]
    return xs, ys


class TestDtwPlanReuse:
    """A kept wavefront plan is invisible: every call equals the scalar DP,
    whatever the memo held before it."""

    def test_cold_warm_and_scalar_agree(self):
        xs, ys = _pairs(np.random.default_rng(20), [(73, 73), (70, 73), (73, 1)])
        want = _oracle(xs, ys)
        batch_module._PLANS.clear()
        cold = dtw_distance_batch(xs, ys)
        assert (73, 73, 3) in batch_module._PLANS
        warm = dtw_distance_batch(xs, ys)
        assert np.array_equal(cold, want) and np.array_equal(warm, want)

    def test_second_call_does_not_see_the_first(self):
        rng = np.random.default_rng(21)
        shapes = [(40, 40), (12, 40), (40, 3)]
        first = _pairs(rng, shapes)
        # Far larger values, then far smaller: stale cells of either call
        # would dominate the other's minima.
        second = ([1e5 * x for x in first[0]], [1e5 * y for y in first[1]])
        third = _pairs(rng, shapes)
        batch_module._PLANS.clear()
        for xs, ys in (first, second, third, first):
            assert np.array_equal(dtw_distance_batch(xs, ys), _oracle(xs, ys))
        assert len(batch_module._PLANS) == 1

    def test_evicted_plans_are_rebuilt(self):
        rng = np.random.default_rng(22)
        inputs = [_pairs(rng, [(size, size), (size - 5, size)]) for size in range(70, 82)]
        wants = [_oracle(xs, ys) for xs, ys in inputs]
        plans = batch_module._PLANS
        plans.clear()
        for _ in range(2):
            for (xs, ys), want in zip(inputs, wants):
                assert np.array_equal(dtw_distance_batch(xs, ys), want)
                assert plans.nbytes <= batch_module._PLAN_MEMO_BYTES
            # Twelve shapes overflow the budget and none is hit between
            # its uses, so the least recently used is the first.
            assert (70, 70, 2) not in plans and (81, 81, 2) in plans

    def test_hot_plan_survives_transient_shapes(self):
        """A shape used between every transient one is never rebuilt,
        though the transients alone overflow the budget."""
        rng = np.random.default_rng(27)
        hot = _pairs(rng, [(70, 70), (65, 70)])
        want = _oracle(*hot)
        transients = [_pairs(rng, [(size, size), (size - 5, size)]) for size in range(71, 83)]
        plans = batch_module._PLANS
        plans.clear()
        dtw_distance_batch(*hot)
        plan = plans.get((70, 70, 2))
        for xs, ys in transients:
            assert np.array_equal(dtw_distance_batch(*hot), want)
            assert np.array_equal(dtw_distance_batch(xs, ys), _oracle(xs, ys))
        assert (71, 71, 2) not in plans and (82, 82, 2) in plans
        assert plans.get((70, 70, 2)) is plan

    def test_plan_over_budget_runs_but_is_not_kept(self, monkeypatch):
        monkeypatch.setattr(batch_module, "_PLANS", batch_module._Memo(4096))
        xs, ys = _pairs(np.random.default_rng(23), [(30, 30), (30, 17)])
        want = _oracle(xs, ys)
        for _ in range(2):
            assert np.array_equal(dtw_distance_batch(xs, ys), want)
            assert len(batch_module._PLANS) == 0 and batch_module._PLANS.nbytes == 0

    def test_smallest_pair_and_empty_batch(self):
        batch_module._PLANS.clear()
        assert dtw_distance_batch([], []).size == 0
        assert len(batch_module._PLANS) == 0
        for _ in range(2):  # cold, then warm
            assert dtw_distance_batch([[3.0]], [[7.5]]).tolist() == [4.5]
        xs, ys = [np.array([2.0]), np.array([1.0, -1.0])], [np.array([-1.0]), np.array([4.0])]
        assert np.array_equal(dtw_distance_batch(xs, ys), _oracle(xs, ys))

    def test_mutating_result_or_inputs_leaves_the_next_call_alone(self):
        xs, ys = _pairs(np.random.default_rng(24), [(50, 45), (44, 50)])
        kept = ([x.copy() for x in xs], [y.copy() for y in ys])
        want = _oracle(xs, ys)
        out = dtw_distance_batch(xs, ys)
        out[:] = -1.0
        for x in xs:
            x[:] = 1e9
        assert np.array_equal(dtw_distance_batch(*kept), want)
        assert not np.shares_memory(dtw_distance_batch(*kept), out)


class TestMemoOrder:
    """``_Memo`` evicts the least recently used entry, not the oldest."""

    def test_hot_entry_survives_a_stream_of_short_lived_keys(self):
        memo = batch_module._Memo(40)
        memo.keep("hot", "H", 10)
        for key in range(20):
            assert memo.get("hot") == "H"
            memo.keep(key, key, 10)
            assert memo.nbytes <= 40
        # Insertion order would have evicted "hot" at the fourth key.
        assert "hot" in memo and len(memo) == 4
        assert sorted(k for k in (17, 18, 19) if k in memo) == [17, 18, 19]

    def test_a_hit_makes_its_entry_the_newest(self):
        memo = batch_module._Memo(30)
        for key in "abc":
            memo.keep(key, key.upper(), 10)
        assert memo.get("a") == "A"
        assert memo.get("missing") is None
        memo.keep("d", "D", 10)
        assert "b" not in memo and {"a", "c", "d"} <= {k for k in "abcd" if k in memo}
        memo.keep("e", "E", 20)  # needs two slots: c, then a
        assert "a" not in memo and "c" not in memo
        assert memo.values() == ["D", "E"] and memo.nbytes == 30


class TestDtwNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["x", "y"])
    def test_names_the_first_bad_pair(self, bad, side):
        rng = np.random.default_rng(25)
        xs, ys = _pairs(rng, [(20, 20), (20, 18), (15, 20), (20, 20)])
        for pair in (2, 3):
            (xs if side == "x" else ys)[pair][4] = bad
        with pytest.raises(ValueError, match="dtw pair 2 has a non-finite sample"):
            dtw_distance_batch(xs, ys)

    def test_refused_before_any_plan_buffer_is_written(self):
        xs, ys = _pairs(np.random.default_rng(26), [(20, 20), (18, 20)])
        batch_module._PLANS.clear()
        ys[1][0] = np.nan
        with pytest.raises(ValueError, match="dtw pair 1"):
            dtw_distance_batch(xs, ys)
        assert (20, 20, 2) not in batch_module._PLANS
        ys[1][0] = 0.0
        dtw_distance_batch(xs, ys)
        plan = batch_module._PLANS.get((20, 20, 2))
        before = [array.copy() for array in (plan.buffers, plan.a, plan.b)]
        xs[0][7] = np.inf
        with pytest.raises(ValueError, match="dtw pair 0"):
            dtw_distance_batch(xs, ys)
        after = (plan.buffers, plan.a, plan.b)
        assert all(np.array_equal(b, a) for b, a in zip(before, after))
        xs[0][7] = 0.0
        assert np.array_equal(dtw_distance_batch(xs, ys), _oracle(xs, ys))
