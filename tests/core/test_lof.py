"""Local Outlier Factor: density semantics, Fig. 9 behaviour, edge cases."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import lof as lof_module
from repro.core.lof import LocalOutlierFactor, SmallBankWarning


@pytest.fixture()
def cluster():
    """A tight 2-D cluster of 20 points around (1, 1)."""
    rng = np.random.default_rng(42)
    return np.array([1.0, 1.0]) + 0.05 * rng.normal(size=(20, 2))


class TestInlierOutlier:
    def test_cluster_member_scores_near_one(self, cluster):
        model = LocalOutlierFactor(5).fit(cluster)
        score = model.score(np.array([1.0, 1.0]))
        assert 0.5 < score < 1.5

    def test_distant_point_scores_high(self, cluster):
        model = LocalOutlierFactor(5).fit(cluster)
        assert model.score(np.array([3.0, -1.0])) > 5.0

    def test_score_grows_with_distance(self, cluster):
        model = LocalOutlierFactor(5).fit(cluster)
        scores = [model.score(np.array([1.0 + d, 1.0])) for d in (0.2, 0.5, 1.0, 2.0)]
        assert scores == sorted(scores)

    def test_fig9_style_separation(self):
        # The paper's Fig. 9: legitimate points LOF < 1.5, attacker ~2+.
        rng = np.random.default_rng(7)
        legit = np.column_stack([
            rng.uniform(0.9, 1.0, 30),
            rng.uniform(0.85, 1.0, 30),
        ])
        model = LocalOutlierFactor(5).fit(legit)
        legit_scores = model.score_samples(legit + 0.01 * rng.normal(size=legit.shape))
        attacker = np.array([0.45, 0.5])
        assert np.median(legit_scores) < 1.5
        assert model.score(attacker) > 2.0


class TestNoveltySemantics:
    def test_scoring_does_not_mutate_model(self, cluster):
        model = LocalOutlierFactor(5).fit(cluster)
        before = model.score(np.array([2.0, 2.0]))
        for _ in range(5):
            model.score(np.array([2.0, 2.0]))
        assert model.score(np.array([2.0, 2.0])) == before

    def test_batch_equals_individual(self, cluster):
        model = LocalOutlierFactor(5).fit(cluster)
        queries = np.array([[1.0, 1.0], [2.0, 0.0], [0.0, 2.0]])
        batch = model.score_samples(queries)
        singles = [model.score(q) for q in queries]
        assert np.allclose(batch, singles)

    def test_order_of_training_points_irrelevant(self, cluster):
        rng = np.random.default_rng(0)
        shuffled = cluster[rng.permutation(cluster.shape[0])]
        a = LocalOutlierFactor(5).fit(cluster).score(np.array([1.5, 1.5]))
        b = LocalOutlierFactor(5).fit(shuffled).score(np.array([1.5, 1.5]))
        assert a == pytest.approx(b)


class TestSmallAndDegenerateBanks:
    def test_k_capped_at_n_minus_one(self):
        train = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.warns(SmallBankWarning):
            model = LocalOutlierFactor(5).fit(train)  # k becomes 2
        assert model._effective_k == 2
        assert np.isfinite(model.score(np.array([0.5, 0.5])))

    def test_small_bank_clamp_is_never_silent(self):
        """k=5 against a tiny refitted tenant bank must announce itself."""
        train = np.array([[0.0, 0.0], [1.0, 1.0]])
        with pytest.warns(SmallBankWarning, match="clamping n_neighbors from 5"):
            LocalOutlierFactor(5).fit(train)

    def test_adequate_bank_emits_no_warning(self, cluster):
        with warnings.catch_warnings():
            warnings.simplefilter("error", SmallBankWarning)
            model = LocalOutlierFactor(5).fit(cluster)
        assert model._effective_k == 5

    def test_strict_neighbors_raises_typed_error(self):
        train = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="cannot support n_neighbors=5"):
            LocalOutlierFactor(5, strict_neighbors=True).fit(train)

    def test_strict_neighbors_accepts_adequate_bank(self, cluster):
        model = LocalOutlierFactor(5, strict_neighbors=True).fit(cluster)
        assert model._effective_k == 5

    def test_clamped_model_still_separates(self):
        """A degraded k must keep the inlier/outlier ordering."""
        rng = np.random.default_rng(3)
        train = rng.normal(0.0, 0.1, size=(4, 2))
        with pytest.warns(SmallBankWarning):
            model = LocalOutlierFactor(5).fit(train)
        inlier = model.score(np.array([0.0, 0.0]))
        outlier = model.score(np.array([4.0, 4.0]))
        assert outlier > inlier

    def test_fit_requires_two_points(self):
        with pytest.raises(ValueError):
            LocalOutlierFactor(5).fit(np.array([[1.0, 2.0]]))

    def test_duplicate_training_points_query_on_top(self):
        train = np.tile([1.0, 1.0], (10, 1))
        model = LocalOutlierFactor(3).fit(train)
        # Query exactly on the degenerate cluster: inlier by convention.
        assert model.score(np.array([1.0, 1.0])) == pytest.approx(1.0)

    def test_duplicate_training_points_query_away(self):
        train = np.tile([1.0, 1.0], (10, 1))
        model = LocalOutlierFactor(3).fit(train)
        assert model.score(np.array([5.0, 5.0])) == np.inf


class TestValidation:
    def test_score_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            LocalOutlierFactor(5).score(np.zeros(2))

    def test_dimension_mismatch_raises(self, cluster):
        model = LocalOutlierFactor(5).fit(cluster)
        with pytest.raises(ValueError):
            model.score(np.zeros(3))

    def test_nonfinite_training_rejected(self):
        bad = np.array([[0.0, np.nan], [1.0, 1.0]])
        with pytest.raises(ValueError):
            LocalOutlierFactor(5).fit(bad)

    def test_nonfinite_query_rejected(self, cluster):
        model = LocalOutlierFactor(5).fit(cluster)
        with pytest.raises(ValueError):
            model.score(np.array([np.inf, 0.0]))

    def test_rejects_k_below_one(self):
        with pytest.raises(ValueError):
            LocalOutlierFactor(0)

    def test_train_size_reported(self, cluster):
        model = LocalOutlierFactor(5).fit(cluster)
        assert model.train_size == 20


# ----------------------------------------------------------------------
# The matrix kernel against the per-query scorer it replaced
# ----------------------------------------------------------------------


def _fit_reference(X, k):
    """The bank statistics of ``fit`` before the matrix kernel, kept as
    the oracle: one ``(n, n, d)`` difference cube summed per row."""
    n = X.shape[0]
    diffs = X[:, None, :] - X[None, :, :]
    dist = np.sqrt((diffs**2).sum(axis=2))
    np.fill_diagonal(dist, np.inf)
    order = np.argsort(dist, axis=1)
    neighbor_idx = order[:, :k]
    k_distance = dist[np.arange(n), order[:, k - 1]]
    reach = np.maximum(k_distance[neighbor_idx], dist[np.arange(n)[:, None], neighbor_idx])
    reach_sum = reach.sum(axis=1)
    with np.errstate(divide="ignore"):
        lrd = np.where(reach_sum > 0, k / reach_sum, np.inf)
    return k_distance, lrd


def _score_one_reference(model, z):
    """``LocalOutlierFactor._score_one`` before the matrix kernel, kept
    verbatim as the oracle: one query, scalar special cases."""
    train = np.ascontiguousarray(model._columns.T)
    k = model._effective_k

    dist = np.sqrt(((train - z) ** 2).sum(axis=1))
    order = np.argsort(dist)
    neighbors = order[:k]

    reach = np.maximum(model._train_k_distance[neighbors], dist[neighbors])
    reach_sum = reach.sum()
    lrd_z = np.inf if reach_sum <= 0 else k / reach_sum

    neighbor_lrd = model._train_lrd[neighbors]
    finite = neighbor_lrd[np.isfinite(neighbor_lrd)]
    if np.isinf(lrd_z):
        return 1.0
    if finite.size == 0:
        return np.inf
    mean_neighbor_lrd = (
        float(neighbor_lrd.mean()) if finite.size == neighbor_lrd.size else float(np.inf)
    )
    if np.isinf(mean_neighbor_lrd):
        return np.inf
    return mean_neighbor_lrd / lrd_z


def _reference_scores(model, Z):
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore", RuntimeWarning)
        return np.array([_score_one_reference(model, z) for z in Z], dtype=np.float64)


def _fit_quietly(X, k):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SmallBankWarning)
        return LocalOutlierFactor(k).fit(X)


def _assert_bits(got, want):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes(), (got, want)


@st.composite
def _banks_and_queries(draw, max_dim=5):
    """A bank and queries on a coarse grid, so ties, duplicate bank rows
    and queries equal to bank points are common; ``k`` may exceed the
    bank and clamp."""
    d = draw(st.integers(1, max_dim))
    n = draw(st.integers(2, 24))
    scale = draw(st.sampled_from([1.0, 0.1, 1e-3, 1e3]))
    grid = st.integers(-3, 3)
    bank = np.array(draw(st.lists(st.lists(grid, min_size=d, max_size=d), min_size=n, max_size=n)))
    duplicates = draw(st.integers(0, n - 1))
    bank[:duplicates] = bank[0]
    noise = draw(st.booleans())
    bank = bank * scale
    if noise:
        bank = bank + draw(st.floats(0.0, 0.3)) * scale * np.sin(np.arange(n * d)).reshape(n, d)
    picks = draw(st.lists(st.integers(0, n - 1), max_size=4))
    free = np.array(draw(st.lists(st.lists(grid, min_size=d, max_size=d), min_size=1, max_size=6)))
    queries = np.vstack([bank[picks].reshape(-1, d), free * scale * 0.7])
    k = draw(st.integers(1, 8))
    return bank, queries, k


class TestMatrixKernelMatchesReference:
    @given(_banks_and_queries())
    @settings(max_examples=300, deadline=None)
    def test_scores_and_bank_statistics_bit_identical(self, case):
        bank, queries, k = case
        model = _fit_quietly(bank, k)
        k_distance, lrd = _fit_reference(bank, model._effective_k)
        _assert_bits(model._train_k_distance, k_distance)
        _assert_bits(model._train_lrd, lrd)
        _assert_bits(model.score_samples(queries), _reference_scores(model, queries))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 7), st.integers(2, 30))
    @settings(max_examples=100, deadline=None)
    def test_mixed_magnitudes_keep_numpy_row_sum_order(self, seed, d, n):
        """Mixed magnitudes, where the order of additions shows: below
        eight features numpy sums a row one value after another, and so
        does the kernel's feature-axis sum."""
        rng = np.random.default_rng(seed)
        bank = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-4, 4, size=(n, d))
        queries = np.vstack([rng.normal(size=(5, d)) * 100.0, bank[:2]])
        model = _fit_quietly(bank, 5)
        k_distance, lrd = _fit_reference(bank, model._effective_k)
        _assert_bits(model._train_k_distance, k_distance)
        _assert_bits(model._train_lrd, lrd)
        _assert_bits(model.score_samples(queries), _reference_scores(model, queries))

    def test_duplicate_bank_special_cases(self):
        """On top of a duplicated cluster: 1.0; beside it: inf."""
        bank = np.vstack([np.tile([1.0, 1.0], (6, 1)), [[4.0, 4.0], [5.0, 5.0]]])
        model = LocalOutlierFactor(5).fit(bank)
        queries = np.array([[1.0, 1.0], [1.5, 1.0], [4.0, 4.0], [9.0, 9.0]])
        scores = model.score_samples(queries)
        assert scores[0] == 1.0 and scores[1] == np.inf  # reprolint: disable=R004
        _assert_bits(scores, _reference_scores(model, queries))

    def test_final_division_overflows_to_inf(self):
        """Neighbour densities near 1e161 over a far query's tiny own
        density overflow; both paths say inf."""
        bank = np.arange(12.0).reshape(6, 2) * 1e-160
        model = LocalOutlierFactor(3).fit(bank)
        queries = np.array([[1e150, 0.0], [3e-160, 4e-160]])
        scores = model.score_samples(queries)
        assert scores[0] == np.inf and np.isfinite(scores[1])
        _assert_bits(scores, _reference_scores(model, queries))

    def test_own_density_overflow_scores_one(self):
        """A reach sum so small that ``k / reach_sum`` overflows counts as
        an infinite own density, like a zero sum: the query scores 1.0."""
        bank = np.vstack([np.tile([2.0, 3.0], (4, 1)), [[7.0, 1.0], [9.0, 9.0]]])
        model = LocalOutlierFactor(3).fit(bank)
        model._train_k_distance = np.full(6, 1e-310)
        query = np.array([[2.0, 3.0]])  # on the duplicated bank points
        assert model.score_samples(query)[0] == 1.0  # reprolint: disable=R004
        _assert_bits(model.score_samples(query), _reference_scores(model, query))


class TestScoreIndependentOfBatch:
    """A query's score does not depend on the batch it rides in."""

    @pytest.fixture()
    def model(self):
        rng = np.random.default_rng(23)
        bank = np.vstack([rng.normal(size=(30, 4)), np.tile(rng.normal(size=4), (6, 1))])
        return LocalOutlierFactor(5).fit(bank)

    def _queries(self, model):
        rng = np.random.default_rng(29)
        bank = np.ascontiguousarray(model._columns.T)
        return np.vstack([rng.normal(size=(6, 4)), bank[[0, 30, 35]]])

    def test_alone_in_batch_beside_duplicates_and_bank_points(self, model):
        rng = np.random.default_rng(31)
        bank = np.ascontiguousarray(model._columns.T)
        for query in self._queries(model):
            alone = model.score_samples(query[None, :])
            assert alone.tobytes() == np.array([model.score(query)]).tobytes()
            _assert_bits(alone, _reference_scores(model, query[None, :]))
            crowd = rng.normal(size=(64, 4))
            at = int(rng.integers(0, 65))
            batch = np.insert(crowd, at, query, axis=0)
            _assert_bits(model.score_samples(batch)[at : at + 1], alone)
            _assert_bits(model.score_samples(np.tile(query, (5, 1))), np.repeat(alone, 5))
            beside_bank = np.vstack([bank[:10], query[None, :], bank[30:]])
            _assert_bits(model.score_samples(beside_bank)[10:11], alone)

    def test_queries_beyond_one_block(self, model):
        """More queries than one pass of the kernel takes: every row still
        scores as it does alone, across the block edges too."""
        rng = np.random.default_rng(37)
        queries = rng.normal(size=(2 * lof_module._BLOCK_ROWS + 3, 4))
        queries[lof_module._BLOCK_ROWS] = np.ascontiguousarray(model._columns.T)[35]
        _assert_bits(model.score_samples(queries), _reference_scores(model, queries))
