"""Evaluation metrics."""

import numpy as np
import pytest

from repro.experiments.metrics import (
    equal_error_rate,
    true_acceptance_rate,
    true_rejection_rate,
)


class TestRates:
    def test_tar_counts_accepts(self):
        scores = np.array([1.0, 2.0, 4.0, 5.0])
        assert true_acceptance_rate(scores, 3.0) == pytest.approx(0.5)

    def test_trr_counts_rejects(self):
        scores = np.array([1.0, 2.0, 4.0, 5.0])
        assert true_rejection_rate(scores, 3.0) == pytest.approx(0.5)

    def test_threshold_inclusive_for_accept(self):
        assert true_acceptance_rate(np.array([3.0]), 3.0) == pytest.approx(1.0)
        assert true_rejection_rate(np.array([3.0]), 3.0) == pytest.approx(0.0)

    def test_empty_scores_rejected(self):
        with pytest.raises(ValueError):
            true_acceptance_rate(np.array([]), 3.0)


class TestEer:
    def test_perfect_separation_gives_zero(self):
        genuine = np.array([1.0, 1.1, 1.2])
        attacks = np.array([9.0, 9.5, 10.0])
        eer, threshold = equal_error_rate(genuine, attacks)
        assert eer == pytest.approx(0.0)
        assert 1.2 <= threshold < 9.0

    def test_total_overlap_gives_half(self):
        scores = np.array([1.0, 2.0, 3.0, 4.0])
        eer, _ = equal_error_rate(scores, scores)
        assert eer == pytest.approx(0.5, abs=0.15)

    def test_known_crossing(self):
        genuine = np.array([1.0, 2.0, 3.0, 4.0])
        attacks = np.array([3.5, 4.5, 5.5, 6.5])
        eer, threshold = equal_error_rate(genuine, attacks)
        assert eer == pytest.approx(0.25, abs=0.01)

    def test_eer_bounded(self):
        rng = np.random.default_rng(0)
        genuine = rng.normal(2.0, 1.0, 100)
        attacks = rng.normal(5.0, 1.0, 100)
        eer, _ = equal_error_rate(genuine, attacks)
        assert 0.0 <= eer <= 0.5
