"""Majority-vote decision combination (Sec. VII-B)."""

import pytest

from repro.core.detector import DetectionResult
from repro.core.features import FeatureVector
from repro.core.voting import VotingCombiner


def _result(rejected: bool) -> DetectionResult:
    return DetectionResult(
        features=FeatureVector(1.0, 1.0, 0.9, 0.1),
        lof_score=10.0 if rejected else 1.0,
        threshold=3.0,
    )


class TestVotingRule:
    def test_all_accept(self):
        verdict = VotingCombiner(0.7).combine([_result(False)] * 5)
        assert not verdict.is_attacker
        assert verdict.reject_votes == 0
        assert verdict.total_votes == 5

    def test_all_reject(self):
        verdict = VotingCombiner(0.7).combine([_result(True)] * 5)
        assert verdict.is_attacker

    def test_boundary_is_strict(self):
        # 7 of 10 rejects == 0.7 * 10 exactly: NOT an attacker (strict >).
        results = [_result(True)] * 7 + [_result(False)] * 3
        assert not VotingCombiner(0.7).combine(results).is_attacker

    def test_just_above_boundary(self):
        results = [_result(True)] * 8 + [_result(False)] * 2
        assert VotingCombiner(0.7).combine(results).is_attacker

    def test_single_attempt_rejected(self):
        assert VotingCombiner(0.7).combine([_result(True)]).is_attacker

    def test_single_attempt_accepted(self):
        assert not VotingCombiner(0.7).combine([_result(False)]).is_attacker

    def test_tolerates_single_mistake_in_three(self):
        # The paper's motivation: one wrong rejection among three attempts
        # must not brand a legitimate user an attacker.
        results = [_result(True), _result(False), _result(False)]
        assert not VotingCombiner(0.7).combine(results).is_attacker


class TestBoolInterface:
    def test_combine_bools_matches_combine(self):
        combiner = VotingCombiner(0.7)
        pattern = [True, True, False, True, False]
        a = combiner.combine([_result(r) for r in pattern])
        b = combiner.combine_bools(pattern)
        assert a.is_attacker == b.is_attacker
        assert a.reject_votes == b.reject_votes


class TestValidation:
    def test_empty_attempts_raise(self):
        with pytest.raises(ValueError):
            VotingCombiner(0.7).combine([])
        with pytest.raises(ValueError):
            VotingCombiner(0.7).combine_bools([])

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            VotingCombiner(0.0)
        with pytest.raises(ValueError):
            VotingCombiner(1.0)
