"""VerificationReport: the one result shape every verifier returns."""

import dataclasses

import pytest

from repro.core.detector import DetectionResult
from repro.core.features import FeatureVector
from repro.core.pipeline import ChatVerifier, VerificationReport
from repro.core.streaming import CallStatus, StreamingState
from repro.core.voting import Verdict


def _attempt(rejected: bool) -> DetectionResult:
    return DetectionResult(
        features=FeatureVector(1.0, 1.0, 0.9, 0.1),
        lof_score=5.0 if rejected else 1.0,
        threshold=3.0,
    )


def _verdict(rejects: int, total: int) -> Verdict:
    return Verdict(
        is_attacker=rejects > 0.7 * total,
        reject_votes=rejects,
        total_votes=total,
        vote_fraction=0.7,
    )


class TestShape:
    def test_conclusive_attacker(self):
        report = VerificationReport(
            verdict=_verdict(3, 3), attempts=tuple(_attempt(True) for _ in range(3))
        )
        assert report.verdict is not None
        assert report.is_attacker

    def test_no_verdict_means_not_attacker(self):
        report = VerificationReport(verdict=None, attempts=())
        assert report.verdict is None
        assert not report.is_attacker

    def test_frozen(self):
        report = VerificationReport(verdict=None, attempts=())
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.verdict = _verdict(0, 1)  # type: ignore[misc]


class TestUnifiedAliases:
    def test_batch_verifier_returns_the_report(self, genuine_record):
        verifier = ChatVerifier().enroll([genuine_record] * 3)
        report = verifier.verify_session(genuine_record)
        assert isinstance(report, VerificationReport)
        assert report.verdict is not None

    def test_streaming_state_exports_the_same_shape(self):
        attempts = (_attempt(True), _attempt(False))
        state = StreamingState(
            status=CallStatus.SUSPICIOUS,
            samples_buffered=10,
            attempts=attempts,
            verdict=_verdict(1, 2),
        )
        report = state.report
        assert isinstance(report, VerificationReport)
        assert report.attempts == attempts
        assert report.verdict == state.verdict
