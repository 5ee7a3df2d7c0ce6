"""Quality gating of streaming attempts: INCONCLUSIVE instead of wrong.

These tests pin the bugfix/robustness contract of the gated streaming
verifier: channel damage (landmark dropout, frozen video, missing
challenges) must surface as ``INCONCLUSIVE`` — never as a false
``ATTACKER`` — and leading landmark misses must not fabricate a
luminance step at clip start.
"""

import numpy as np
import pytest

from repro.core.config import DetectorConfig
from repro.core.detector import DetectionResult, LivenessDetector
from repro.core.features import FeatureVector
from repro.core.streaming import (
    AttemptVerdict,
    CallStatus,
    ClipQuality,
    GatedAttempt,
    QualityIssue,
    StreamingVerifier,
)
from repro.experiments.profiles import Environment
from repro.experiments.simulate import simulate_genuine_session
from repro.video.frame import Frame

from ..conftest import blank_frame


@pytest.fixture(scope="module")
def env():
    return Environment(frame_size=(72, 72), verifier_frame_size=(48, 48))


@pytest.fixture(scope="module")
def trained_detector():
    rng = np.random.default_rng(0)
    bank = [
        FeatureVector(
            z1=1.0,
            z2=float(rng.choice([1.0, 1.0, 1.0, 0.667])),
            z3=float(rng.uniform(0.9, 1.0)),
            z4=float(rng.uniform(0.02, 0.2)),
        )
        for _ in range(20)
    ]
    return LivenessDetector(DetectorConfig()).fit(bank)


def _blackout(frame: Frame) -> Frame:
    return Frame(
        pixels=frame.pixels * 0.0,
        timestamp=frame.timestamp,
        metadata=dict(frame.metadata),
    )


def _result(rejected: bool) -> DetectionResult:
    return DetectionResult(
        features=FeatureVector(z1=1.0, z2=1.0, z3=1.0, z4=0.1),
        lof_score=10.0 if rejected else 1.0,
        threshold=3.0,
    )


def _gated(rejected: bool, conclusive: bool = True) -> GatedAttempt:
    quality = ClipQuality(
        landmark_hit_fraction=1.0 if conclusive else 0.0,
        frozen_fraction=0.0,
        transmitted_changes=2,
        received_changes=2,
        issues=() if conclusive else (QualityIssue.LOW_LANDMARK_COVERAGE,),
    )
    return GatedAttempt(result=_result(rejected), quality=quality)


class TestAllMissClip:
    def test_first_clip_without_landmarks_is_inconclusive(self, trained_detector):
        """A clip whose every received frame lacks a face must not read
        as an attack — the channel delivered no evidence at all."""
        verifier = StreamingVerifier(trained_detector)
        config = trained_detector.config
        attempt = None
        for i in range(config.samples_per_clip):
            t = i / config.sample_rate_hz
            # Transmitted luminance varies (so the screen is "alive");
            # received frames are black — the landmark detector misses.
            transmitted = blank_frame(16, 16, value=0.4 + 0.2 * (i % 50 == 25), timestamp=t)
            received = blank_frame(48, 48, value=0.0, timestamp=t)
            attempt = verifier.push(transmitted, received) or attempt
        assert attempt is not None
        assert not attempt.conclusive
        assert attempt.verdict is AttemptVerdict.INCONCLUSIVE
        assert QualityIssue.LOW_LANDMARK_COVERAGE in attempt.quality.issues
        assert attempt.quality.landmark_hit_fraction == pytest.approx(0.0)
        state = verifier.state
        assert state.status is CallStatus.INCONCLUSIVE
        assert state.verdict is None
        assert state.conclusive_attempts == 0

    def test_flat_transmitted_clip_has_no_challenges(self, trained_detector, env):
        """A clip in which Alice's screen never changed carries no
        challenge; whatever the peer sent back proves nothing."""
        verifier = StreamingVerifier(trained_detector)
        record = simulate_genuine_session(duration_s=15.0, seed=58, env=env)
        attempt = None
        for i, (_, r_frame) in enumerate(zip(record.transmitted, record.received)):
            flat = blank_frame(16, 16, value=0.5, timestamp=i * 0.1)
            attempt = verifier.push(flat, r_frame) or attempt
        assert attempt is not None
        assert not attempt.conclusive
        assert QualityIssue.NO_CHALLENGES in attempt.quality.issues


class TestLeadingMissBackfill:
    def test_leading_misses_do_not_fabricate_a_change(self, trained_detector, env):
        """Blacking out the first received frames (tracker not locked
        yet) must not create a phantom luminance step: the clip keeps
        the same verdict and received change count as the clean run."""
        record = simulate_genuine_session(duration_s=15.0, seed=59, env=env)
        clean = StreamingVerifier(trained_detector)
        patched = StreamingVerifier(trained_detector)
        clean_attempt = patched_attempt = None
        for i, (t_frame, r_frame) in enumerate(
            zip(record.transmitted, record.received)
        ):
            clean_attempt = clean.push(t_frame, r_frame) or clean_attempt
            if i < 8:
                r_frame = _blackout(r_frame)
            patched_attempt = patched.push(t_frame, r_frame) or patched_attempt
        assert clean_attempt is not None and patched_attempt is not None
        clean_changes = clean_attempt.result.extraction.received.change_count
        patched_changes = patched_attempt.result.extraction.received.change_count
        assert patched_changes == clean_changes
        assert patched_attempt.result.accepted == clean_attempt.result.accepted
        assert patched_attempt.quality.landmark_hit_fraction < 1.0


class TestVoteWindowWithInconclusive:
    def test_inconclusive_attempts_hold_slots_but_never_vote(
        self, trained_detector
    ):
        """With vote_window=3, two old rejects must stop counting once
        three newer attempts (even inconclusive ones) displace them."""
        verifier = StreamingVerifier(trained_detector, vote_window=3)
        verifier._attempts.extend(
            [_gated(rejected=True), _gated(rejected=True)]
        )
        assert verifier.state.status is CallStatus.ATTACKER
        verifier._attempts.extend(
            [
                _gated(rejected=False),
                _gated(rejected=True, conclusive=False),
                _gated(rejected=True, conclusive=False),
            ]
        )
        state = verifier.state
        # Window now holds [accept, inconclusive, inconclusive]: one
        # conclusive accept, zero reject votes.
        assert state.inconclusive_attempts == 2
        assert state.conclusive_attempts == 1
        assert state.verdict.reject_votes == 0
        assert state.status is CallStatus.LIVE

    def test_all_inconclusive_window_reports_inconclusive(self, trained_detector):
        verifier = StreamingVerifier(trained_detector, vote_window=2)
        verifier._attempts.extend(
            [
                _gated(rejected=True),  # conclusive, but about to leave the window
                _gated(rejected=True, conclusive=False),
                _gated(rejected=True, conclusive=False),
            ]
        )
        state = verifier.state
        assert state.status is CallStatus.INCONCLUSIVE
        assert state.verdict is None


class TestConclusiveVote:
    """Inconclusive attempts leave the voting denominator; with none
    conclusive the state has no verdict (see
    ``test_all_inconclusive_window_reports_inconclusive``)."""

    def test_only_conclusive_attempts_vote(self, trained_detector):
        verifier = StreamingVerifier(trained_detector)
        verifier._attempts.extend(
            [
                _gated(rejected=True),
                _gated(rejected=True),
                _gated(rejected=False, conclusive=False),
            ]
        )
        # Counted, the accept would hold rejects at 2/3 < 0.7; gated out,
        # 2/2 rejects > 0.7 -> attacker.
        state = verifier.state
        assert state.verdict.total_votes == 2
        assert state.verdict.is_attacker
        assert state.status is CallStatus.ATTACKER
