"""StreamingVerifier: incremental detection during a live call."""

import numpy as np
import pytest

from repro.core.config import DetectorConfig
from repro.core.detector import LivenessDetector
from repro.core.features import FeatureVector
from repro.core.streaming import CallStatus, StreamingVerifier
from repro.experiments.profiles import Environment
from repro.experiments.simulate import simulate_attack_session, simulate_genuine_session


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


def _feed(verifier, record):
    results = []
    for t_frame, r_frame in zip(record.transmitted, record.received):
        result = verifier.push(t_frame, r_frame)
        if result is not None:
            results.append(result)
    return results


class TestLifecycle:
    def test_requires_trained_detector(self):
        with pytest.raises(ValueError):
            StreamingVerifier(LivenessDetector())

    def test_gathering_before_first_attempt(self, trained_detector):
        verifier = StreamingVerifier(trained_detector)
        assert verifier.state.status is CallStatus.GATHERING
        assert verifier.state.verdict is None

    def test_attempt_completes_every_clip_duration(self, trained_detector, env):
        verifier = StreamingVerifier(trained_detector)
        record = simulate_genuine_session(duration_s=30.0, seed=50, env=env)
        results = _feed(verifier, record)
        assert len(results) == 2  # 30 s = two 15 s clips
        assert verifier.state.samples_buffered == 0

    def test_reset_clears_everything(self, trained_detector, env):
        verifier = StreamingVerifier(trained_detector)
        record = simulate_genuine_session(duration_s=15.0, seed=51, env=env)
        _feed(verifier, record)
        verifier.reset()
        assert verifier.state.status is CallStatus.GATHERING
        assert verifier.gated_attempts == ()

    def test_reset_is_bit_identical_to_fresh(self, trained_detector, env):
        """A recycled verifier must replay a call exactly like a new one.

        The service layer pools verifiers across sessions, so any state
        surviving reset() — notably the landmark detector's jitter RNG —
        would make verdicts depend on which pooled instance served the
        session.  Run the same recording through a fresh verifier and
        through one that already served a different call and was reset;
        every score and quality grade must match bit-for-bit.
        """
        first = simulate_genuine_session(duration_s=15.0, seed=57, env=env)
        second = simulate_attack_session(duration_s=15.0, seed=58, env=env)

        recycled = StreamingVerifier(trained_detector)
        _feed(recycled, first)  # a prior call advances all mutable state
        recycled.reset()
        _feed(recycled, second)

        fresh = StreamingVerifier(trained_detector)
        _feed(fresh, second)

        assert len(recycled.gated_attempts) == len(fresh.gated_attempts)
        for ours, theirs in zip(recycled.gated_attempts, fresh.gated_attempts):
            assert ours.result.lof_score == theirs.result.lof_score
            assert ours.result.features == theirs.result.features
            assert ours.quality == theirs.quality
        assert recycled.state.status is fresh.state.status


class TestJudgement:
    def test_genuine_call_stays_live(self, trained_detector, env):
        verifier = StreamingVerifier(trained_detector)
        record = simulate_genuine_session(duration_s=30.0, seed=52, env=env)
        _feed(verifier, record)
        assert verifier.state.status in (CallStatus.LIVE, CallStatus.SUSPICIOUS)

    def test_attack_call_flagged(self, trained_detector, env):
        verifier = StreamingVerifier(trained_detector)
        record = simulate_attack_session(duration_s=30.0, seed=53, env=env)
        _feed(verifier, record)
        assert verifier.state.status is CallStatus.ATTACKER

    def test_alert_fires_once(self, trained_detector, env):
        alerts = []
        verifier = StreamingVerifier(trained_detector, on_alert=alerts.append)
        record = simulate_attack_session(duration_s=45.0, seed=54, env=env)
        _feed(verifier, record)
        assert len(alerts) == 1
        assert alerts[0].status is CallStatus.ATTACKER

    def test_vote_window_limits_memory(self, trained_detector, env):
        verifier = StreamingVerifier(trained_detector, vote_window=2)
        record = simulate_attack_session(duration_s=45.0, seed=55, env=env)
        _feed(verifier, record)
        assert len(verifier.state.attempts) == 2
        assert verifier.state.attempt_count == 2
        assert len(verifier.gated_attempts) == 3


class TestRoiConcealment:
    def test_faceless_frames_hold_last_value(self, trained_detector, env):
        verifier = StreamingVerifier(trained_detector)
        record = simulate_genuine_session(duration_s=15.0, seed=56, env=env)
        frames = list(zip(record.transmitted, record.received))
        # Corrupt a received frame mid-stream.
        t_frame, r_frame = frames[50]
        broken = r_frame.copy()
        broken.pixels[:] = 0.0
        frames[50] = (t_frame, broken)
        for t_f, r_f in frames:
            verifier.push(t_f, r_f)
        # One attempt completed despite the corrupted frame.
        assert len(verifier.gated_attempts) == 1
