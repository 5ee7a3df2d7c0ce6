"""ChatVerifier: the assembled end-to-end defense."""

import weakref

import pytest

from repro.core.config import DetectorConfig
from repro.core.pipeline import ChatVerifier
from repro.experiments.simulate import simulate_attack_session, simulate_genuine_session


@pytest.fixture(scope="module")
def enrolled_verifier(fast_env):
    """A verifier enrolled on three short genuine sessions."""
    verifier = ChatVerifier()
    sessions = [
        simulate_genuine_session(duration_s=15.0, seed=700 + s, env=fast_env)
        for s in range(6)
    ]
    return verifier.enroll(sessions)


# fast_env is defined in the top-level conftest; re-export for module scope.
@pytest.fixture(scope="module")
def fast_env():
    from repro.experiments.profiles import Environment

    return Environment(frame_size=(72, 72), verifier_frame_size=(48, 48))


class TestEnrollment:
    def test_enrollment_trains_detector(self, enrolled_verifier):
        assert enrolled_verifier.detector.is_trained
        assert enrolled_verifier.detector.training_size == 6

    def test_enroll_requires_sessions(self):
        with pytest.raises(ValueError):
            ChatVerifier().enroll([])

    @pytest.mark.filterwarnings("ignore::repro.core.lof.SmallBankWarning")
    def test_enroll_keeps_at_most_one_record_alive(self, fast_env):
        """While a generator simulates the next session, enrollment holds
        no earlier record: its frames are dropped once its signals are out."""
        refs, alive = [], []

        def records():
            for seed in range(3):
                alive.append(sum(ref() is not None for ref in refs))
                record = simulate_genuine_session(duration_s=15.0, seed=720 + seed, env=fast_env)
                refs.append(weakref.ref(record))
                yield record
                del record

        ChatVerifier().enroll(records())
        assert alive == [0, 0, 0]

    def test_enroll_features_direct(self):
        from repro.core.features import FeatureVector

        bank = [FeatureVector(1.0, 1.0, 0.95, 0.05)] * 5 + [
            FeatureVector(1.0, 0.9, 0.9, 0.1)
        ]
        verifier = ChatVerifier().enroll_features(bank)
        assert verifier.detector.is_trained


class TestSessionVerification:
    def test_genuine_session_accepted(self, enrolled_verifier, fast_env):
        record = simulate_genuine_session(duration_s=15.0, seed=801, env=fast_env)
        verdict = enrolled_verifier.verify_session(record)
        assert not verdict.is_attacker
        assert len(verdict.attempts) == 1

    def test_attack_session_rejected(self, enrolled_verifier, fast_env):
        record = simulate_attack_session(duration_s=15.0, seed=802, env=fast_env)
        verdict = enrolled_verifier.verify_session(record)
        assert verdict.is_attacker

    def test_multi_clip_session_votes(self, enrolled_verifier, fast_env):
        record = simulate_attack_session(duration_s=45.0, seed=803, env=fast_env)
        verdict = enrolled_verifier.verify_session(record)
        assert len(verdict.attempts) == 3
        assert verdict.verdict.total_votes == 3
        # With D=3 the paper's rule needs rejects > 0.7*3, i.e. all three;
        # a majority of rejections is the robust expectation here.
        assert verdict.verdict.reject_votes >= 2

    def test_verdict_independent_of_prior_sessions(self, enrolled_verifier, fast_env):
        # The landmark jitter is rewound per session: an unrelated session
        # in between leaves the second verification bit-identical.
        record = simulate_genuine_session(duration_s=15.0, seed=806, env=fast_env)
        other = simulate_attack_session(duration_s=15.0, seed=807, env=fast_env)

        def bits(report):
            return [
                ([v.hex() for v in a.features.as_array().tolist()], a.lof_score.hex())
                for a in report.attempts
            ]

        first = bits(enrolled_verifier.verify_session(record))
        enrolled_verifier.verify_session(other)
        assert bits(enrolled_verifier.verify_session(record)) == first

    def test_too_short_session_raises(self, enrolled_verifier, fast_env):
        record = simulate_genuine_session(duration_s=8.0, seed=804, env=fast_env)
        with pytest.raises(ValueError):
            enrolled_verifier.verify_session(record)


class TestSignalExtraction:
    def test_signals_trimmed_to_common_length(self, enrolled_verifier, fast_env):
        record = simulate_genuine_session(duration_s=15.0, seed=805, env=fast_env)
        t_lum, r_lum = enrolled_verifier.extract_signals(
            record.transmitted, record.received
        )
        assert t_lum.size == r_lum.size == 150

    def test_resampling_applied_when_rates_differ(self, fast_env):
        config = DetectorConfig(sample_rate_hz=5.0)
        verifier = ChatVerifier(config)
        record = simulate_genuine_session(duration_s=15.0, seed=806, env=fast_env)
        t_lum, r_lum = verifier.extract_signals(record.transmitted, record.received)
        # 15 s at 5 Hz: between 71 and 75 samples depending on edge frames.
        assert 70 <= t_lum.size <= 75
        assert t_lum.size == r_lum.size
