"""Session builders: determinism and role correctness."""

import numpy as np
import pytest

from repro.core.features import extract_features_batch
from repro.core.luminance import received_luminance_signal, transmitted_luminance_signal
from repro.experiments.profiles import Environment
from repro.experiments.simulate import (
    default_user,
    simulate_adaptive_attack_session,
    simulate_attack_session,
    simulate_genuine_session,
    simulate_replay_attack_session,
)


@pytest.fixture(scope="module")
def env():
    return Environment(frame_size=(72, 72), verifier_frame_size=(48, 48))


def _features(record):
    t = transmitted_luminance_signal(record.transmitted)
    r = received_luminance_signal(record.received).luminance
    return extract_features_batch([(t, r)])[0].features


class TestDeterminism:
    def test_same_seed_identical_session(self, env):
        a = simulate_genuine_session(duration_s=5.0, seed=42, env=env)
        b = simulate_genuine_session(duration_s=5.0, seed=42, env=env)
        assert np.array_equal(a.transmitted[10].pixels, b.transmitted[10].pixels)
        assert np.array_equal(a.received[10].pixels, b.received[10].pixels)

    def test_different_seeds_differ(self, env):
        a = simulate_genuine_session(duration_s=5.0, seed=1, env=env)
        b = simulate_genuine_session(duration_s=5.0, seed=2, env=env)
        assert not np.array_equal(a.received[10].pixels, b.received[10].pixels)


class TestRoleSeparation:
    def test_genuine_features_look_live(self, env):
        features = _features(simulate_genuine_session(duration_s=15.0, seed=7, env=env))
        assert features.z1 >= 0.5
        assert features.z3 > 0.5

    def test_attack_decoupled(self, env):
        features = _features(simulate_attack_session(duration_s=15.0, seed=7, env=env))
        assert features.z3 < 0.8  # trend never matches the challenge

    def test_adaptive_with_zero_delay_looks_live(self, env):
        record = simulate_adaptive_attack_session(
            processing_delay_s=0.0, duration_s=15.0, seed=8, env=env
        )
        features = _features(record)
        # A perfect zero-delay forgery is indistinguishable by design.
        assert features.z1 >= 0.5
        assert features.z3 > 0.5

    def test_adaptive_with_long_delay_breaks(self, env):
        record = simulate_adaptive_attack_session(
            processing_delay_s=2.5, duration_s=15.0, seed=8, env=env
        )
        features = _features(record)
        assert features.z3 < 0.8 or features.z1 < 1.0

    def test_replay_session_runs(self, env):
        record = simulate_replay_attack_session(duration_s=15.0, seed=9, env=env)
        assert len(record.received) == 150


class TestDefaultUser:
    def test_stable(self):
        assert np.allclose(
            default_user().face.skin_reflectance, default_user().face.skin_reflectance
        )
