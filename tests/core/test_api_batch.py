"""The redesigned batch API surface: ``verify_clips`` as the documented
entry point and batch extraction exported from :mod:`repro.api`."""

import warnings

import numpy as np
import pytest

import repro
import repro.api
from repro.core.config import DetectorConfig
from repro.core.detector import LivenessDetector, verify_clips
from repro.core.features import extract_features_batch
from repro.core.pipeline import ChatVerifier
from repro.engine import ExecutionEngine
from repro.experiments.simulate import simulate_genuine_session


def _make_pairs(count, seed=17):
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        length = int(rng.integers(60, 160))
        t_lum = rng.uniform(80.0, 140.0, length)
        r_lum = rng.uniform(0.2, 0.9, length)
        pairs.append((t_lum, r_lum))
    return pairs


class TestApiSurface:
    def test_batch_names_exported_from_api_and_root(self):
        for module in (repro, repro.api):
            assert module.ClipBatch is not None
            assert module.extract_features_batch is extract_features_batch
            assert module.verify_clips is verify_clips
            for name in ("ClipBatch", "extract_features_batch", "verify_clips"):
                assert name in module.__all__


class TestDeprecatedWrappers:
    def test_batch_entry_points_do_not_warn(self):
        pairs = _make_pairs(2)
        config = DetectorConfig()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            extract_features_batch(pairs, config)


class TestVerifyClips:
    def test_matches_per_clip_verify_loop(self):
        config = DetectorConfig()
        detector = LivenessDetector(config)
        detector.fit_from_clips(_make_pairs(8, seed=5))
        probes = _make_pairs(4, seed=6)
        batched = verify_clips(probes, detector)
        for (t_lum, r_lum), got in zip(probes, batched):
            want = detector.verify_clip(t_lum, r_lum)
            assert got.features == want.features
            assert got.lof_score == want.lof_score
            assert got.accepted == want.accepted

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["transmitted", "received"])
    @pytest.mark.parametrize("with_engine", [False, True])
    def test_non_finite_sample_is_refused(
        self, step_signal, reflected_signal, side, bad, with_engine
    ):
        # One such sample used to zero the rest of its clip's variance
        # signal (z1 = z2 = 0): a silent false reject of a live face.
        detector = LivenessDetector(DetectorConfig())
        detector.fit_from_clips(_make_pairs(8, seed=5))
        pairs = [(step_signal, reflected_signal + k) for k in range(3)]
        broken = [step_signal.copy(), reflected_signal.copy()]
        broken[side == "received"][90] = bad
        pairs.insert(2, tuple(broken))
        with ExecutionEngine(jobs=1) as engine:
            with pytest.raises(ValueError, match="signal 2 has a non-finite sample"):
                verify_clips(pairs, detector, engine=engine if with_engine else None)
            assert len(engine.cache) == 0

    def test_engine_names_the_callers_index_among_duplicates(
        self, step_signal, reflected_signal
    ):
        # Duplicate pairs are extracted once, so the bad pair is the
        # second distinct cache miss; the error must still name index 2.
        detector = LivenessDetector(DetectorConfig())
        detector.fit_from_clips(_make_pairs(8, seed=5))
        good = (step_signal, reflected_signal)
        bad = (step_signal, reflected_signal.copy())
        bad[1][90] = np.nan
        pairs = [good, good, bad, good]
        with ExecutionEngine(jobs=1) as engine:
            with pytest.raises(ValueError, match="signal 2 has a non-finite sample"):
                verify_clips(pairs, detector, engine=engine)

    def test_empty_batch_returns_empty(self):
        detector = LivenessDetector(DetectorConfig())
        assert verify_clips([], detector) == []

    def test_carries_extraction_on_core_path(self):
        detector = LivenessDetector(DetectorConfig())
        detector.fit_from_clips(_make_pairs(8, seed=5))
        results = verify_clips(_make_pairs(2, seed=9), detector)
        assert all(r.extraction is not None for r in results)


class TestChatVerifierBatchPath:
    def test_clip_features_matches_session_enrollment_bank(self):
        verifier = ChatVerifier()
        records = [simulate_genuine_session(seed=s, duration_s=16.0) for s in range(2)]
        verifier.enroll(records)
        assert verifier.detector.is_trained
        record = records[0]
        t_clip, r_clip = verifier._paired_clips(record.transmitted, record.received)[0]
        # Landmark tracking is stateful, so both paths start from a fresh
        # verifier to see the identical signal extraction.
        fv = ChatVerifier().clip_features(t_clip, r_clip)
        t_lum, r_lum = ChatVerifier().extract_signals(t_clip, r_clip)
        want = extract_features_batch([(t_lum, r_lum)], verifier.config)[0].features
        assert fv == want
