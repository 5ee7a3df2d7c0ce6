"""LivenessDetector: training protocol and clip verification."""

import numpy as np
import pytest

from repro.core.config import DetectorConfig
from repro.core.detector import DetectionResult, LivenessDetector
from repro.core.features import FeatureVector


def _genuine_bank(n=20, seed=0):
    rng = np.random.default_rng(seed)
    return [
        FeatureVector(
            z1=1.0,
            z2=float(rng.choice([1.0, 1.0, 1.0, 0.667])),
            z3=float(rng.uniform(0.9, 1.0)),
            z4=float(rng.uniform(0.02, 0.2)),
        )
        for _ in range(n)
    ]


ATTACK_FEATURES = FeatureVector(z1=0.3, z2=0.5, z3=-0.4, z4=0.9)
GENUINE_FEATURES = FeatureVector(z1=1.0, z2=1.0, z3=0.97, z4=0.06)


class TestTraining:
    def test_fit_from_feature_vectors(self):
        det = LivenessDetector().fit(_genuine_bank())
        assert det.is_trained
        assert det.training_size == 20

    def test_fit_from_array(self):
        X = np.stack([fv.as_array() for fv in _genuine_bank()])
        det = LivenessDetector().fit(X)
        assert det.training_size == 20

    def test_fit_rejects_wrong_width(self):
        with pytest.raises(ValueError):
            LivenessDetector().fit(np.zeros((10, 3)))

    def test_verify_before_training_raises(self):
        with pytest.raises(RuntimeError):
            LivenessDetector().verify_features(GENUINE_FEATURES)

    def test_fit_from_clips(self, step_signal, reflected_signal):
        clips = [(step_signal, reflected_signal)] * 3
        det = LivenessDetector().fit_from_clips(clips)
        assert det.is_trained

    def test_fit_from_too_few_clips_raises(self, step_signal, reflected_signal):
        with pytest.raises(ValueError):
            LivenessDetector().fit_from_clips([(step_signal, reflected_signal)])


class TestVerification:
    @pytest.fixture()
    def trained(self):
        return LivenessDetector().fit(_genuine_bank())

    def test_genuine_features_accepted(self, trained):
        result = trained.verify_features(GENUINE_FEATURES)
        assert result.accepted
        assert not result.rejected

    def test_attack_features_rejected(self, trained):
        result = trained.verify_features(ATTACK_FEATURES)
        assert result.rejected
        assert result.lof_score > 3.0

    def test_threshold_comes_from_config(self):
        lenient = LivenessDetector(DetectorConfig(lof_threshold=1e6)).fit(_genuine_bank())
        assert lenient.verify_features(ATTACK_FEATURES).accepted

    def test_result_carries_evidence(self, trained):
        result = trained.verify_features(GENUINE_FEATURES)
        assert result.features == GENUINE_FEATURES
        assert result.threshold == pytest.approx(3.0)

    def test_verify_clip_end_to_end(self, step_signal, reflected_signal):
        det = LivenessDetector().fit(_genuine_bank())
        result = det.verify_clip(step_signal, reflected_signal)
        assert isinstance(result, DetectionResult)
        assert result.extraction is not None
        assert result.accepted

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["transmitted", "received"])
    def test_verify_clip_refuses_non_finite_sample(
        self, step_signal, reflected_signal, side, bad
    ):
        # One such sample used to zero the rest of the clip's variance
        # signal (z1 = z2 = 0): a silent false reject of a live face.
        det = LivenessDetector().fit(_genuine_bank())
        pair = [step_signal.copy(), reflected_signal.copy()]
        pair[side == "received"][60] = bad
        with pytest.raises(ValueError, match="signal 0 has a non-finite sample"):
            det.verify_clip(*pair)

    def test_verify_clip_rejects_uncorrelated(self, step_signal):
        det = LivenessDetector().fit(_genuine_bank())
        fake = np.full(150, 140.0)
        fake[25:] += 25.0
        fake[80:] -= 35.0
        assert det.verify_clip(step_signal, fake).rejected

    def test_score_samples_matches_per_vector_scores(self, trained):
        batch = np.stack([GENUINE_FEATURES.as_array(), ATTACK_FEATURES.as_array()])
        scores = trained.score_samples(batch)
        assert scores.shape == (2,)
        assert scores[0] == trained.score(GENUINE_FEATURES)
        assert scores[1] == trained.score(ATTACK_FEATURES)

    def test_score_samples_before_training_raises(self):
        with pytest.raises(RuntimeError):
            LivenessDetector().score_samples(np.zeros((2, 4)))

    def test_verify_features_of_a_sequence_matches_one_by_one(self, trained):
        vectors = [GENUINE_FEATURES, ATTACK_FEATURES, GENUINE_FEATURES]
        extractions = ["first", None, "third"]  # carried through untouched
        results = trained.verify_features(vectors, extractions)
        assert len(results) == 3
        for result, fv, ex in zip(results, vectors, extractions):
            alone = trained.verify_features(fv, ex)
            assert result == alone
            assert result.lof_score == alone.lof_score
        assert [r.extraction for r in trained.verify_features(vectors)] == [None] * 3

    def test_verify_features_of_an_empty_sequence(self, trained):
        assert trained.verify_features([]) == []

    def test_verify_features_needs_one_extraction_per_vector(self, trained):
        with pytest.raises(ValueError, match="2 extractions for 1 feature vectors"):
            trained.verify_features([GENUINE_FEATURES], [None, None])

    def test_verify_features_of_a_sequence_before_training_raises(self):
        with pytest.raises(RuntimeError):
            LivenessDetector().verify_features([GENUINE_FEATURES])
