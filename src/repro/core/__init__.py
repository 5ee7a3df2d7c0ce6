"""The paper's primary contribution: the liveness-detection pipeline."""

from .batch import ClipBatch
from .calibration import CalibrationResult, calibrate_threshold, leave_one_out_scores
from .challenge import ChallengeQuality, ChallengeScheduler, challenge_quality
from .config import PAPER_CONFIG, DetectorConfig
from .detector import DetectionResult, LivenessDetector, verify_clips
from .features import (
    FeatureExtraction,
    FeatureVector,
    extract_features_batch,
    features_from_signals_batch,
)
from .lof import LocalOutlierFactor
from .pipeline import ChatVerifier, VerificationReport
from .seeding import spawn_seeds
from .streaming import CallStatus, StreamingState, StreamingVerifier
from .voting import Verdict, VotingCombiner

__all__ = [
    "CalibrationResult",
    "calibrate_threshold",
    "leave_one_out_scores",
    "ChallengeQuality",
    "ChallengeScheduler",
    "challenge_quality",
    "PAPER_CONFIG",
    "DetectorConfig",
    "DetectionResult",
    "LivenessDetector",
    "ClipBatch",
    "FeatureExtraction",
    "FeatureVector",
    "extract_features_batch",
    "features_from_signals_batch",
    "verify_clips",
    "LocalOutlierFactor",
    "ChatVerifier",
    "VerificationReport",
    "CallStatus",
    "StreamingState",
    "StreamingVerifier",
    "Verdict",
    "VotingCombiner",
    "spawn_seeds",
]
