"""Reproduction of *Protecting Real-time Video Chat against Fake Facial
Videos Generated by Face Reenactment* (Shang & Wu, ICDCS 2020).

A challenge-free liveness defense for video chat: the verifier's own
video drives the prover's screen, the prover's face reflects that screen
light, and the correlation between the two luminance signals separates a
real face from a reenacted one.

Quick start::

    from repro import ChatVerifier, simulate_genuine_session

    verifier = ChatVerifier()
    verifier.enroll([simulate_genuine_session(seed=s) for s in range(3)])
    record = simulate_genuine_session(seed=99)
    print(verifier.verify_session(record).is_attacker)  # False

Package layout (see DESIGN.md for the full inventory):

* :mod:`repro.core` -- the paper's contribution: luminance extraction,
  the Sec. V filter chain, the z1..z4 features, the LOF classifier,
  majority voting, and the assembled :class:`~repro.core.ChatVerifier`.
* :mod:`repro.vision`, :mod:`repro.camera`, :mod:`repro.screen`,
  :mod:`repro.video`, :mod:`repro.net`, :mod:`repro.chat` -- the
  substrates replacing the paper's physical testbed.
* :mod:`repro.attack` -- reenactment / adaptive-forgery / replay attackers.
* :mod:`repro.baselines` -- comparator detectors.
* :mod:`repro.experiments` -- dataset generation, metrics, and one runner
  per paper figure.
"""

from .api import (
    PAPER_CONFIG,
    ChatVerifier,
    ClipBatch,
    DetectionResult,
    DetectorConfig,
    ExecutionEngine,
    FeatureVector,
    LivenessDetector,
    PerfReport,
    StreamingVerifier,
    Verdict,
    VerificationReport,
    VotingCombiner,
    extract_features_batch,
    simulate_adaptive_attack_session,
    simulate_attack_session,
    simulate_genuine_session,
    verify_clips,
)
from .core import LocalOutlierFactor

__version__ = "1.0.0"

__all__ = [
    "PAPER_CONFIG",
    "ChatVerifier",
    "DetectionResult",
    "DetectorConfig",
    "ExecutionEngine",
    "FeatureVector",
    "LivenessDetector",
    "LocalOutlierFactor",
    "PerfReport",
    "StreamingVerifier",
    "Verdict",
    "VerificationReport",
    "VotingCombiner",
    "ClipBatch",
    "extract_features_batch",
    "simulate_genuine_session",
    "simulate_attack_session",
    "simulate_adaptive_attack_session",
    "verify_clips",
    "__version__",
]
