"""Comparator liveness detectors discussed in the paper's Sec. X.

Each baseline exists to make one of the paper's arguments measurable:

* :mod:`~repro.baselines.crosscorr` — the naive signal-level alternative
  to the paper's feature + LOF pipeline.
* :mod:`~repro.baselines.artifact` — artifact-detection methods need
  attacker training data and do not generalize across synthesis quality.
* :mod:`~repro.baselines.facelive` — challenge-response on prover-held
  sensors collapses when the attacker forges the sensor channel.
"""

from .artifact import ArtifactDetector, artifact_features
from .crosscorr import CrossCorrelationDetector, max_normalized_crosscorr
from .facelive import FaceLiveDetector, SensorChannel

__all__ = [
    "ArtifactDetector",
    "artifact_features",
    "CrossCorrelationDetector",
    "max_normalized_crosscorr",
    "FaceLiveDetector",
    "SensorChannel",
]
