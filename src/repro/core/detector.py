"""Single-clip fake-video detection (Sec. VII-A).

:class:`LivenessDetector` is the deployable unit: fit it once on a bank
of legitimate feature vectors (from *any* users — the paper shows
training on other volunteers' data works as well as the user's own,
Fig. 11), then verify clips.  A clip is rejected as an attack when its
LOF score exceeds the decision threshold tau (default 3, swept in
Fig. 12).
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING, overload

import numpy as np

from ..obs.instrument import Instrumentation
from .config import DetectorConfig
from .features import FeatureExtraction, FeatureVector, extract_features_batch
from .lof import LocalOutlierFactor

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine -> core)
    from ..engine import ExecutionEngine

__all__ = ["DetectionResult", "LivenessDetector", "verify_clips"]


@dataclasses.dataclass(frozen=True)
class DetectionResult:
    """Outcome of one detection attempt on one clip."""

    features: FeatureVector
    lof_score: float
    threshold: float
    extraction: FeatureExtraction | None = None

    @property
    def accepted(self) -> bool:
        """True when the clip is judged live (LOF <= tau)."""
        return self.lof_score <= self.threshold

    @property
    def rejected(self) -> bool:
        """True when the clip is judged an attack."""
        return not self.accepted


class LivenessDetector:
    """LOF-based fake-face detector for one feature configuration.

    Parameters
    ----------
    config:
        Pipeline constants; defaults to the paper's values.
    instrumentation:
        Optional observability handle; disabled (:data:`~repro.obs.
        instrument.NULL`) when omitted.  Deliberately *not* part of
        ``config``: the config's ``dataclasses.asdict`` fingerprint keys
        the feature cache, and a handle is process-local state.
    """

    def __init__(
        self,
        config: DetectorConfig | None = None,
        instrumentation: Instrumentation | None = None,
    ) -> None:
        self.config = config or DetectorConfig()
        self.instrumentation = Instrumentation.ensure(instrumentation)
        self._model = LocalOutlierFactor(n_neighbors=self.config.lof_neighbors)

    @property
    def is_trained(self) -> bool:
        return self._model.is_fitted

    @property
    def training_size(self) -> int:
        """Number of legitimate instances in the fitted bank."""
        return self._model.train_size

    def fit(self, bank: Sequence[FeatureVector] | np.ndarray) -> "LivenessDetector":
        """Fit on a bank of legitimate-user feature vectors.

        The bank needs no attacker data and no data from the user being
        verified — the paper's key training-cost property.
        """
        if isinstance(bank, np.ndarray):
            X = np.asarray(bank, dtype=np.float64)
        else:
            X = np.array([fv.as_array() for fv in bank], dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != 4:
            raise ValueError(f"bank must have shape (n, 4), got {X.shape}")
        self._model.fit(X)
        return self

    def fit_from_clips(
        self,
        clips: Iterable[tuple[np.ndarray, np.ndarray]],
    ) -> "LivenessDetector":
        """Fit from raw legitimate (transmitted, received) luminance pairs."""
        bank = [
            extraction.features
            for extraction in extract_features_batch(list(clips), self.config)
        ]
        if len(bank) < 2:
            raise ValueError("need at least 2 training clips")
        return self.fit(bank)

    def score(self, features: FeatureVector) -> float:
        """Raw LOF score of one feature vector."""
        if not self.is_trained:
            raise RuntimeError("detector is not trained; call fit() first")
        return self._model.score(features.as_array())

    def score_samples(self, features: np.ndarray) -> np.ndarray:
        """Raw LOF scores of a feature matrix ``(n, 4)``.

        The experiment runners score whole test splits through this, so
        protocol rounds and deployed verification share one model and
        one threshold semantics.
        """
        if not self.is_trained:
            raise RuntimeError("detector is not trained; call fit() first")
        return self._model.score_samples(np.asarray(features, dtype=np.float64))

    @overload
    def verify_features(
        self,
        features: FeatureVector,
        extraction: FeatureExtraction | None = None,
    ) -> DetectionResult: ...

    @overload
    def verify_features(
        self,
        features: Sequence[FeatureVector],
        extraction: Sequence[FeatureExtraction | None] | None = None,
    ) -> list[DetectionResult]: ...

    def verify_features(self, features, extraction=None):
        """Classify already-extracted feature vectors.

        One :class:`FeatureVector` (and its optional extraction) gives
        one :class:`DetectionResult`.  A sequence of vectors (with one
        extraction each, or none) is scored as one ``(n, 4)`` query
        matrix and gives the results in order, each bit-identical to
        classifying that vector alone.
        """
        threshold = self.config.lof_threshold
        if isinstance(features, FeatureVector):
            return DetectionResult(
                features=features,
                lof_score=self.score(features),
                threshold=threshold,
                extraction=extraction,
            )
        vectors = list(features)
        extractions = [None] * len(vectors) if extraction is None else list(extraction)
        if len(extractions) != len(vectors):
            raise ValueError(
                f"{len(extractions)} extractions for {len(vectors)} feature vectors"
            )
        scores = self.score_samples(
            np.array(
                [(f.z1, f.z2, f.z3, f.z4) for f in vectors], dtype=np.float64
            ).reshape(-1, 4)
        )
        return [
            DetectionResult(
                features=fv, lof_score=score, threshold=threshold, extraction=ex
            )
            for fv, score, ex in zip(vectors, scores.tolist(), extractions)
        ]

    def verify_clip(
        self,
        transmitted_luminance: np.ndarray,
        received_luminance: np.ndarray,
        instrumentation: Instrumentation | None = None,
    ) -> DetectionResult:
        """Full single-clip detection from raw luminance signals.

        ``instrumentation`` overrides the detector's own handle for this
        call (the streaming verifier passes its handle through here).
        """
        instr = (
            instrumentation if instrumentation is not None else self.instrumentation
        )
        with instr.span("detector.verify_clip", stage="verdict"):
            extraction = extract_features_batch(
                [(transmitted_luminance, received_luminance)],
                self.config,
                instrumentation=instr,
            )[0]
            result = self.verify_features(extraction.features, extraction)
        verdict = "accept" if result.accepted else "reject"
        instr.count("detector_clips_total", verdict=verdict)
        return result


def verify_clips(
    pairs: Sequence[tuple[np.ndarray, np.ndarray]],
    detector: LivenessDetector,
    engine: "ExecutionEngine | None" = None,
) -> list[DetectionResult]:
    """Batch verification: many clips against one fitted detector.

    The documented entry point for offline verification.  Features for
    every ``(transmitted, received)`` luminance pair are extracted in one
    pass through the batch core — through the content-addressed cache
    of an :class:`~repro.engine.ExecutionEngine` when one is given —
    then classified as one query matrix by
    :meth:`LivenessDetector.verify_features`.  Results come back in
    submission order, each bit-identical to
    :meth:`LivenessDetector.verify_clip` on that pair alone.

    The engine path returns :class:`DetectionResult` objects without the
    ``extraction`` intermediates (the cache stores bare feature vectors).
    """
    pairs = list(pairs)
    if not pairs:
        return []
    instr = detector.instrumentation
    with instr.span("detector.verify_clips", stage="verdict", clips=len(pairs)):
        if engine is not None:
            features = engine.extract_features_batch(pairs, detector.config)
            results = detector.verify_features(features)
        else:
            extractions = extract_features_batch(
                pairs, detector.config, instrumentation=instr
            )
            results = detector.verify_features(
                [extraction.features for extraction in extractions], extractions
            )
        for result in results:
            instr.count(
                "detector_clips_total",
                verdict="accept" if result.accepted else "reject",
            )
    return results
