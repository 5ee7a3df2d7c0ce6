"""End-to-end verification: two video streams in, a verdict out.

:class:`ChatVerifier` is the public entry point a video-chat application
would embed on the verifier's device.  It owns the landmark detector, the
luminance probes, the trained LOF detector, and the voting combiner, and
exposes three operations:

* :meth:`enroll` — fit the legitimate bank from genuine sessions (once,
  from *any* users' data; no attacker data, Sec. VII-A).
* :meth:`verify_clip` — one detection attempt on a 15-second clip pair.
* :meth:`verify_session` — cut a longer session into clips, run one
  attempt per clip, and majority-vote the verdict (Sec. VII-B).
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable

import numpy as np

from ..chat.session import SessionRecord
from ..obs.instrument import Instrumentation
from ..video.stream import VideoStream
from ..vision.landmarks import LandmarkDetector
from .config import DetectorConfig
from .detector import DetectionResult, LivenessDetector, verify_clips
from .features import extract_features_batch
from .luminance import clip_signals
from .voting import Verdict, VotingCombiner

__all__ = ["VerificationReport", "ChatVerifier"]


@dataclasses.dataclass(frozen=True)
class VerificationReport:
    """The one result shape every verifier returns: the verdict and the
    per-clip attempts behind it.

    ``verdict`` is ``None`` when no attempt carried enough evidence to
    support any decision — the honest answer a deployed system should
    surface instead of guessing.  Only the quality-gated
    :class:`~repro.core.streaming.StreamingVerifier` can end that way;
    :meth:`ChatVerifier.verify_session` always produces a verdict.
    """

    verdict: Verdict | None
    attempts: tuple[DetectionResult, ...]

    @property
    def is_attacker(self) -> bool:
        """Attacker iff a verdict exists and says so."""
        return self.verdict is not None and self.verdict.is_attacker


class ChatVerifier:
    """The paper's defense system, assembled."""

    def __init__(
        self,
        config: DetectorConfig | None = None,
        landmark_detector: LandmarkDetector | None = None,
        instrumentation: Instrumentation | None = None,
    ) -> None:
        self.config = config or DetectorConfig()
        self.landmark_detector = landmark_detector or LandmarkDetector()
        self.instrumentation = Instrumentation.ensure(instrumentation)
        self.detector = LivenessDetector(self.config, self.instrumentation)
        self.combiner = VotingCombiner(self.config.vote_fraction)

    # ------------------------------------------------------------------
    # Signal extraction
    # ------------------------------------------------------------------

    def extract_signals(
        self,
        transmitted: VideoStream,
        received: VideoStream,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Resample both streams to the working rate and extract the two
        raw luminance signals, trimmed to a common length."""
        with self.instrumentation.span("verifier.extract_signals", stage="luminance"):
            return clip_signals(
                transmitted, received, self.config.sample_rate_hz, self.landmark_detector
            )

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------

    def enroll(self, sessions: Iterable[SessionRecord]) -> "ChatVerifier":
        """Fit the legitimate bank from genuine session recordings.

        Each session is segmented into clips; every clip contributes one
        feature vector to the bank.  The landmark detector is rewound per
        session, so the bank does not depend on the order of the sessions.
        ``map`` drops each record once its signals are out, so a generator
        of sessions never has two records alive at once (a ``for``
        variable would hold the previous record while the generator
        simulates the next).
        """
        pairs = [
            pair
            for session_pairs in map(self._session_signals, sessions)
            for pair in session_pairs
        ]
        if len(pairs) < 2:
            raise ValueError("enrollment needs at least 2 clips of genuine chat")
        bank = [
            extraction.features
            for extraction in extract_features_batch(pairs, self.config)
        ]
        self.detector.fit(bank)
        return self

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------

    def verify_clip(
        self,
        transmitted: VideoStream,
        received: VideoStream,
    ) -> DetectionResult:
        """One detection attempt on one clip pair."""
        t_lum, r_lum = self.extract_signals(transmitted, received)
        return self.detector.verify_clip(t_lum, r_lum)

    def verify_session(
        self,
        record: SessionRecord,
    ) -> VerificationReport:
        """Segment a session into clips, batch-verify them, majority-vote."""
        with self.instrumentation.span("verifier.verify_session", stage="verdict"):
            pairs = self._session_signals(record)
            attempts = verify_clips(pairs, self.detector)
            if not attempts:
                raise ValueError(
                    "session shorter than one detection clip "
                    f"({self.config.clip_duration_s}s)"
                )
            verdict = self.combiner.combine(attempts)
        outcome = "attacker" if verdict.is_attacker else "legitimate"
        self.instrumentation.count("verifier_sessions_total", verdict=outcome)
        return VerificationReport(verdict=verdict, attempts=tuple(attempts))

    # ------------------------------------------------------------------

    def _session_signals(
        self, record: SessionRecord
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """The raw luminance signal pair of every clip of a session.

        The landmark detector is rewound first, as
        ``StreamingVerifier.reset`` does, so a session's signals never
        depend on the sessions this verifier handled before it.
        """
        self.landmark_detector.reset()
        return [
            self.extract_signals(t_clip, r_clip)
            for t_clip, r_clip in self._paired_clips(record.transmitted, record.received)
        ]

    def _paired_clips(
        self,
        transmitted: VideoStream,
        received: VideoStream,
    ) -> list[tuple[VideoStream, VideoStream]]:
        duration = self.config.clip_duration_s
        t_clips = transmitted.segments(duration)
        r_clips = received.segments(duration)
        return list(zip(t_clips, r_clips))
