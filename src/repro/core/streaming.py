"""Online (streaming) verification during a live call.

The batch :class:`~repro.core.pipeline.ChatVerifier` consumes complete
recordings; a deployed system instead watches the call *as it happens*:
frames arrive one by one, a detection attempt fires every clip interval,
and an alert is raised as soon as the voting rule condemns the peer
(Sec. III-B: "our detection methods can be triggered multiple times
during the real-time video chat; if the untrusted user is detected as an
attacker, an alert will be sent").

:class:`StreamingVerifier` implements that loop:

* ``push(transmitted_frame, received_frame)`` — feed the verifier each
  tick's pair of frames (what Alice's app already has in hand).
* every ``clip_duration_s`` worth of samples, a single-clip detection
  runs, is **quality-gated**, and joins the rolling vote window;
* ``state`` summarizes the call so far; ``on_alert`` fires once, the
  first time the vote crosses the attacker line.

Challenge binding
-----------------
When a :class:`~repro.protocol.gate.ProtocolGate` is bound to the
verifier (:meth:`StreamingVerifier.bind_protocol`), every completed
clip's peak times are additionally checked against the session's
nonce-derived challenge schedule.  A response that echoes a *prior*
session's schedule grades the attempt ``REPLAY``; one that echoes the
live schedule outside the freshness window grades ``STALE``.  Both are
rejections in the vote — the LOF cannot produce them on its own,
because a replayed genuine recording is a perfectly plausible response
to *somebody's* challenges, just not to this session's.

Quality gating
--------------
A live call rides a lossy channel: packet-loss bursts freeze the received
video, landmark dropout blinds the ROI probe, jitter spikes starve the
playout.  A clip degraded that way carries the *channel's* behaviour, not
the peer's — classifying it anyway would condemn a live user (or mask an
attacker who suppresses the channel).  Each completed clip is therefore
scored (:class:`ClipQuality`: landmark-hit fraction, frozen-sample
fraction, challenge/change counts) against the ``gate_*`` thresholds on
:class:`~repro.core.config.DetectorConfig`; failing clips become
``INCONCLUSIVE`` attempts that are excluded from the
:class:`~repro.core.voting.VotingCombiner` denominator entirely.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:
    from ..protocol.gate import BindingReport, ProtocolGate

from ..obs.instrument import Instrumentation
from ..video.frame import Frame
from ..video.luminance import frame_mean_luminance
from ..vision.landmarks import LandmarkDetector
from .config import DetectorConfig
from .detector import DetectionResult, LivenessDetector
from .luminance import roi_luminance
from .pipeline import VerificationReport
from .voting import Verdict, VotingCombiner

__all__ = [
    "AttemptVerdict",
    "CONDEMNED_STATUSES",
    "CallStatus",
    "ClipQuality",
    "GatedAttempt",
    "QualityIssue",
    "StreamingState",
    "StreamingVerifier",
]


class CallStatus(enum.Enum):
    """Rolling judgement of the remote peer."""

    GATHERING = "gathering"  # not enough samples for the first attempt
    LIVE = "live"  # attempts so far accept the peer
    SUSPICIOUS = "suspicious"  # rejections present but below the vote line
    ATTACKER = "attacker"  # voting rule crossed; alert raised
    INCONCLUSIVE = "inconclusive"  # attempts exist but none carried evidence
    REPLAY = "replay"  # condemned, dominated by replayed-schedule bindings
    STALE = "stale"  # condemned, dominated by out-of-window responses


class AttemptVerdict(enum.Enum):
    """Per-clip outcome after quality gating and challenge binding."""

    ACCEPT = "accept"
    REJECT = "reject"
    INCONCLUSIVE = "inconclusive"
    REPLAY = "replay"  # response echoes a prior session's schedule
    STALE = "stale"  # response echoes this schedule, too late to be live


class QualityIssue(enum.Enum):
    """Reasons a clip's attempt is graded inconclusive."""

    LOW_LANDMARK_COVERAGE = "too few received samples had a usable landmark fix"
    FROZEN_SIGNAL = "too many received samples were loss-concealed (frozen)"
    NO_CHALLENGES = "transmitted clip carried no significant luminance changes"
    CHALLENGE_OBSCURED = "a challenge's response window was almost entirely stale"
    SPURIOUS_RECEIVED_CHANGE = "an unmatched received change sits on stale samples"
    CHALLENGE_UNDELIVERED = "transmitted clip never carried the committed schedule"
    NO_RESPONSE_EVIDENCE = "no received changes existed for the binding check"


# A transmitted challenge is unobservable when the received samples
# around its expected response are mostly stale.  The matcher needs the
# majority of the ±match_tolerance window live to see the response (the
# smoothing chain spreads response energy over seconds, so small holes
# heal): empirically, in-guard challenges that go unmatched under channel
# faults sit at window-stale fractions >= ~0.6 while clean-channel clips
# stay below ~0.05, so 0.5 gates every channel-explained miss with margin
# on both sides — toward "inconclusive", the safe direction.
_OBSCURED_STALE_FRACTION = 0.5
# An unmatched received change is suspect when a non-trivial fraction of
# the samples just before it are stale: freeze/unfreeze boundaries step
# the held luminance back to live, which manufactures exactly such a
# change, and the smoothing chain places the resulting signal peak about
# a second *after* the raw jump — so the window looks mostly backward.
# Isolated single-tick concealments (clean-channel jitter) stay below it.
_SPURIOUS_STALE_FRACTION = 0.2
_SPURIOUS_WINDOW_BACK_S = 1.5
_SPURIOUS_WINDOW_FWD_S = 0.5


def _condemned_status(verdicts: list[AttemptVerdict], reject_votes: int) -> CallStatus:
    """Flavor of a crossed vote line: plain attacker, replay, or stale.

    When protocol rejections (``REPLAY`` / ``STALE``) supplied at least
    half of the condemning votes, the status names the protocol finding
    — that is the attribution the binding layer exists to provide.  The
    majority flavor within the protocol rejections wins; replay on a tie
    (the graver accusation).
    """
    replay = sum(1 for v in verdicts if v is AttemptVerdict.REPLAY)
    stale = sum(1 for v in verdicts if v is AttemptVerdict.STALE)
    if replay + stale and (replay + stale) * 2 >= reject_votes:
        return CallStatus.REPLAY if replay >= stale else CallStatus.STALE
    return CallStatus.ATTACKER


def _gated_protocol_status(attempts: list["GatedAttempt"]) -> CallStatus:
    """Status of a call whose vote produced no conclusive verdict.

    Ordinarily INCONCLUSIVE, but when at least half of the attempts
    carry a condemning binding — the response provably echoed a
    committed schedule too late, or a prior session's schedule — the
    protocol layer refines the label even though the clips were
    quality-gated.  This never flips an acceptance (the call was not
    going to be accepted anyway); it only attributes the failure.
    """
    from ..protocol.commitment import BindingOutcome

    outcomes = [a.binding.outcome for a in attempts if a.binding is not None]
    replay = sum(1 for o in outcomes if o is BindingOutcome.REPLAY)
    stale = sum(1 for o in outcomes if o is BindingOutcome.STALE)
    if replay + stale and (replay + stale) * 2 >= len(attempts):
        return CallStatus.REPLAY if replay >= stale else CallStatus.STALE
    return CallStatus.INCONCLUSIVE


def _window_stale_fraction(
    stale: np.ndarray, lo_s: float, hi_s: float, rate: float
) -> float:
    """Fraction of stale samples inside the [lo_s, hi_s] time window."""
    lo = max(0, int(np.floor(lo_s * rate)))
    hi = min(stale.size, int(np.ceil(hi_s * rate)) + 1)
    if hi <= lo:
        return 0.0
    return float(stale[lo:hi].mean())


@dataclasses.dataclass(frozen=True)
class ClipQuality:
    """Evidential quality of one streaming clip."""

    landmark_hit_fraction: float
    frozen_fraction: float
    transmitted_changes: int
    received_changes: int
    issues: tuple[QualityIssue, ...] = ()
    #: Fraction of samples that carried no live measurement at all —
    #: frozen/concealed frames *or* landmark misses (the union, not the
    #: sum of the two fractions above).
    stale_fraction: float = 0.0

    @property
    def conclusive(self) -> bool:
        return not self.issues


#: Attempt verdicts that count as rejections in the vote.
_REJECTING_VERDICTS = frozenset(
    {AttemptVerdict.REJECT, AttemptVerdict.REPLAY, AttemptVerdict.STALE}
)

#: Statuses that condemn the peer and fire ``on_alert``; a session that
#: ends early keeps these and loses every other status.
CONDEMNED_STATUSES = frozenset(
    {CallStatus.ATTACKER, CallStatus.REPLAY, CallStatus.STALE}
)


@dataclasses.dataclass(frozen=True)
class GatedAttempt:
    """One detection attempt plus its quality grade and binding."""

    result: DetectionResult
    quality: ClipQuality
    binding: "BindingReport | None" = None

    @property
    def conclusive(self) -> bool:
        return self.quality.conclusive

    @property
    def verdict(self) -> AttemptVerdict:
        if not self.quality.conclusive:
            return AttemptVerdict.INCONCLUSIVE
        if self.binding is not None:
            from ..protocol.commitment import BindingOutcome

            if self.binding.outcome is BindingOutcome.REPLAY:
                return AttemptVerdict.REPLAY
            if self.binding.outcome is BindingOutcome.STALE:
                return AttemptVerdict.STALE
            if self.binding.enforced:
                return AttemptVerdict.REJECT
        return AttemptVerdict.REJECT if self.result.rejected else AttemptVerdict.ACCEPT


@dataclasses.dataclass(frozen=True)
class StreamingState:
    """Snapshot of a streaming verification session."""

    status: CallStatus
    samples_buffered: int
    attempts: tuple[DetectionResult, ...]
    verdict: Verdict | None
    qualities: tuple[ClipQuality, ...] = ()
    inconclusive_attempts: int = 0

    @property
    def attempt_count(self) -> int:
        return len(self.attempts)

    @property
    def conclusive_attempts(self) -> int:
        return len(self.attempts) - self.inconclusive_attempts

    @property
    def report(self) -> VerificationReport:
        """The snapshot as the same shape the batch verifier returns."""
        return VerificationReport(verdict=self.verdict, attempts=self.attempts)


class StreamingVerifier:
    """Incremental verifier for a live call.

    Parameters
    ----------
    detector:
        A *trained* :class:`LivenessDetector` (the bank can come from any
        users; see Fig. 11).
    landmark_detector:
        Shared landmark detector for the received frames.
    vote_window:
        Number of most recent attempts entering the majority vote
        (``None`` = all attempts since the call began).  Inconclusive
        attempts occupy window slots (they are real clock time) but never
        vote.
    on_alert:
        Callback invoked exactly once when the status first becomes
        :attr:`CallStatus.ATTACKER`; receives the final state.
    instrumentation:
        Optional observability handle.  Per-clip gate outcomes land in
        ``streaming_attempts_total{verdict=}`` and
        ``streaming_quality_issues_total{issue=}`` (so
        ``challenge_obscured`` / ``spurious_received_change`` counts are
        visible per run); alerts in ``streaming_alerts_total``.  The
        per-frame ``push`` path is deliberately not instrumented.
    """

    def __init__(
        self,
        detector: LivenessDetector,
        landmark_detector: LandmarkDetector | None = None,
        vote_window: int | None = None,
        on_alert: Callable[[StreamingState], None] | None = None,
        instrumentation: Instrumentation | None = None,
    ) -> None:
        if not detector.is_trained:
            raise ValueError("the liveness detector must be trained first")
        if vote_window is not None and vote_window < 1:
            raise ValueError("vote_window must be >= 1")
        self.detector = detector
        self.config: DetectorConfig = detector.config
        self.landmark_detector = landmark_detector or LandmarkDetector()
        self.vote_window = vote_window
        self.on_alert = on_alert
        self.instrumentation = Instrumentation.ensure(instrumentation)
        self.combiner = VotingCombiner(self.config.vote_fraction)

        self._t_samples: list[float] = []
        self._r_samples: list[float] = []
        self._stale_flags: list[bool] = []  # frozen frame OR landmark miss
        self._last_roi_value: float | None = None
        self._lead_misses = 0  # samples concealed before the first valid ROI
        self._clip_hits = 0
        self._clip_frozen = 0
        self._attempts: list[GatedAttempt] = []
        self._alerted = False
        self._protocol_gate: ProtocolGate | None = None

    # ------------------------------------------------------------------

    def bind_protocol(self, gate: "ProtocolGate | None") -> None:
        """Attach (or detach) this session's challenge-binding gate.

        Once bound, every completed clip's peak times are graded against
        the gate's nonce-derived schedule and the attempt verdict gains
        the ``REPLAY`` / ``STALE`` vocabulary.  With no gate bound the
        verifier behaves exactly as before — bit for bit.
        """
        self._protocol_gate = gate

    def push(self, transmitted: Frame, received: Frame) -> GatedAttempt | None:
        """Feed one tick's frame pair; returns the fresh gated attempt
        when one completed on this tick, else ``None``.

        Frames are expected at the detector's sampling rate (the
        application samples its capture/playout streams at 10 Hz).
        """
        self._t_samples.append(frame_mean_luminance(transmitted))
        self._push_received(received)
        if len(self._t_samples) < self.config.samples_per_clip:
            return None
        return self._complete_attempt()

    def _push_received(self, received: Frame) -> None:
        # Loss concealment upstream marks held/synthesized frames; a clip
        # dominated by them measures the channel, not the peer.
        frozen = bool(
            received.metadata.get("fresh") is False or received.metadata.get("concealed")
        )
        if frozen:
            self._clip_frozen += 1
        value = roi_luminance(self.landmark_detector, received)
        # A sample is stale when it carries no live measurement — the
        # frame is a frozen repeat, or the tracker had no fix and the
        # signal holds its last value either way.
        self._stale_flags.append(frozen or value is None)
        if value is not None:
            self._clip_hits += 1
            if self._lead_misses:
                # Backfill leading misses with the first valid ROI value.
                # A hard 0.0 placeholder would survive as a phantom
                # luminance step — a fake "significant change" at clip
                # start — exactly what the batch extractor's leading-gap
                # backfill prevents.
                for i in range(1, self._lead_misses + 1):
                    self._r_samples[-i] = value
                self._lead_misses = 0
            self._last_roi_value = value
            self._r_samples.append(value)
            return
        if self._last_roi_value is None:
            # No valid ROI seen yet this call: placeholder, rewritten by
            # the first hit.  An all-miss clip stays flat at zero — no
            # phantom change, and the quality gate marks it inconclusive.
            self._r_samples.append(0.0)
            self._lead_misses += 1
        else:
            # Hold-last concealment, as the batch extractor does within a
            # clip.  The held value carries across clip boundaries, so a
            # clip opening with misses holds the previous clip's last
            # value where the batch extractor backfills its first hit.
            self._r_samples.append(self._last_roi_value)

    def _complete_attempt(self) -> GatedAttempt:
        t_lum = np.array(self._t_samples)
        r_lum = np.array(self._r_samples)
        stale = np.array(self._stale_flags, dtype=bool)
        samples = len(self._t_samples)
        hits = self._clip_hits
        frozen = self._clip_frozen
        self._t_samples.clear()
        self._r_samples.clear()
        self._stale_flags.clear()
        self._lead_misses = 0
        self._clip_hits = 0
        self._clip_frozen = 0
        instr = self.instrumentation
        with instr.span("streaming.attempt", stage="verdict"):
            result = self.detector.verify_clip(t_lum, r_lum, instrumentation=instr)
            binding = None
            if self._protocol_gate is not None:
                extraction = result.extraction
                binding = self._protocol_gate.grade(
                    extraction.transmitted.peak_times if extraction else (),
                    extraction.received.peak_times if extraction else (),
                )
            attempt = GatedAttempt(
                result=result,
                quality=self._grade(
                    result,
                    hits=hits,
                    frozen=frozen,
                    samples=samples,
                    stale=stale,
                    binding=binding,
                ),
                binding=binding,
            )
        instr.count("streaming_attempts_total", verdict=attempt.verdict.value)
        for issue in attempt.quality.issues:
            instr.count("streaming_quality_issues_total", issue=issue.name.lower())
        self._attempts.append(attempt)
        if self.on_alert is not None and not self._alerted:
            state = self.state
            if state.status in CONDEMNED_STATUSES:
                self._alerted = True
                instr.count("streaming_alerts_total")
                self.on_alert(state)
        return attempt

    def _grade(
        self,
        result: DetectionResult,
        hits: int,
        frozen: int,
        samples: int,
        stale: np.ndarray,
        binding: "BindingReport | None" = None,
    ) -> ClipQuality:
        """Score the clip's evidence against the config's gate thresholds."""
        config = self.config
        hit_fraction = hits / samples if samples else 0.0
        frozen_fraction = frozen / samples if samples else 0.0
        stale_fraction = float(stale.mean()) if stale.size else 0.0
        extraction = result.extraction
        t_changes = extraction.transmitted.change_count if extraction else 0
        r_changes = extraction.received.change_count if extraction else 0
        issues: list[QualityIssue] = []
        if hit_fraction < config.gate_min_landmark_fraction:
            issues.append(QualityIssue.LOW_LANDMARK_COVERAGE)
        if frozen_fraction > config.gate_max_frozen_fraction:
            issues.append(QualityIssue.FROZEN_SIGNAL)
        if t_changes < config.gate_min_transmitted_changes:
            issues.append(QualityIssue.NO_CHALLENGES)
        issues.extend(self._stale_peak_issues(extraction, stale, samples))
        if binding is not None:
            from ..protocol.commitment import BindingOutcome

            # A schedule that never reached the transmitted video is the
            # verifier's own fault — the binding cannot judge the peer,
            # so the clip must not vote (same philosophy as the quality
            # gate proper).  A response with no peaks on a *clean*
            # channel, by contrast, is the strongest attack evidence the
            # paper has — only when the clip is already gated for
            # channel damage does the missing evidence become a quality
            # explanation rather than an indictment.
            if binding.outcome is BindingOutcome.UNDELIVERED:
                issues.append(QualityIssue.CHALLENGE_UNDELIVERED)
            elif binding.outcome is BindingOutcome.NO_EVIDENCE and issues:
                issues.append(QualityIssue.NO_RESPONSE_EVIDENCE)
        return ClipQuality(
            landmark_hit_fraction=hit_fraction,
            frozen_fraction=frozen_fraction,
            transmitted_changes=t_changes,
            received_changes=r_changes,
            issues=tuple(issues),
            stale_fraction=stale_fraction,
        )

    def _stale_peak_issues(
        self, extraction, stale: np.ndarray, samples: int
    ) -> list[QualityIssue]:
        """Per-change staleness checks: was each challenge observable, and
        is each unmatched received change explainable by the channel?

        Only the peaks inside the boundary guard are considered — the
        same population the z1/z2 denominators count.
        """
        if extraction is None or not stale.size or not stale.any():
            return []
        config = self.config
        rate = config.sample_rate_hz
        tol = config.match_tolerance_s
        guard = config.boundary_guard_s
        clip_end = (samples - 1) / rate
        issues: list[QualityIssue] = []
        for tp in extraction.transmitted.peak_times:
            if tp > clip_end - guard:
                continue
            frac = _window_stale_fraction(stale, tp - tol, tp + tol, rate)
            if frac >= _OBSCURED_STALE_FRACTION:
                issues.append(QualityIssue.CHALLENGE_OBSCURED)
                break
        matched_r = {match.received_index for match in extraction.matches}
        for i, rp in enumerate(extraction.received.peak_times):
            if i in matched_r or rp < guard:
                continue
            frac = _window_stale_fraction(
                stale, rp - _SPURIOUS_WINDOW_BACK_S, rp + _SPURIOUS_WINDOW_FWD_S, rate
            )
            if frac >= _SPURIOUS_STALE_FRACTION:
                issues.append(QualityIssue.SPURIOUS_RECEIVED_CHANGE)
                break
        return issues

    # ------------------------------------------------------------------

    @property
    def state(self) -> StreamingState:
        """Current rolling judgement (vote over conclusive attempts only)."""
        attempts = self._attempts
        if self.vote_window is not None:
            attempts = attempts[-self.vote_window :]
        if not attempts:
            return StreamingState(
                status=CallStatus.GATHERING,
                samples_buffered=len(self._t_samples),
                attempts=(),
                verdict=None,
            )
        verdicts = [a.verdict for a in attempts]
        # Inconclusive attempts hold their window slot but leave the
        # voting denominator; with none conclusive there is no verdict.
        votes = [a.verdict in _REJECTING_VERDICTS for a in attempts if a.conclusive]
        verdict = self.combiner.combine_bools(votes) if votes else None
        if verdict is None:
            status = _gated_protocol_status(attempts)
        elif verdict.is_attacker:
            status = _condemned_status(verdicts, verdict.reject_votes)
        elif verdict.reject_votes > 0:
            status = CallStatus.SUSPICIOUS
        else:
            status = CallStatus.LIVE
        return StreamingState(
            status=status,
            samples_buffered=len(self._t_samples),
            attempts=tuple(a.result for a in attempts),
            verdict=verdict,
            qualities=tuple(a.quality for a in attempts),
            inconclusive_attempts=sum(1 for a in attempts if not a.conclusive),
        )

    @property
    def gated_attempts(self) -> tuple[GatedAttempt, ...]:
        """Every gated attempt since the call began, with its quality."""
        return tuple(self._attempts)

    def reset(self) -> None:
        """Forget all evidence (a new call with the same enrollment).

        A recycled verifier must be *bit-identical* to a fresh one — the
        service layer pools verifiers across sessions, and any state that
        leaks through a reset would make a session's verdict depend on
        which pooled instance served it.  That covers the obvious sample
        buffers and quality counters, but also the landmark detector's
        jitter RNG, which advances on every detection and would otherwise
        replay a different jitter sequence on the next call.
        """
        self._t_samples.clear()
        self._r_samples.clear()
        self._stale_flags.clear()
        self._last_roi_value = None
        self._lead_misses = 0
        self._clip_hits = 0
        self._clip_frozen = 0
        self._attempts.clear()
        self._alerted = False
        self._protocol_gate = None
        self.landmark_detector.reset()
