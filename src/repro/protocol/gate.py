"""The per-session binding gate the streaming verifier consults.

A :class:`ProtocolGate` owns one session's cryptographic state: the
session nonce, the schedule commitments derived from it, and a frozen
snapshot of the tenant's recent *prior* commitments (what a recording
attacker could have observed).  :class:`~repro.core.streaming
.StreamingVerifier` calls :meth:`ProtocolGate.grade` once per completed
clip with the peak times the feature extractor already produced; the
returned :class:`BindingReport` folds into the attempt verdict
(``REPLAY`` / ``STALE`` / ordinary).

The priors are snapshotted when the gate is provisioned — not read from
a live ledger at grade time — so a session's verdict is a pure function
of its own submit-order position, never of which other sessions happen
to be in flight.  That is what keeps the service's concurrent run
byte-identical to its serial replay.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

from ..core.config import DetectorConfig
from ..obs.instrument import Instrumentation
from .commitment import (
    BindingOutcome,
    ChallengeCommitment,
    ScheduleMatch,
    classify_binding,
)
from .nonce import verify_ack
from .schedule import DerivedSchedule, ProtocolConfig, derive_schedule

__all__ = ["BindingReport", "ProtocolGate"]


@dataclasses.dataclass(frozen=True)
class BindingReport:
    """Outcome of the binding check for one clip."""

    attempt_index: int
    outcome: BindingOutcome
    match: ScheduleMatch
    schedule: DerivedSchedule
    #: True when an ``UNBOUND`` outcome must count as a rejection because
    #: the protocol runs with ``enforce_binding`` on.
    enforced: bool = False

    @property
    def lag_s(self) -> float:
        """Response lag net of the smoothing chain's group delay."""
        return self.match.lag_s

    @property
    def rejects(self) -> bool:
        """Whether this binding alone condemns the attempt."""
        if self.outcome in (BindingOutcome.REPLAY, BindingOutcome.STALE):
            return True
        return self.enforced


class ProtocolGate:
    """One session's challenge-binding state.

    Parameters
    ----------
    tenant_id, session_id:
        Identity of the session (labels on the commitments).
    tenant_key, nonce:
        The keyed-derivation inputs (see :mod:`repro.protocol.nonce`).
    config:
        Detector constants (clip geometry, match tolerance,
        ``min_challenges`` / ``min_gap_s``).
    protocol:
        Binding-protocol tunables.
    priors:
        Commitments of the tenant's recent prior sessions, frozen at
        provision time.
    instrumentation:
        Optional observability handle; binding outcomes land in
        ``protocol_bindings_total{outcome=}`` and handshake checks in
        ``protocol_acks_total{result=}``.
    """

    def __init__(
        self,
        tenant_id: str,
        session_id: str,
        tenant_key: bytes,
        nonce: bytes,
        config: DetectorConfig | None = None,
        protocol: ProtocolConfig | None = None,
        priors: Sequence[ChallengeCommitment] = (),
        instrumentation: Instrumentation | None = None,
    ) -> None:
        self.tenant_id = tenant_id
        self.session_id = session_id
        self.tenant_key = tenant_key
        self.nonce = nonce
        self.config = config or DetectorConfig()
        self.protocol = protocol or ProtocolConfig()
        self.priors = tuple(priors)
        self.instrumentation = Instrumentation.ensure(instrumentation)
        self._schedules: dict[int, DerivedSchedule] = {}
        self._attempt = 0

    def schedule_for(self, attempt_index: int) -> DerivedSchedule:
        """The (cached) derived schedule of one attempt."""
        schedule = self._schedules.get(attempt_index)
        if schedule is None:
            schedule = derive_schedule(
                self.tenant_key, self.nonce, attempt_index, self.config, self.protocol
            )
            self._schedules[attempt_index] = schedule
        return schedule

    def schedules(self, attempts: int) -> tuple[DerivedSchedule, ...]:
        """Schedules for the first ``attempts`` clips (prover-side use)."""
        return tuple(self.schedule_for(i) for i in range(attempts))

    def grade(
        self,
        transmitted_peak_times: Sequence[float],
        received_peak_times: Sequence[float],
    ) -> BindingReport:
        """Bind one completed clip; advances the attempt counter."""
        attempt = self._attempt
        self._attempt += 1
        schedule = self.schedule_for(attempt)
        outcome, match = classify_binding(
            current=schedule,
            priors=(c.schedule for c in self.priors),
            transmitted_peak_times=[float(t) for t in transmitted_peak_times],
            received_peak_times=[float(t) for t in received_peak_times],
            tolerance_s=self.config.match_tolerance_s,
            protocol=self.protocol,
        )
        self.instrumentation.count(
            "protocol_bindings_total", outcome=outcome.value
        )
        return BindingReport(
            attempt_index=attempt,
            outcome=outcome,
            match=match,
            schedule=schedule,
            enforced=(
                outcome is BindingOutcome.UNBOUND and self.protocol.enforce_binding
            ),
        )

    def note_ack(self, tag: bytes | str) -> bool:
        """Check a prover's handshake acknowledgement tag."""
        raw = bytes.fromhex(tag) if isinstance(tag, str) else tag
        ok = verify_ack(self.tenant_key, self.nonce, raw)
        self.instrumentation.count(
            "protocol_acks_total", result="ok" if ok else "bad"
        )
        return ok
