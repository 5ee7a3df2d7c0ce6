"""The multi-session verification server.

:class:`VerificationServer` multiplexes many concurrent chat-liveness
sessions over one scheduler:

* **Admission control** — at most ``max_sessions`` sessions verify at
  once; up to ``admission_queue_depth`` more wait in FIFO order; beyond
  that, :meth:`VerificationServer.submit` returns an explicit
  ``REJECTED`` admission instead of queueing unboundedly.
* **Backpressure** — each session owns a bounded
  :class:`~repro.service.queues.FrameQueue` with drop-oldest shedding;
  ingest never blocks and drops are counted, not hidden.
* **Deadlines** — a session that exceeds ``session_deadline_s``, or
  whose feed stalls longer than ``frame_timeout_s``, resolves to
  ``INCONCLUSIVE`` (unless the vote already condemned the peer — an
  attacker verdict survives a later network death).  No code path
  hangs: every wait in the session loop carries a timeout.
* **Tenant models** — verifiers come from the
  :class:`~repro.service.tenants.TenantBankCache`; recycling relies on
  :meth:`~repro.core.streaming.StreamingVerifier.reset` being bit-identical
  to construction.

Determinism: everything here waits through the scheduler and the only
randomness lives in the (seeded) workload, so under a
:class:`~repro.service.scheduler.VirtualScheduler` a session's outcome
and every metric it records are a pure function of its own script —
independent of how many other sessions run beside it.  That is the
property the loadtest's concurrent-vs-serial snapshot comparison checks
byte for byte.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Any, Callable

from ..core.config import DetectorConfig
from ..core.streaming import CONDEMNED_STATUSES, CallStatus
from ..obs.instrument import Instrumentation
from ..protocol.gate import ProtocolGate
from ..protocol.provision import ProtocolProvisioner
from ..protocol.schedule import ProtocolConfig
from ..video.frame import Frame
from .queues import END_OF_STREAM, FrameQueue
from .scheduler import TIMEOUT, Scheduler, TaskHandle
from .tenants import TenantBankCache

__all__ = [
    "Admission",
    "ServerConfig",
    "SessionHandle",
    "SessionOutcome",
    "SERVICE_LATENCY_BUCKETS_S",
    "VerificationServer",
]

#: Verdict-latency buckets (seconds).  A verification session is minutes
#: of call time, not milliseconds — the obs default buckets top out at
#: 10 s and would fold every session into the overflow bucket.
SERVICE_LATENCY_BUCKETS_S = (
    1.0, 2.5, 5.0, 10.0, 15.0, 20.0, 30.0, 45.0,
    60.0, 90.0, 120.0, 180.0, 240.0, 300.0, 450.0, 600.0,
)


@dataclasses.dataclass(frozen=True)
class ServerConfig:
    """Capacity, backpressure and deadline knobs of one server."""

    max_sessions: int = 64  # concurrent verification slots
    admission_queue_depth: int = 16  # waiting sessions beyond the slots
    frame_queue_depth: int = 16  # buffered frames per session
    session_deadline_s: float = 300.0  # hard cap on one session's life
    frame_timeout_s: float = 3.0  # max silence before a stall verdict
    frame_proc_s: float = 0.0013  # modelled per-frame verification cost
    tenant_cache_capacity: int = 32
    tenant_cache_shards: int = 4
    detector: DetectorConfig = dataclasses.field(default_factory=DetectorConfig)
    #: When set, the server provisions per-session nonces and binds a
    #: challenge gate to every session submitted with ``protocol=True``.
    protocol: ProtocolConfig | None = None
    #: Deployment secret the key hierarchy hangs off.  Only consulted
    #: when ``protocol`` is set; repr=False keeps it out of the default
    #: __repr__ (config objects get logged whole — R021).
    protocol_secret: str = dataclasses.field(
        default="repro-deployment-secret", repr=False
    )

    def __post_init__(self) -> None:
        if self.max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        if self.admission_queue_depth < 0:
            raise ValueError("admission_queue_depth must be >= 0")
        if self.session_deadline_s <= 0 or self.frame_timeout_s <= 0:
            raise ValueError("deadlines must be positive")
        if self.protocol is not None and not self.protocol_secret:
            raise ValueError("protocol_secret must be non-empty when protocol is set")


@dataclasses.dataclass(frozen=True)
class SessionOutcome:
    """Terminal record of one session."""

    session_id: str
    tenant_id: str
    status: CallStatus
    reason: str  # completed | deadline | stall
    frames: int
    dropped: int
    attempts: int
    conclusive_attempts: int
    duration_s: float


@dataclasses.dataclass(frozen=True)
class Admission:
    """What :meth:`VerificationServer.submit` hands back."""

    decision: str  # "admitted" | "rejected"
    reason: str | None = None  # rejections: "queue_full"
    handle: "SessionHandle | None" = None

    @property
    def admitted(self) -> bool:
        return self.decision == "admitted"


class SessionHandle:
    """Caller's side of an admitted session: feed frames, await verdict."""

    __slots__ = ("session_id", "tenant_id", "queue", "gate", "_task")

    def __init__(
        self,
        session_id: str,
        tenant_id: str,
        queue: FrameQueue,
        gate: ProtocolGate | None = None,
    ) -> None:
        self.session_id = session_id
        self.tenant_id = tenant_id
        self.queue = queue
        self.gate = gate
        self._task: TaskHandle | None = None

    def push_frame(self, transmitted: Frame, received: Frame) -> None:
        """Non-blocking ingest; overload sheds the oldest buffered pair."""
        self.queue.put((transmitted, received))

    def finish(self) -> None:
        """Signal the clean end of the stream (caller hung up)."""
        self.queue.close()

    async def result(self) -> SessionOutcome:
        assert self._task is not None  # set before submit() returns
        return await self._task.join()


class VerificationServer:
    """Admission-controlled pool of verification sessions."""

    def __init__(
        self,
        scheduler: Scheduler,
        bank_provider: Callable[[str], object],
        config: ServerConfig | None = None,
        instrumentation: Instrumentation | None = None,
    ) -> None:
        self.scheduler = scheduler
        self.config = config or ServerConfig()
        self.instrumentation = Instrumentation.ensure(instrumentation)
        self.tenants = TenantBankCache(
            scheduler,
            bank_provider,
            capacity=self.config.tenant_cache_capacity,
            shards=self.config.tenant_cache_shards,
            detector_config=self.config.detector,
            instrumentation=self.instrumentation,
        )
        # Nonce authority, shared by every session of the server.  Its
        # ledger is only touched inside submit() (synchronous, submit
        # order), which is what keeps protocol verdicts identical between
        # a concurrent run and its serial replay.
        self.provisioner: ProtocolProvisioner | None = None
        if self.config.protocol is not None:
            self.provisioner = ProtocolProvisioner(
                self.config.protocol_secret,
                config=self.config.detector,
                protocol=self.config.protocol,
                instrumentation=self.instrumentation,
            )
        self._active = 0  # sessions holding a verification slot
        self._committed = 0  # admitted and not yet finished (incl. queued)
        self._slot_waiters: deque[Any] = deque()  # admission queue (FIFO)
        self._session_seq = 0
        # Concurrency high-water marks are wall-order facts, not
        # determinism-checked metrics: under concurrent execution they
        # legitimately differ from a serial replay, so they live as plain
        # attributes instead of registry series.
        self.peak_active = 0
        self.peak_queued = 0

    # -- admission -----------------------------------------------------

    @property
    def active_sessions(self) -> int:
        return self._active

    @property
    def queued_sessions(self) -> int:
        return len(self._slot_waiters)

    def submit(
        self,
        tenant_id: str,
        session_id: str | None = None,
        protocol: bool = False,
    ) -> Admission:
        """Admit (or reject) one session; never blocks the caller.

        Admitted sessions start verifying immediately when a slot is
        free, otherwise they wait in the FIFO admission queue.  When the
        queue is full the submission is rejected outright — the caller
        learns *now*, instead of a timeout learning it for them later.

        ``protocol=True`` (requires :attr:`ServerConfig.protocol`)
        provisions a session nonce and binds the challenge gate to the
        session's verifier: the prover is then expected to answer the
        nonce-derived schedule, and verdicts gain the ``REPLAY`` /
        ``STALE`` vocabulary.  Provisioning happens here, synchronously,
        so the commitment ledger advances in submit order.
        """
        instr = self.instrumentation
        # Admission is accounted at submit time (not when the session
        # task first runs): a synchronous burst of submits must fill the
        # queue immediately, or a fast caller could over-admit.
        capacity = self.config.max_sessions + self.config.admission_queue_depth
        if self._committed >= capacity:
            instr.count("service_admissions_total", decision="rejected", reason="queue_full")
            return Admission(decision="rejected", reason="queue_full")
        self._committed += 1
        if session_id is None:
            self._session_seq += 1
            session_id = f"s{self._session_seq:05d}"
        gate = None
        if protocol:
            if self.provisioner is None:
                self._committed -= 1
                instr.count(
                    "service_admissions_total",
                    decision="rejected",
                    reason="protocol_disabled",
                )
                return Admission(decision="rejected", reason="protocol_disabled")
            gate = self.provisioner.provision(tenant_id, session_id)
        queue = FrameQueue(self.scheduler, self.config.frame_queue_depth)
        handle = SessionHandle(session_id, tenant_id, queue, gate=gate)
        instr.count("service_admissions_total", decision="admitted", reason="ok")
        handle._task = self.scheduler.spawn(
            self._run_session(handle), name=f"session:{session_id}"
        )
        return Admission(decision="admitted", handle=handle)

    async def _acquire_slot(self) -> None:
        if self._active < self.config.max_sessions:
            self._active += 1
            self.peak_active = max(self.peak_active, self._active)
            return
        waiter = self.scheduler.make_waiter()
        self._slot_waiters.append(waiter)
        self.peak_queued = max(self.peak_queued, len(self._slot_waiters))
        # Woken directly into the slot by _release_slot (active count
        # is transferred, not re-checked).
        await self.scheduler.park(waiter)
        self.peak_active = max(self.peak_active, self._active)

    def _release_slot(self) -> None:
        while self._slot_waiters:
            waiter = self._slot_waiters.popleft()
            if self.scheduler.resolve(waiter, True):
                return  # slot handed over; _active unchanged
        self._active -= 1

    # -- the session loop ----------------------------------------------

    async def _run_session(self, handle: SessionHandle) -> SessionOutcome:
        sched = self.scheduler
        cfg = self.config
        instr = self.instrumentation
        await self._acquire_slot()
        verifier = None
        try:
            verifier = await self.tenants.acquire(handle.tenant_id)
        except BaseException:
            self._release_slot()
            self._committed -= 1
            instr.count("service_task_failures_total", stage="tenant_fit")
            raise
        if handle.gate is not None:
            verifier.bind_protocol(handle.gate)
        start = sched.now()
        deadline = start + cfg.session_deadline_s
        frames = 0
        reason = "completed"
        try:
            while True:
                remaining = deadline - sched.now()
                if remaining <= 0:
                    reason = "deadline"
                    break
                item = await handle.queue.get(
                    timeout=min(cfg.frame_timeout_s, remaining)
                )
                if item is END_OF_STREAM:
                    break
                if item is TIMEOUT:
                    reason = "deadline" if sched.now() >= deadline else "stall"
                    break
                transmitted, received = item
                if cfg.frame_proc_s > 0:
                    await sched.sleep(cfg.frame_proc_s)
                verifier.push(transmitted, received)
                frames += 1
            state = verifier.state
            status = state.status
            if reason != "completed" and status not in CONDEMNED_STATUSES:
                # The channel (not the peer) ended the session: whatever
                # partial evidence exists is not a verdict.  Only an
                # already-raised condemnation (attacker / replay / stale)
                # survives.
                status = CallStatus.INCONCLUSIVE
            elif status is CallStatus.GATHERING:
                # Clean hang-up before the first attempt completed: a
                # terminal outcome needs a verdict-shaped status, and
                # "no attempt ever finished" is inconclusive by meaning.
                status = CallStatus.INCONCLUSIVE
            duration = sched.now() - start
            outcome = SessionOutcome(
                session_id=handle.session_id,
                tenant_id=handle.tenant_id,
                status=status,
                reason=reason,
                frames=frames,
                dropped=handle.queue.dropped,
                attempts=state.attempt_count,
                conclusive_attempts=state.conclusive_attempts,
                duration_s=duration,
            )
            instr.count("service_sessions_total", status=status.value)
            instr.count(
                "service_tenant_sessions_total",
                tenant=handle.tenant_id,
                status=status.value,
            )
            instr.count("service_session_end_total", reason=reason)
            instr.count("service_frames_processed_total", frames)
            instr.count("service_frames_dropped_total", handle.queue.dropped)
            instr.observe(
                "service_verdict_latency_s",
                duration,
                buckets=SERVICE_LATENCY_BUCKETS_S,
            )
            return outcome
        finally:
            self.tenants.release(handle.tenant_id, verifier)
            self._release_slot()
            self._committed -= 1
