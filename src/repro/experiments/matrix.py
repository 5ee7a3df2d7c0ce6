"""Streaming-verifier matrices: channel faults and challenge binding.

Both sweeps run one protocol.  Enroll a LOF bank on clean genuine
sessions, then, for every grid cell, replay seeded chat sessions frame
by frame through a gated :class:`~repro.core.streaming.StreamingVerifier`
and aggregate the final call statuses and the attempt-level gate
traffic.  A cell is a module-level generator of seeded ``(record,
gate)`` pairs plus its arguments; :func:`_cell_task` is the one loop
that plays any cell, so a new channel lands as one more generator.

**Fault matrix** (:func:`run_fault_matrix`).  The paper evaluates the
defense on clean recordings; a deployed verifier rides a real
conferencing path that loses packets in bursts, jitters, freezes frames,
and loses the face tracker for whole windows.  The sweep walks a
:class:`~repro.faults.FaultSpec` over a severity grid and measures, per
(severity, role) cell, how the quality gate behaves: a *graceful*
system turns channel damage into ``INCONCLUSIVE`` attempts instead of
condemning live users, while still flagging reenactment attacks
whenever the surviving clips carry enough evidence.

**Protocol matrix** (:func:`run_protocol_matrix`).  A recording of the
victim *genuinely answering an earlier call* carries a flawless
luminance response — the LOF alone grades it live.  This sweep runs each
prover role through the full chat stack twice, with the
challenge-binding protocol off and on, so the two columns show exactly
which verdicts the cryptographic layer changes:

========  ==================  ============================
role      protocol off        protocol on
========  ==================  ============================
genuine   LIVE                LIVE (binding grades BOUND)
replay    LIVE  *(the gap)*   REPLAY
stale     ATTACKER            STALE (attributed)
attack    ATTACKER            ATTACKER
========  ==================  ============================

Every cell is a self-contained task seeded through
:func:`~repro.engine.task_rng` and mapped by ``engine.map_batches``
(a serial engine when none is given), so ``engine(jobs=N)`` is
bit-identical to serial execution.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from collections.abc import Iterator, Sequence

import numpy as np

from ..attack.reenactment import ReenactmentAttacker
from ..attack.replayschedule import ReplayScheduleAttacker, StaleRelayAttacker
from ..attack.target import TargetRecording
from ..chat.endpoints import DerivedMeteringBehavior, ProverEndpoint
from ..chat.session import WARMUP_S, SessionRecord
from ..core.config import DetectorConfig
from ..core.detector import LivenessDetector
from ..core.luminance import clip_signals
from ..core.seeding import spawn_seeds
from ..core.streaming import (
    CONDEMNED_STATUSES,
    CallStatus,
    GatedAttempt,
    StreamingVerifier,
)
from ..engine import ExecutionEngine, task_rng
from ..faults import FaultSpec, apply_faults_to_record, build_faulty_links
from ..obs.instrument import Instrumentation
from ..protocol import ProtocolConfig, ProtocolProvisioner
from ..protocol.gate import ProtocolGate
from ..protocol.nonce import ack_tag, handshake_payload
from ..vision.landmarks import LandmarkDetector
from .dataset import ATTACK, GENUINE
from .profiles import DEFAULT_ENVIRONMENT, Environment, UserProfile
from .simulate import (
    SessionSpec,
    build_genuine_prover,
    build_session,
    default_user,
    simulate_session_batch,
)

__all__ = [
    "DEFAULT_FAULT_SPEC",
    "FaultCell",
    "FaultMatrixResult",
    "PROTOCOL_ROLES",
    "ProtocolCell",
    "ProtocolMatrixResult",
    "enrollment_bank",
    "run_fault_matrix",
    "run_protocol_matrix",
    "simulate_faulted_session",
    "simulate_protocol_session",
]

#: Severity-1.0 profile for the standard robustness sweep: a congested
#: wireless path with an unreliable face tracker.  ``scaled(s)`` walks
#: every rate down linearly, so severity 0 is the clean channel.
DEFAULT_FAULT_SPEC = FaultSpec(
    loss_burst_rate=0.30,
    mean_burst_s=1.0,
    jitter_spike_rate=0.25,
    jitter_spike_s=0.15,
    landmark_dropout_rate=0.60,
    mean_dropout_s=1.5,
    freeze_rate=0.25,
    mean_freeze_s=0.8,
    clock_skew=0.01,
)

PROTOCOL_ROLES = ("genuine", "replay", "stale", "attack")

#: Deployment secret of the simulated verifier service.  Any fixed
#: string works — both call ends and the grader derive from it.
_EXPERIMENT_SECRET = "repro-protocol-matrix"

_CONDEMNED_VALUES = frozenset(status.value for status in CONDEMNED_STATUSES)


# ----------------------------------------------------------------------
# Provers and sessions
# ----------------------------------------------------------------------


def _build_prover(
    role: str,
    user: UserProfile,
    env: Environment,
    seed: int,
    gate: ProtocolGate | None = None,
    prior: ProtocolGate | None = None,
    clips: int = 0,
) -> ProverEndpoint:
    """The untrusted endpoint for one cell role.

    ``gate`` is the live session's protocol gate (None on the passive
    fault path): a genuine prover answers its handshake, and the
    protocol-only roles need it — ``replay`` answers the *prior*
    session's schedules, ``stale`` relays too slowly for the live one.
    """
    if role == GENUINE:
        prover = build_genuine_prover(user, env, seed)
        if gate is not None:
            key = gate.tenant_key
            prover.on_handshake = lambda payload: ack_tag(
                key, bytes.fromhex(payload["nonce"])
            ).hex()
        return prover
    roles = PROTOCOL_ROLES if gate is not None else (GENUINE, ATTACK)
    if role not in roles:
        raise ValueError(f"unknown role {role!r} (expected one of {roles})")
    s_target, s_attacker = spawn_seeds(seed, 2)
    target = TargetRecording(victim=user.face, seed=s_target)
    if role == "replay":
        observed = prior if prior is not None else gate
        return ReplayScheduleAttacker(
            target=target,
            observed_schedules=observed.schedules(clips),
            start_offset_s=WARMUP_S,
            frame_size=env.frame_size,
            seed=s_attacker,
        )
    if role == "stale":
        return StaleRelayAttacker(
            target=target,
            frame_size=env.frame_size,
            seed=s_attacker,
            mimic_screen=env.screen,
            mimic_distance_m=env.viewing_distance_m,
            ambient_lux=env.prover_ambient_lux,
        )
    return ReenactmentAttacker(
        target=target,
        artifact_level=0.012,
        frame_size=env.frame_size,
        seed=s_attacker,
    )


def simulate_faulted_session(
    role: str,
    spec: FaultSpec,
    duration_s: float = 30.0,
    seed: int = 0,
    env: Environment | None = None,
    user: UserProfile | None = None,
    instrumentation: Instrumentation | None = None,
) -> SessionRecord:
    """One chat session with a seeded fault schedule riding the path.

    Mirrors :func:`~repro.experiments.simulate.run_session` but wraps
    both channel directions with the compiled schedule and replays the
    receiver-side vision faults (freezes, landmark dropout) over the
    finished recording.  Severity 0 specs produce all-clear schedules,
    so the clean session stays the special case of this function.
    """
    env = env or DEFAULT_ENVIRONMENT
    user = user or default_user()
    s_prover, s_verifier, s_links, s_faults = spawn_seeds(seed, 4)
    prover = _build_prover(role, user, env, s_prover)
    session = build_session(prover, env, s_verifier, s_links, instrumentation)
    # Frame timestamps are absolute (warm-up included) and arrivals run a
    # little behind the send clock, so the schedule covers the whole run
    # plus a de-jitter margin; `tick_of` clamps anything later.
    schedule = spec.schedule(session.warmup_s + duration_s + 5.0, env.fps, seed=s_faults)
    session.uplink, session.downlink = build_faulty_links(
        session.uplink, session.downlink, schedule, instrumentation
    )
    record = session.run(duration_s)
    return apply_faults_to_record(record, schedule, instrumentation)


def simulate_protocol_session(
    role: str,
    gate: ProtocolGate,
    clips: int = 2,
    seed: int = 0,
    prior: ProtocolGate | None = None,
    env: Environment | None = None,
    user: UserProfile | None = None,
    instrumentation: Instrumentation | None = None,
) -> SessionRecord:
    """One chat session whose verifier drives the *derived* schedule.

    The verifier's metering replays ``gate``'s nonce-derived challenge
    times (:class:`~repro.chat.endpoints.DerivedMeteringBehavior`) and
    its frames carry the handshake payload; the prover is built per
    ``role``.  The recording is what a
    :class:`~repro.core.streaming.StreamingVerifier` with the same gate
    bound would observe.
    """
    env = env or DEFAULT_ENVIRONMENT
    user = user or default_user()
    s_prover, s_verifier, s_links = spawn_seeds(seed, 3)
    prover = _build_prover(role, user, env, s_prover, gate, prior, clips)
    session = build_session(prover, env, s_verifier, s_links, instrumentation)
    verifier = session.verifier
    background = verifier.renderer.background
    verifier.metering = DerivedMeteringBehavior(
        bright_spot=background.bright_spot,
        dark_spot=background.dark_spot,
        schedules=gate.schedules(clips),
        start_offset_s=session.warmup_s,
    )
    verifier.handshake = handshake_payload(gate.session_id, gate.nonce)
    return session.run(clips * gate.config.clip_duration_s)


# ----------------------------------------------------------------------
# The shared cell loop
# ----------------------------------------------------------------------


def enrollment_bank(
    config: DetectorConfig,
    env: Environment,
    user: UserProfile,
    sessions: int,
    seed: int,
    engine: ExecutionEngine | None = None,
) -> np.ndarray:
    """Legitimate feature bank from clean genuine sessions (one clip each).

    One landmark detector serves every record in order, so its jitter
    stream is the one a single verifier would draw.
    """
    engine = engine or ExecutionEngine()
    specs = [
        SessionSpec(
            kind="genuine",
            seed=int(task_rng(seed, 900, i).integers(0, 2**31 - 1)),
            duration_s=config.clip_duration_s,
        )
        for i in range(sessions)
    ]
    records = simulate_session_batch(specs, env=env, user=user, engine=engine)
    landmarks = LandmarkDetector()
    pairs = [
        clip_signals(record.transmitted, record.received, config.sample_rate_hz, landmarks)
        for record in records
    ]
    features = engine.extract_features_batch(pairs, config, stage="enroll")
    return np.stack([fv.as_array() for fv in features])


def _fault_sessions(
    role: str, spec: FaultSpec, sessions: int, duration_s: float,
    seed: int, env: Environment, user: UserProfile, key: tuple[int, int],
) -> Iterator[tuple[SessionRecord, None]]:
    """Sessions of one (severity, role) cell; ``spec`` is already scaled."""
    for k in range(sessions):
        session_seed = int(task_rng(seed, *key, k).integers(0, 2**31 - 1))
        yield simulate_faulted_session(role, spec, duration_s, session_seed, env, user), None


def _protocol_sessions(
    role: str, use_protocol: bool, sessions: int, clips: int, seed: int,
    env: Environment, user: UserProfile, r_idx: int,
    config: DetectorConfig, protocol: ProtocolConfig,
) -> Iterator[tuple[SessionRecord, ProtocolGate | None]]:
    """Sessions of one (role, protocol on/off) cell.

    Each session provisions a *prior* gate first (the tenant's previous
    call — what a recording attacker observed and what the verifier's
    ledger remembers) and then the live gate, mirroring the service's
    submit-order ledger discipline.
    """
    provisioner = ProtocolProvisioner(_EXPERIMENT_SECRET, config=config, protocol=protocol)
    tenant = f"cell-{r_idx}"
    for k in range(sessions):
        # The on/off column is deliberately absent from the seed chain:
        # both columns replay the *same* sessions, so any verdict
        # difference between them is the binding layer's doing.
        session_seed = int(task_rng(seed, r_idx, 7, k).integers(0, 2**31 - 1))
        prior = provisioner.provision(tenant, f"prior-{k:03d}")
        gate = provisioner.provision(tenant, f"live-{k:03d}")
        record = simulate_protocol_session(
            role, gate, clips, session_seed, prior, env, user
        )
        yield record, gate if use_protocol else None


def _cell_task(payload: tuple) -> tuple[tuple[str, ...], list[GatedAttempt], int]:
    """One grid cell: play its sessions through the gated streaming loop.

    ``payload`` is ``(bank, config, sessions, args)``: ``sessions(*args)``
    yields each seeded ``(record, gate)`` of the cell, with ``gate`` None
    unless the protocol is bound.  Module-level and self-seeded
    (picklable; bit-identical on any worker count).  Refits the LOF
    detector from the shipped bank — cheaper to ship the small feature
    matrix than a fitted model.  Returns the final status of every
    session, every gated attempt, and how many provers answered the
    handshake of a bound gate.
    """
    bank, config, sessions, args = payload
    detector = LivenessDetector(config).fit(bank)
    statuses: list[str] = []
    attempts: list[GatedAttempt] = []
    acks_ok = 0
    for record, gate in sessions(*args):
        streaming = StreamingVerifier(detector)
        if gate is not None:
            streaming.bind_protocol(gate)
        acked = False
        for t_frame, r_frame in zip(record.transmitted, record.received):
            ack = r_frame.metadata.get("ack")
            if gate is not None and not acked and ack is not None:
                acked = gate.note_ack(ack)
            streaming.push(t_frame, r_frame)
        statuses.append(streaming.state.status.value)
        attempts.extend(streaming.gated_attempts)
        acks_ok += int(acked)
    return tuple(statuses), attempts, acks_ok


# ----------------------------------------------------------------------
# Fault matrix
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class FaultCell:
    """Aggregate behaviour of one (severity, role) grid cell."""

    severity: float
    role: str
    sessions: int
    statuses: tuple[str, ...]  # final CallStatus.value per session
    attacker_fraction: float  # sessions ending in ATTACKER
    inconclusive_fraction: float  # sessions ending in INCONCLUSIVE
    attempts_total: int
    attempts_inconclusive: int
    attempts_rejected: int  # conclusive attempts voting "attacker"
    mean_landmark_hit_fraction: float
    mean_frozen_fraction: float

    @property
    def gated_fraction(self) -> float:
        """Fraction of attempts the quality gate withheld from the vote."""
        return self.attempts_inconclusive / self.attempts_total if self.attempts_total else 0.0


@dataclasses.dataclass(frozen=True)
class FaultMatrixResult:
    """The full severity × role robustness matrix."""

    spec: FaultSpec
    severities: tuple[float, ...]
    roles: tuple[str, ...]
    cells: tuple[FaultCell, ...]

    def cell(self, severity: float, role: str) -> FaultCell:
        for cell in self.cells:
            if cell.severity == severity and cell.role == role:
                return cell
        raise KeyError(f"no cell for severity={severity}, role={role!r}")

    def lines(self) -> list[str]:
        """The matrix as printable rows (one per cell)."""
        out = [
            f"{'severity':>8s} {'role':>8s} {'attacker':>9s} {'inconcl.':>9s} "
            f"{'gated':>7s} {'lm-hit':>7s} {'frozen':>7s}  statuses"
        ]
        for c in self.cells:
            out.append(
                f"{c.severity:8.2f} {c.role:>8s} {c.attacker_fraction:9.2f} "
                f"{c.inconclusive_fraction:9.2f} {c.gated_fraction:7.2f} "
                f"{c.mean_landmark_hit_fraction:7.2f} {c.mean_frozen_fraction:7.2f}  "
                + ",".join(c.statuses)
            )
        return out

    def __str__(self) -> str:
        return "\n".join(self.lines())


def _mean_or_zero(values: list[float]) -> float:
    return float(np.mean(values)) if values else 0.0


def run_fault_matrix(
    severities: Sequence[float] = (0.0, 0.25, 0.5, 1.0),
    roles: Sequence[str] = (GENUINE, ATTACK),
    spec: FaultSpec | None = None,
    sessions_per_cell: int = 2,
    duration_s: float = 30.0,
    enroll_sessions: int = 8,
    config: DetectorConfig | None = None,
    env: Environment | None = None,
    user: UserProfile | None = None,
    seed: int = 97,
    engine: ExecutionEngine | None = None,
) -> FaultMatrixResult:
    """Sweep the fault grid through the gated streaming verifier.

    Enrollment always happens on the clean channel (Alice trained her
    model under normal conditions); every (severity, role) cell then
    replays ``sessions_per_cell`` faulted calls against that model and
    aggregates the final call statuses plus attempt-level gate traffic.
    """
    config = config or DetectorConfig()
    env = env or DEFAULT_ENVIRONMENT
    user = user or default_user()
    spec = spec or DEFAULT_FAULT_SPEC
    severities = tuple(float(s) for s in severities)
    roles = tuple(roles)
    if sessions_per_cell < 1:
        raise ValueError("sessions_per_cell must be >= 1")

    engine = engine or ExecutionEngine()
    bank = enrollment_bank(config, env, user, enroll_sessions, seed, engine)
    grid = [
        (severity, role, (s_idx, r_idx))
        for s_idx, severity in enumerate(severities)
        for r_idx, role in enumerate(roles)
    ]
    payloads = [
        (
            bank, config, _fault_sessions,
            (role, spec.scaled(severity), sessions_per_cell, duration_s, seed, env, user, key),
        )
        for severity, role, key in grid
    ]
    rows = engine.map_batches(_cell_task, payloads, stage="faultcells")

    cells = []
    for (severity, role, _), (statuses, attempts, _) in zip(grid, rows):
        conclusive = [a for a in attempts if a.conclusive]
        qualities = [a.quality for a in attempts]
        cells.append(
            FaultCell(
                severity, role, sessions_per_cell, statuses,
                attacker_fraction=statuses.count(CallStatus.ATTACKER.value)
                / sessions_per_cell,
                inconclusive_fraction=statuses.count(CallStatus.INCONCLUSIVE.value)
                / sessions_per_cell,
                attempts_total=len(attempts),
                attempts_inconclusive=len(attempts) - len(conclusive),
                attempts_rejected=sum(1 for a in conclusive if a.result.rejected),
                mean_landmark_hit_fraction=_mean_or_zero(
                    [q.landmark_hit_fraction for q in qualities]
                ),
                mean_frozen_fraction=_mean_or_zero([q.frozen_fraction for q in qualities]),
            )
        )
    # The registry behind engine.instrumentation is the one PerfReport
    # renders from, so these show up in `repro faults --perf`.
    instr = engine.instrumentation
    instr.count("clips_total", sum(c.attempts_total for c in cells))
    instr.count("clips_inconclusive", sum(c.attempts_inconclusive for c in cells))
    instr.count("clips_rejected", sum(c.attempts_rejected for c in cells))
    instr.count("fault_sessions", sum(c.sessions for c in cells))
    return FaultMatrixResult(
        spec=spec,
        severities=severities,
        roles=roles,
        cells=tuple(cells),
    )


# ----------------------------------------------------------------------
# Protocol matrix
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ProtocolCell:
    """Aggregate behaviour of one (role, protocol on/off) grid cell."""

    role: str
    protocol: bool
    sessions: int
    statuses: tuple[str, ...]  # final CallStatus.value per session
    bindings: dict[str, int]  # BindingOutcome.value -> clips (on-cells)
    acks_ok: int  # sessions whose prover answered the handshake

    @property
    def condemned_fraction(self) -> float:
        condemned = sum(s in _CONDEMNED_VALUES for s in self.statuses)
        return condemned / self.sessions if self.sessions else 0.0


@dataclasses.dataclass(frozen=True)
class ProtocolMatrixResult:
    """The full role × protocol matrix."""

    roles: tuple[str, ...]
    cells: tuple[ProtocolCell, ...]

    def cell(self, role: str, protocol: bool) -> ProtocolCell:
        for cell in self.cells:
            if cell.role == role and cell.protocol == protocol:
                return cell
        raise KeyError(f"no cell for role={role!r}, protocol={protocol}")

    def lines(self) -> list[str]:
        out = [
            f"{'role':>8s} {'protocol':>9s} {'condemned':>10s} "
            f"{'acks':>5s}  statuses / bindings"
        ]
        for c in self.cells:
            bindings = " ".join(
                f"{name}={count}" for name, count in sorted(c.bindings.items())
            )
            tail = ",".join(c.statuses) + (f"  [{bindings}]" if bindings else "")
            out.append(
                f"{c.role:>8s} {'on' if c.protocol else 'off':>9s} "
                f"{c.condemned_fraction:10.2f} {c.acks_ok:5d}  {tail}"
            )
        return out

    def __str__(self) -> str:
        return "\n".join(self.lines())


def run_protocol_matrix(
    roles: Sequence[str] = PROTOCOL_ROLES,
    sessions_per_cell: int = 2,
    clips: int = 2,
    enroll_sessions: int = 8,
    config: DetectorConfig | None = None,
    protocol: ProtocolConfig | None = None,
    env: Environment | None = None,
    user: UserProfile | None = None,
    seed: int = 211,
    engine: ExecutionEngine | None = None,
) -> ProtocolMatrixResult:
    """Sweep role × protocol-on/off through the gated streaming verifier.

    Enrollment happens on the clean passive channel (the same bank the
    fault matrix trains from); each cell then replays
    ``sessions_per_cell`` protocol-driven calls against that model.
    """
    config = config or DetectorConfig()
    protocol = protocol or ProtocolConfig()
    env = env or DEFAULT_ENVIRONMENT
    user = user or default_user()
    roles = tuple(roles)
    if sessions_per_cell < 1:
        raise ValueError("sessions_per_cell must be >= 1")
    if not 1 <= clips <= protocol.commit_attempts:
        raise ValueError(
            f"clips must lie in [1, commit_attempts={protocol.commit_attempts}]"
        )
    unknown = [r for r in roles if r not in PROTOCOL_ROLES]
    if unknown:
        raise ValueError(f"unknown roles {unknown!r} (expected {PROTOCOL_ROLES})")

    engine = engine or ExecutionEngine()
    bank = enrollment_bank(config, env, user, enroll_sessions, seed, engine)
    grid = [
        (role, use_protocol, r_idx)
        for r_idx, role in enumerate(roles)
        for use_protocol in (False, True)
    ]
    payloads = [
        (
            bank, config, _protocol_sessions,
            (role, use_protocol, sessions_per_cell, clips, seed, env, user, r_idx,
             config, protocol),
        )
        for role, use_protocol, r_idx in grid
    ]
    rows = engine.map_batches(_cell_task, payloads, stage="protocolcells")
    cells = [
        ProtocolCell(
            role, use_protocol, sessions_per_cell, statuses,
            bindings=dict(
                Counter(a.binding.outcome.value for a in attempts if a.binding is not None)
            ),
            acks_ok=acks_ok,
        )
        for (role, use_protocol, _), (statuses, attempts, acks_ok) in zip(grid, rows)
    ]
    instr = engine.instrumentation
    instr.count("protocol_matrix_sessions", sum(c.sessions for c in cells))
    instr.count(
        "protocol_matrix_condemned",
        sum(s in _CONDEMNED_VALUES for c in cells for s in c.statuses),
    )
    return ProtocolMatrixResult(roles=roles, cells=tuple(cells))
