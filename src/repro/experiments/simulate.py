"""Session builders: one call = one simulated chat recording.

These are the highest-level convenience functions of the library — they
assemble a verifier, a prover (genuine or attacker), the network path and
the session loop from a :class:`~repro.experiments.profiles.UserProfile`
and an :class:`~repro.experiments.profiles.Environment`, run the clock,
and hand back the :class:`~repro.chat.session.SessionRecord` the detector
consumes.  All randomness is derived from the single ``seed`` argument,
so every session is exactly reproducible.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

import numpy as np

from ..attack.adaptive import AdaptiveLuminanceForger
from ..attack.reenactment import ReenactmentAttacker
from ..attack.replay import ReplayAttacker
from ..attack.target import TargetRecording
from ..chat.endpoints import GenuineProverEndpoint, ProverEndpoint, VerifierEndpoint
from ..chat.session import SessionRecord, VideoChatSession
from ..core.seeding import spawn_seeds
from ..engine import ExecutionEngine
from ..net.channel import NetworkChannel
from ..net.jitterbuffer import JitterBuffer
from ..net.link import MediaLink
from ..obs.instrument import Instrumentation
from ..screen.illumination import AmbientLight
from ..vision.expression import ExpressionTrack
from ..vision.face_model import make_face
from .profiles import DEFAULT_ENVIRONMENT, Environment, UserProfile

__all__ = [
    "build_verifier",
    "build_genuine_prover",
    "build_links",
    "build_session",
    "run_session",
    "simulate_genuine_session",
    "simulate_attack_session",
    "simulate_adaptive_attack_session",
    "simulate_replay_attack_session",
    "simulate_session_batch",
    "SessionSpec",
    "default_user",
]


def default_user(seed: int = 7) -> UserProfile:
    """A single stand-alone volunteer (for quickstarts and tests)."""
    return UserProfile(
        name="default_user",
        face=make_face("default_user", tone="light", rng=np.random.default_rng(seed)),
        seed=seed,
    )


def build_verifier(env: Environment, seed: int) -> VerifierEndpoint:
    """Alice: her own face, scene, ambient light and metering behaviour."""
    s_face, s_expr, s_amb, s_rend = spawn_seeds(seed, 4)
    face = make_face("verifier", tone="tan", rng=np.random.default_rng(s_face))
    expression = ExpressionTrack(seed=s_expr, movement_amplitude=0.015)
    ambient = AmbientLight(
        base_lux=env.verifier_ambient_lux,
        drift_lux=2.0,
        rng=np.random.default_rng(s_amb),
    )
    height, width = env.verifier_frame_size
    return VerifierEndpoint(
        face=face,
        expression=expression,
        ambient=ambient,
        frame_size=(height, width),
        seed=s_rend,
    )


def build_genuine_prover(
    user: UserProfile,
    env: Environment,
    seed: int,
) -> GenuineProverEndpoint:
    """Bob when genuine: real face, real screen reflection."""
    s_expr, s_amb, s_rend, s_dist = spawn_seeds(seed, 4)
    expression = ExpressionTrack(
        seed=s_expr,
        movement_amplitude=user.movement_amplitude,
        blink_rate_hz=user.blink_rate_hz,
        talking=user.talking,
    )
    # The user does not sit at exactly the same spot every session.
    distance = env.viewing_distance_m * float(
        np.random.default_rng(s_dist).uniform(0.9, 1.15)
    )
    drift_rng = np.random.default_rng(s_amb)
    ambient = AmbientLight(
        base_lux=env.prover_ambient_lux,
        drift_lux=float(drift_rng.uniform(1.5, 4.0)),
        drift_period_s=float(drift_rng.uniform(6.0, 18.0)),
        event_rate_hz=env.prover_ambient_event_rate_hz,
        event_lux_range=(6.0, 18.0),
        rng=np.random.default_rng(s_amb + 1),
    )
    return GenuineProverEndpoint(
        face=user.face,
        expression=expression,
        ambient=ambient,
        screen=env.screen,
        viewing_distance_m=distance,
        frame_size=env.frame_size,
        seed=s_rend,
    )


def _playout_delay(base_delay_s: float, jitter_s: float, env: Environment) -> float:
    """Playout deadline for one link.

    Real jitter buffers adapt their deadline to the measured path: a
    deadline below the propagation delay would starve playout entirely
    (every frame 'late').  Keep the configured deadline when it already
    covers the path; otherwise stretch to delay + de-jitter margin.
    """
    return max(env.playout_delay_s, base_delay_s + 2.0 * jitter_s + 0.02)


def build_links(
    env: Environment,
    seed: int,
    instrumentation: Instrumentation | None = None,
) -> tuple[MediaLink, MediaLink]:
    """The two directions of the network path."""
    s_up, s_down = spawn_seeds(seed, 2)
    uplink = MediaLink(
        channel=NetworkChannel(
            base_delay_s=env.uplink_delay_s,
            jitter_s=env.jitter_s,
            loss_rate=env.loss_rate,
            seed=s_up,
            instrumentation=instrumentation,
        ),
        jitter_buffer=JitterBuffer(
            playout_delay_s=_playout_delay(env.uplink_delay_s, env.jitter_s, env)
        ),
    )
    downlink = MediaLink(
        channel=NetworkChannel(
            base_delay_s=env.downlink_delay_s,
            jitter_s=env.jitter_s,
            loss_rate=env.loss_rate,
            seed=s_down,
            instrumentation=instrumentation,
        ),
        jitter_buffer=JitterBuffer(
            playout_delay_s=_playout_delay(env.downlink_delay_s, env.jitter_s, env)
        ),
    )
    return uplink, downlink


def build_session(
    prover: ProverEndpoint,
    env: Environment,
    verifier_seed: int,
    links_seed: int,
    instrumentation: Instrumentation | None = None,
) -> VideoChatSession:
    """Alice, the network path and the clock around the given prover.

    The one place a session is wired: :func:`run_session` and the
    faulted and protocol-driven sessions of
    :mod:`~repro.experiments.matrix` differ only in what they do to
    the session before running it.
    """
    verifier = build_verifier(env, verifier_seed)
    uplink, downlink = build_links(env, links_seed, instrumentation)
    return VideoChatSession(
        verifier=verifier,
        prover=prover,
        uplink=uplink,
        downlink=downlink,
        fps=env.fps,
        instrumentation=instrumentation,
    )


def run_session(
    prover: ProverEndpoint,
    env: Environment,
    seed: int,
    duration_s: float,
    instrumentation: Instrumentation | None = None,
) -> SessionRecord:
    """Wire a verifier against the given prover and run the clock."""
    s_verifier, s_links = spawn_seeds(seed, 2)
    session = build_session(prover, env, s_verifier, s_links, instrumentation)
    return session.run(duration_s)


def simulate_genuine_session(
    duration_s: float = 15.0,
    seed: int = 0,
    env: Environment | None = None,
    user: UserProfile | None = None,
    instrumentation: Instrumentation | None = None,
) -> SessionRecord:
    """A chat where the untrusted user really is a live person."""
    env = env or DEFAULT_ENVIRONMENT
    user = user or default_user()
    s_prover, s_session = spawn_seeds(seed, 2)
    prover = build_genuine_prover(user, env, s_prover)
    return run_session(prover, env, s_session, duration_s, instrumentation)


def _target_for(user: UserProfile, seed: int) -> TargetRecording:
    """Victim footage of the impersonated user."""
    return TargetRecording(victim=user.face, seed=seed)


def simulate_attack_session(
    duration_s: float = 15.0,
    seed: int = 0,
    env: Environment | None = None,
    victim: UserProfile | None = None,
    artifact_level: float = 0.012,
    instrumentation: Instrumentation | None = None,
) -> SessionRecord:
    """A chat where the untrusted side runs face reenactment."""
    env = env or DEFAULT_ENVIRONMENT
    victim = victim or default_user()
    s_target, s_attacker, s_session = spawn_seeds(seed, 3)
    attacker = ReenactmentAttacker(
        target=_target_for(victim, s_target),
        artifact_level=artifact_level,
        frame_size=env.frame_size,
        seed=s_attacker,
    )
    return run_session(attacker, env, s_session, duration_s, instrumentation)


def simulate_adaptive_attack_session(
    processing_delay_s: float,
    duration_s: float = 15.0,
    seed: int = 0,
    env: Environment | None = None,
    victim: UserProfile | None = None,
    instrumentation: Instrumentation | None = None,
) -> SessionRecord:
    """The Sec. VIII-J strong attacker forging the reflection with delay."""
    env = env or DEFAULT_ENVIRONMENT
    victim = victim or default_user()
    s_target, s_attacker, s_session = spawn_seeds(seed, 3)
    attacker = AdaptiveLuminanceForger(
        target=_target_for(victim, s_target),
        processing_delay_s=processing_delay_s,
        frame_size=env.frame_size,
        seed=s_attacker,
        mimic_screen=env.screen,
        mimic_distance_m=env.viewing_distance_m,
        ambient_lux=env.prover_ambient_lux,
    )
    return run_session(attacker, env, s_session, duration_s, instrumentation)


@dataclasses.dataclass(frozen=True)
class SessionSpec:
    """One session to simulate, as picklable engine-task coordinates.

    ``kind`` selects the prover: ``"genuine"``, ``"attack"``,
    ``"adaptive"`` (requires ``processing_delay_s``) or ``"replay"``.
    The seed fully determines the session, so a spec list run through a
    pool is bit-identical to a serial loop over the ``simulate_*``
    functions.
    """

    kind: str
    seed: int
    duration_s: float = 15.0
    processing_delay_s: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("genuine", "attack", "adaptive", "replay"):
            raise ValueError(f"unknown session kind {self.kind!r}")
        if self.kind == "adaptive" and self.processing_delay_s is None:
            raise ValueError("adaptive sessions need processing_delay_s")

    def simulate(
        self,
        env: Environment | None = None,
        user: UserProfile | None = None,
        instrumentation: Instrumentation | None = None,
    ) -> SessionRecord:
        """Run this session: the one kind -> prover dispatch."""
        common = dict(
            duration_s=self.duration_s, seed=self.seed, env=env,
            instrumentation=instrumentation,
        )
        if self.kind == "genuine":
            return simulate_genuine_session(user=user, **common)
        if self.kind == "attack":
            return simulate_attack_session(victim=user, **common)
        if self.kind == "adaptive":
            assert self.processing_delay_s is not None  # enforced above
            return simulate_adaptive_attack_session(
                self.processing_delay_s, victim=user, **common
            )
        return simulate_replay_attack_session(victim=user, **common)


def _session_task(
    payload: tuple[SessionSpec, Environment | None, UserProfile | None],
) -> SessionRecord:
    """Engine task wrapper: one spec -> one session (module-level for
    pickling)."""
    spec, env, user = payload
    return spec.simulate(env, user)


def simulate_session_batch(
    specs: Sequence[SessionSpec],
    env: Environment | None = None,
    user: UserProfile | None = None,
    engine: ExecutionEngine | None = None,
) -> list[SessionRecord]:
    """Simulate many sessions through ``engine.map_batches``.

    ``engine`` defaults to a serial :class:`ExecutionEngine`; pass one
    with ``jobs=N`` to fan the sessions out over its process pool.  The
    map is the shared chunked-submission helper, so session simulation,
    the experiment sweeps and the matrices use one submission policy.
    Results come back in spec order regardless of worker count.
    """
    payloads = [(spec, env, user) for spec in specs]
    return (engine or ExecutionEngine()).map_batches(_session_task, payloads, stage="simulate")


def simulate_replay_attack_session(
    duration_s: float = 15.0,
    seed: int = 0,
    env: Environment | None = None,
    victim: UserProfile | None = None,
    instrumentation: Instrumentation | None = None,
) -> SessionRecord:
    """A classic media replay of the victim's own footage."""
    env = env or DEFAULT_ENVIRONMENT
    victim = victim or default_user()
    s_target, s_attacker, s_session = spawn_seeds(seed, 3)
    attacker = ReplayAttacker(
        target=_target_for(victim, s_target),
        frame_size=env.frame_size,
        seed=s_attacker,
    )
    return run_session(attacker, env, s_session, duration_s, instrumentation)
