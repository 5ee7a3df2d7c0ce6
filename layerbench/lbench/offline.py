"""``offline-sessions``: closed loop over full capture-rig sessions.

One session at a time is simulated through the whole rig (renderer,
sensor, codec, network, chat loop) at the default 96x96 / 64x64 raster,
verified with :meth:`ChatVerifier.verify_session`, and dropped before
the next one starts: a session record holds about 46 MB per 15 s of
call, so keeping them would make memory a function of run length.

The verifier is the deployment's, enrolled the same way on every run:
the first two volunteers of the experiments' population, 60 s each, at
a small raster (enrollment is set-up, and a small-raster bank scores
within the first decimal of a default-raster one).  The enrollment does
not follow the seed because a bank of eight clips is fragile: on one
seed a bank drawn from other users let three of four attacks through,
and the accuracy shares would measure the draw of the bank, not the
program.  The composition of a run is fixed too (every run offers the
same number of frames); the seed decides the rest: which of the other
users plays each session, which session gets which clip count, the
order, and every simulation seed.

A session's verdict delay (its ``verify_session`` call) is reported per
clip, so sessions of one to three clips give comparable samples.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from repro import api
from repro.experiments.profiles import DEFAULT_ENVIRONMENT, Environment, make_population

from .result import RunResult
from .tracing import SpanLog, installed_wrappers

#: Clips per session, per role, in one unit of work (about 21 s on a
#: 2-vCPU x86 virtual machine).
UNIT: dict[str, tuple[int, ...]] = {
    "genuine": (1, 1, 2, 2, 2, 3, 3, 3),
    "reenactment": (1, 2),
    "replay": (1, 2),
}
UNIT_SECONDS = 20.0
CLIP_S = 15.0
ENROLL_ENV = Environment(frame_size=(48, 48), verifier_frame_size=(32, 32))
ENROLL_SEED = 0
POPULATION_SEED = 42  # the experiments' volunteer population


@dataclasses.dataclass(frozen=True)
class Size:
    units: int = 1
    unit: tuple[tuple[str, tuple[int, ...]], ...] = tuple(UNIT.items())
    enroll_users: int = 2
    enroll_duration_s: float = 60.0

    @classmethod
    def for_seconds(cls, seconds: float) -> "Size":
        return cls(units=max(1, round(seconds / UNIT_SECONDS)))


@dataclasses.dataclass(frozen=True)
class Plan:
    role: str
    user: int
    clips: int
    seed: int


@dataclasses.dataclass
class State:
    verifier: api.ChatVerifier
    population: list
    plans: list[Plan]


def _simulate(plan: Plan, population, env: Environment = DEFAULT_ENVIRONMENT):
    user = population[plan.user]
    duration = plan.clips * CLIP_S
    if plan.role == "genuine":
        return api.simulate_genuine_session(duration, seed=plan.seed, env=env, user=user)
    if plan.role == "reenactment":
        return api.simulate_attack_session(duration, seed=plan.seed, env=env, victim=user)
    return api.simulate_replay_attack_session(
        duration, seed=plan.seed, env=env, victim=user
    )


def setup(seed: int, size: Size) -> State:
    """Enroll the verifier, plan the run, and verify one warm-up session
    (discarded)."""
    population = make_population(10, seed=POPULATION_SEED)
    enroll_rng = np.random.default_rng([ENROLL_SEED, 0xE1])
    verifier = api.ChatVerifier()
    verifier.enroll(
        api.simulate_genuine_session(
            size.enroll_duration_s,
            seed=int(enroll_rng.integers(2**31)),
            env=ENROLL_ENV,
            user=population[user],
        )
        for user in range(size.enroll_users)
    )
    rng = np.random.default_rng([seed, 0x0FF1])
    others = np.arange(size.enroll_users, len(population))
    plans = [
        Plan(role, int(rng.choice(others)), int(clips), int(rng.integers(2**31)))
        for _ in range(size.units)
        for role, clip_counts in size.unit
        for clips in rng.permutation(clip_counts)
    ]
    plans = [plans[i] for i in rng.permutation(len(plans))]
    warmup = Plan("genuine", int(others[0]), 1, int(rng.integers(2**31)))
    verifier.verify_session(_simulate(warmup, population))
    return State(verifier=verifier, population=population, plans=plans)


def run(state: State, log: SpanLog | None = None) -> RunResult:
    wrappers_seen = installed_wrappers()
    closes: list[tuple[float, float, int]] = []
    frames = failed = 0
    tallies = {"genuine": [0, 0], "attack": [0, 0]}  # [accepted or caught, conclusive]
    verdicts: list[str] = []
    problems: list[str] = []
    clock = time.perf_counter
    t_start = clock()
    for plan in state.plans:
        try:
            record = _simulate(plan, state.population)
            t_recorded = clock()
            report = state.verifier.verify_session(record)
            closes.append((t_recorded, clock(), plan.clips))
        except Exception as exc:  # counted as a failed operation
            failed += 1
            problems.append(f"{plan}: {type(exc).__name__}: {exc}")
            continue
        frames += len(record.transmitted)
        del record
        if report.verdict is None:
            problems.append(f"{plan}: no verdict")
            verdicts.append("none")
            continue
        kind = "genuine" if plan.role == "genuine" else "attack"
        tallies[kind][1] += 1
        tallies[kind][0] += (not report.is_attacker) if kind == "genuine" else report.is_attacker
        verdicts.append("attacker" if report.is_attacker else "live")
    window = (t_start, clock())
    layer: dict[str, float] = {}
    if log is not None:
        sent = sum(stats.sent for stats in log.channel_stats.values())
        lost = sum(stats.lost for stats in log.channel_stats.values())
        layer["net.sent"] = float(sent)
        layer["net.lost"] = float(lost)
    conclusive = tallies["genuine"][1] + tallies["attack"][1]
    return RunResult(
        window=window,
        frames=frames,
        closes=closes,
        genuine_accepted=tallies["genuine"][0],
        genuine_conclusive=tallies["genuine"][1],
        attack_caught=tallies["attack"][0],
        attack_conclusive=tallies["attack"][1],
        conclusive=conclusive,
        admitted=len(state.plans) - failed,
        attempted=len(state.plans),
        failed=failed,
        problems=problems,
        wrappers_seen=wrappers_seen,
        layer=layer,
        deterministic={"frames": frames, "verdicts": verdicts},
    )
