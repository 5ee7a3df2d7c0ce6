"""Experiment runners: one function per paper figure/table.

Each runner consumes a :class:`~repro.experiments.dataset.FeatureDataset`
(or builds sweep-specific ones), replays the paper's training/testing
protocol, and returns a small result dataclass that the benchmark
harness prints as the figure's rows/series.

Protocol (Sec. VIII-C): per volunteer, 20 rounds; in each round 20
randomly-picked genuine instances train the LOF model and the remaining
instances test it; attacks are scored against the same trained model.
"Own" training uses the tested volunteer's clips, "other" training uses a
different volunteer's clips — the paper's no-new-user-training property.

Execution model
---------------
Every ``run_*`` function runs on an
:class:`~repro.engine.ExecutionEngine`; ``engine=None`` (the default)
stands for a serial ``ExecutionEngine()``, which runs every task in
process and in order.  The Monte-Carlo rounds are partitioned into
self-contained tasks (one task per user, sweep point, or training
size), all run by one round task that returns each round's raw scores;
the runners differ only in how they reduce them.  Every round derives
its random generator from the experiment seed plus the task's
coordinates (:func:`~repro.engine.task_rng`), never from a shared
stream.  The result is therefore a pure function of the inputs:
``engine=None``, ``engine(jobs=1)``, and ``engine(jobs=N)`` are all
bit-identical.

Every selection's features are the dataset's own
(:meth:`~repro.experiments.dataset.FeatureDataset.features_of`): what
extraction returned when the dataset was built, under the config it was
built with.  A runner's ``config`` sets the protocol (LOF neighbours,
threshold, voting) but does not re-derive those features.  Only signal
pairs the dataset does not hold — the forgery-delay sweep's shifted
received signals — are extracted, through the engine's
content-addressed cache, so a rerun on the same engine extracts nothing.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

import numpy as np

from ..core.config import DetectorConfig
from ..core.detector import LivenessDetector
from ..core.voting import VotingCombiner
from ..engine import ExecutionEngine, task_rng
from .dataset import ATTACK, GENUINE, FeatureDataset, build_dataset
from .metrics import equal_error_rate, true_acceptance_rate, true_rejection_rate
from .profiles import DEFAULT_ENVIRONMENT, Environment, UserProfile, make_population

__all__ = [
    "UserPerformance",
    "OverallResult",
    "ThresholdSweepResult",
    "AttemptsResult",
    "TrainingSizeResult",
    "SweepPoint",
    "RateSweepResult",
    "DelaySweepResult",
    "run_overall",
    "run_threshold_sweep",
    "run_attempts",
    "run_training_size",
    "run_screen_size",
    "run_sampling_rate",
    "run_ambient_light",
    "run_forgery_delay",
    "score_round",
]


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------


def score_round(
    genuine: np.ndarray,
    attacks: np.ndarray,
    train_size: int,
    config: DetectorConfig,
    rng: np.random.Generator,
    train_pool: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One protocol round: fit on ``train_size`` sampled training vectors,
    return (genuine test scores, attack scores).

    When ``train_pool`` is None the tested user's own genuine vectors are
    split into train/test; otherwise the pool provides the training
    sample ("other user" training) and *all* genuine vectors are tested.

    The round is fitted through :class:`LivenessDetector` — the same
    deployable unit the end-to-end verifiers use — so the protocol and
    the product cannot drift apart on threshold or neighbor semantics.
    """
    if genuine.shape[0] < 2:
        raise ValueError("need at least 2 genuine instances")
    if train_pool is None:
        perm = rng.permutation(genuine.shape[0])
        train = genuine[perm[:train_size]]
        test = genuine[perm[train_size:]]
        if test.shape[0] == 0:
            raise ValueError("train_size consumes every genuine instance")
    else:
        idx = rng.choice(train_pool.shape[0], size=min(train_size, train_pool.shape[0]), replace=False)
        train = train_pool[idx]
        test = genuine
    detector = LivenessDetector(config).fit(train)
    genuine_scores = detector.score_samples(test)
    attack_scores = (
        detector.score_samples(attacks) if attacks.shape[0] else np.empty(0)
    )
    return genuine_scores, attack_scores


# ----------------------------------------------------------------------
# The round task behind every figure
# ----------------------------------------------------------------------

#: One round's raw scores: genuine test scores, attack scores, genuine
#: scores under "other user" training (None when not asked for), and
#: the round's generator as scoring left it (Fig. 14 votes draw on).
_Round = tuple[np.ndarray, np.ndarray, "np.ndarray | None", np.random.Generator]


def _rounds_task(
    payload: tuple[
        np.ndarray, np.ndarray, np.ndarray | None, np.ndarray | None,
        int, DetectorConfig, int, tuple[int, ...],
    ],
) -> list[_Round]:
    """Every round of one task (one user, sweep point or training size).

    Round ``r`` draws from ``task_rng(*key, r)``: it fits on
    ``train_size`` vectors — from ``pool`` when given, else split off
    the user's own genuine clips — and scores genuine and attack clips;
    with ``other``, the same generator then draws an "other user"
    training sample and scores the genuine clips again.
    """
    genuine, attacks, pool, other, train_size, config, rounds, key = payload
    out: list[_Round] = []
    for round_index in range(rounds):
        rng = task_rng(*key, round_index)
        g, a = score_round(genuine, attacks, train_size, config, rng, train_pool=pool)
        g_other = None
        if other is not None:
            g_other, _ = score_round(
                genuine, np.empty((0, 4)), train_size, config, rng, train_pool=other
            )
        out.append((g, a, g_other, rng))
    return out


def _user_rounds(
    dataset: FeatureDataset,
    config: DetectorConfig,
    rounds: int,
    train_size: int,
    seed: int,
    engine: ExecutionEngine,
    with_other: bool,
) -> list[list[_Round]]:
    """Own-training rounds per user (plus the next user's bank as the
    "other" training pool when ``with_other``), in user order."""
    banks = [
        (dataset.features_of(user, GENUINE), dataset.features_of(user, ATTACK))
        for user in dataset.users
    ]
    payloads = [
        (genuine, attacks, None, banks[(i + 1) % len(banks)][0] if with_other else None,
         train_size, config, rounds, (seed, i))
        for i, (genuine, attacks) in enumerate(banks)
    ]
    return engine.map_batches(_rounds_task, payloads, stage="rounds")


def _rates(rounds: Sequence[_Round], threshold: float) -> tuple[list[float], list[float]]:
    """Per-round TAR, and TRR for the rounds that scored any attack."""
    tars = [true_acceptance_rate(g, threshold) for g, _, _, _ in rounds]
    trrs = [true_rejection_rate(a, threshold) for _, a, _, _ in rounds if a.size]
    return tars, trrs


def _mean_std(values: Sequence[float]) -> tuple[float, float]:
    if not values:
        return float("nan"), float("nan")
    return float(np.mean(values)), float(np.std(values))


# ----------------------------------------------------------------------
# Fig. 11 — overall TAR / TRR per user, own vs other training
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class UserPerformance:
    """Fig. 11 bars for one volunteer."""

    user: str
    tar_own_mean: float
    tar_own_std: float
    tar_other_mean: float
    tar_other_std: float
    trr_mean: float
    trr_std: float


@dataclasses.dataclass(frozen=True)
class OverallResult:
    """Fig. 11: per-user and averaged single-detection performance."""

    per_user: tuple[UserPerformance, ...]
    avg_tar_own: float
    avg_tar_other: float
    avg_trr: float


def run_overall(
    dataset: FeatureDataset,
    config: DetectorConfig | None = None,
    rounds: int = 20,
    train_size: int = 20,
    seed: int = 7,
    engine: ExecutionEngine | None = None,
) -> OverallResult:
    """Reproduce Fig. 11 (Sec. VIII-C)."""
    config = config or DetectorConfig()
    engine = engine or ExecutionEngine()
    if len(dataset.users) < 2:
        raise ValueError("overall evaluation needs at least 2 users")
    threshold = config.lof_threshold
    per_user = []
    for user, user_rounds in zip(
        dataset.users,
        _user_rounds(dataset, config, rounds, train_size, seed, engine, with_other=True),
    ):
        tars_own, trrs = _rates(user_rounds, threshold)
        tars_other = [
            true_acceptance_rate(g_other, threshold) for _, _, g_other, _ in user_rounds
        ]
        per_user.append(
            UserPerformance(
                user, *_mean_std(tars_own), *_mean_std(tars_other), *_mean_std(trrs)
            )
        )
    return OverallResult(
        per_user=tuple(per_user),
        avg_tar_own=float(np.mean([u.tar_own_mean for u in per_user])),
        avg_tar_other=float(np.mean([u.tar_other_mean for u in per_user])),
        avg_trr=float(np.mean([u.trr_mean for u in per_user])),
    )


# ----------------------------------------------------------------------
# Fig. 12 — decision-threshold sweep, EER
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ThresholdSweepResult:
    """Fig. 12: FAR/FRR across the decision threshold."""

    thresholds: np.ndarray
    far: np.ndarray
    frr: np.ndarray
    eer: float
    eer_threshold: float


def run_threshold_sweep(
    dataset: FeatureDataset,
    config: DetectorConfig | None = None,
    thresholds: Sequence[float] | None = None,
    rounds: int = 20,
    train_size: int = 20,
    seed: int = 11,
    engine: ExecutionEngine | None = None,
) -> ThresholdSweepResult:
    """Reproduce Fig. 12 (Sec. VIII-D).

    LOF scores do not depend on the threshold, so each round is scored
    once and every threshold reads from the pooled score arrays.
    """
    config = config or DetectorConfig()
    engine = engine or ExecutionEngine()
    if thresholds is None:
        thresholds = np.arange(1.5, 4.01, 0.25)
    thresholds = np.asarray(list(thresholds), dtype=np.float64)
    rows = _user_rounds(dataset, config, rounds, train_size, seed, engine, with_other=False)
    g_all = np.concatenate([g for user_rounds in rows for g, _, _, _ in user_rounds])
    a_all = np.concatenate([a for user_rounds in rows for _, a, _, _ in user_rounds])
    far = np.array([float((a_all <= t).mean()) for t in thresholds])
    frr = np.array([float((g_all > t).mean()) for t in thresholds])
    eer, eer_threshold = equal_error_rate(g_all, a_all)
    return ThresholdSweepResult(
        thresholds=thresholds, far=far, frr=frr, eer=eer, eer_threshold=eer_threshold
    )


# ----------------------------------------------------------------------
# Fig. 14 — number of detection attempts (majority voting)
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class AttemptsResult:
    """Fig. 14: accuracy vs number of voting attempts."""

    attempts: tuple[int, ...]
    tar_own_mean: np.ndarray
    tar_own_std: np.ndarray
    tar_other_mean: np.ndarray
    tar_other_std: np.ndarray
    trr_mean: np.ndarray
    trr_std: np.ndarray


def run_attempts(
    dataset: FeatureDataset,
    config: DetectorConfig | None = None,
    attempts: Sequence[int] = (1, 2, 3, 4, 5, 6, 7),
    rounds: int = 20,
    trials_per_round: int = 10,
    train_size: int = 20,
    seed: int = 13,
    engine: ExecutionEngine | None = None,
) -> AttemptsResult:
    """Reproduce Fig. 14 (Sec. VIII-F): majority voting over D attempts.

    Each round's voting trials continue that round's generator after
    scoring, so they stay a pure function of the round's coordinates.
    """
    config = config or DetectorConfig()
    engine = engine or ExecutionEngine()
    attempts = tuple(attempts)
    combiner = VotingCombiner(config.vote_fraction)
    threshold = config.lof_threshold
    acc_own: dict[int, list[float]] = {d: [] for d in attempts}
    acc_other: dict[int, list[float]] = {d: [] for d in attempts}
    rej: dict[int, list[float]] = {d: [] for d in attempts}
    rows = _user_rounds(dataset, config, rounds, train_size, seed, engine, with_other=True)
    for g_own, a_own, g_other, rng in (r for user_rounds in rows for r in user_rounds):
        for d in attempts:
            for scores, sink, attacker_truth in (
                (g_own, acc_own, False),
                (g_other, acc_other, False),
                (a_own, rej, True),
            ):
                if scores.size == 0:
                    continue
                correct = 0
                for _ in range(trials_per_round):
                    picked = rng.choice(scores, size=d, replace=True)
                    verdict = combiner.combine_bools(list(picked > threshold))
                    if verdict.is_attacker == attacker_truth:
                        correct += 1
                sink[d].append(correct / trials_per_round)

    return AttemptsResult(
        attempts=attempts,
        tar_own_mean=np.array([np.mean(acc_own[d]) for d in attempts]),
        tar_own_std=np.array([np.std(acc_own[d]) for d in attempts]),
        tar_other_mean=np.array([np.mean(acc_other[d]) for d in attempts]),
        tar_other_std=np.array([np.std(acc_other[d]) for d in attempts]),
        trr_mean=np.array([np.mean(rej[d]) for d in attempts]),
        trr_std=np.array([np.std(rej[d]) for d in attempts]),
    )


# ----------------------------------------------------------------------
# Fig. 15 — number of training instances
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class TrainingSizeResult:
    """Fig. 15: accuracy vs training-set size (one volunteer)."""

    sizes: tuple[int, ...]
    tar_mean: np.ndarray
    tar_std: np.ndarray
    trr_mean: np.ndarray
    trr_std: np.ndarray


def run_training_size(
    dataset: FeatureDataset,
    user: str | None = None,
    config: DetectorConfig | None = None,
    sizes: Sequence[int] = (4, 8, 12, 16, 20),
    rounds: int = 20,
    seed: int = 17,
    engine: ExecutionEngine | None = None,
) -> TrainingSizeResult:
    """Reproduce Fig. 15 (Sec. VIII-G)."""
    config = config or DetectorConfig()
    engine = engine or ExecutionEngine()
    user = user or dataset.users[0]
    genuine = dataset.features_of(user, GENUINE)
    attacks = dataset.features_of(user, ATTACK)
    payloads = [
        (genuine, attacks, None, None, size, config, rounds, (seed, size_index))
        for size_index, size in enumerate(sizes)
    ]
    rows = engine.map_batches(_rounds_task, payloads, stage="rounds")
    # One (TAR mean, TAR std, TRR mean, TRR std) row per size, then one
    # series per column.
    stats = [
        (*_mean_std(tars), *_mean_std(trrs))
        for tars, trrs in (_rates(r, config.lof_threshold) for r in rows)
    ]
    tar_mean, tar_std, trr_mean, trr_std = np.array(stats).reshape(-1, 4).T.copy()
    return TrainingSizeResult(tuple(sizes), tar_mean, tar_std, trr_mean, trr_std)


# ----------------------------------------------------------------------
# Environment sweeps: screen size (Fig. 13), sampling rate (Fig. 16),
# ambient light (Sec. VIII-I)
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class SweepPoint:
    """One configuration of an environment sweep."""

    label: str
    tar_mean: float
    tar_std: float
    trr_mean: float
    trr_std: float


@dataclasses.dataclass(frozen=True)
class RateSweepResult:
    """A labelled series of sweep points."""

    name: str
    points: tuple[SweepPoint, ...]


def _evaluate_dataset(
    dataset: FeatureDataset,
    config: DetectorConfig,
    rounds: int,
    train_size: int,
    seed: int | Sequence[int],
    engine: ExecutionEngine,
    train_dataset: FeatureDataset | None = None,
) -> tuple[float, float, float, float]:
    """Pooled TAR/TRR (mean, std over rounds) across the dataset's users.

    When ``train_dataset`` is given, each user's LOF bank is drawn from
    *that* dataset (the nominal condition) while testing happens on
    ``dataset`` (the swept condition) — the deployment-faithful protocol
    for environment sweeps.  Training per swept condition would let a
    degenerate environment (no reflection at all) collapse genuine and
    attack features onto the same point and report a flattering TAR with
    zero real security.
    """
    seed_key = (seed,) if isinstance(seed, int) else tuple(seed)
    payloads = []
    for i, user in enumerate(dataset.users):
        genuine = dataset.features_of(user, GENUINE)
        attacks = dataset.features_of(user, ATTACK)
        if train_dataset is None:
            effective_train = min(train_size, genuine.shape[0] - 1)
            pool = None
        else:
            pool = train_dataset.features_of(user, GENUINE)
            if pool.shape[0] < 2:
                raise ValueError(f"train dataset lacks genuine clips for {user!r}")
            effective_train = min(train_size, pool.shape[0])
        payloads.append(
            (genuine, attacks, pool, None, effective_train, config, rounds, (*seed_key, i))
        )
    rows = engine.map_batches(_rounds_task, payloads, stage="rounds")
    tars, trrs = _rates([r for user_rounds in rows for r in user_rounds], config.lof_threshold)
    return (*_mean_std(tars), *_mean_std(trrs))


def _sweep(
    name: str,
    points: Sequence[tuple[str, Environment, DetectorConfig]],
    train: tuple[Environment, DetectorConfig] | None,
    population: list[UserProfile],
    clips_per_role: int,
    rounds: int,
    train_size: int,
    seed: int,
    engine: ExecutionEngine,
) -> RateSweepResult:
    """The environment-sweep loop: one dataset and one pooled evaluation
    per ``(label, env, config)`` point, seeded by the point's index.

    ``train`` names the nominal ``(env, config)`` every user enrolled
    under; None trains each point on its own dataset.
    """

    def dataset(env: Environment, config: DetectorConfig) -> FeatureDataset:
        return build_dataset(
            population=population,
            clips_per_role=clips_per_role,
            env=env,
            config=config,
            engine=engine,
        )

    train_dataset = dataset(*train) if train is not None else None
    return RateSweepResult(
        name=name,
        points=tuple(
            SweepPoint(label, *_evaluate_dataset(
                dataset(env, config), config, rounds, train_size,
                seed=(seed, point_index), train_dataset=train_dataset, engine=engine,
            ))
            for point_index, (label, env, config) in enumerate(points)
        ),
    )


def run_screen_size(
    screens: Sequence[tuple[str, Environment]],
    population: Sequence[UserProfile] | None = None,
    config: DetectorConfig | None = None,
    train_env: Environment | None = None,
    clips_per_role: int = 20,
    rounds: int = 10,
    train_size: int = 10,
    seed: int = 19,
    engine: ExecutionEngine | None = None,
) -> RateSweepResult:
    """Reproduce Fig. 13 (Sec. VIII-E): performance vs screen size.

    ``screens`` is a list of (label, environment) pairs — environments
    differ in ``screen`` and possibly ``viewing_distance_m`` (the paper's
    6-inch-phone-at-10-cm observation).  Training banks come from the
    ``train_env`` (nominal testbed) dataset: the system is enrolled once
    and then used in front of whatever screen the user has.
    """
    config = config or DetectorConfig()
    return _sweep(
        "screen size",
        [(label, env, config) for label, env in screens],
        (train_env or DEFAULT_ENVIRONMENT, config),
        list(population) if population is not None else make_population(4),
        clips_per_role, rounds, train_size, seed, engine or ExecutionEngine(),
    )


def run_sampling_rate(
    rates_hz: Sequence[float] = (5.0, 8.0, 10.0),
    population: Sequence[UserProfile] | None = None,
    config: DetectorConfig | None = None,
    env: Environment | None = None,
    clips_per_role: int = 40,
    rounds: int = 20,
    train_size: int = 20,
    seed: int = 23,
    engine: ExecutionEngine | None = None,
) -> RateSweepResult:
    """Reproduce Fig. 16 (Sec. VIII-H): performance vs sampling rate.

    The paper uses one volunteer; the default population does too.  The
    filter-chain windows stay fixed *in samples* (the paper specifies
    them that way), which is precisely why low rates collapse: at 5 Hz
    the 30-sample RMS window spans 6 s and smears neighbouring changes
    together.

    Unlike the environment sweeps, training happens *at the swept rate*:
    the sampling rate is a detector build-time choice, so a 5 Hz system
    would also have enrolled at 5 Hz.
    """
    base_config = config or DetectorConfig()
    env = env or DEFAULT_ENVIRONMENT
    return _sweep(
        "sampling rate",
        [
            (f"{rate:g} Hz", env, base_config.with_overrides(sample_rate_hz=float(rate)))
            for rate in rates_hz
        ],
        None,
        list(population) if population is not None else make_population(1),
        clips_per_role, rounds, train_size, seed, engine or ExecutionEngine(),
    )


def run_ambient_light(
    lux_levels: Sequence[float] = (50.0, 120.0, 240.0),
    population: Sequence[UserProfile] | None = None,
    config: DetectorConfig | None = None,
    env: Environment | None = None,
    clips_per_role: int = 20,
    rounds: int = 10,
    train_size: int = 10,
    seed: int = 29,
    engine: ExecutionEngine | None = None,
) -> RateSweepResult:
    """Reproduce Sec. VIII-I: performance vs ambient illuminance.

    Enrollment happens in the nominal room; the sweep changes the room.
    """
    config = config or DetectorConfig()
    base_env = env or DEFAULT_ENVIRONMENT
    return _sweep(
        "ambient light",
        [
            (f"{lux:g} lux", base_env.replace(prover_ambient_lux=float(lux)), config)
            for lux in lux_levels
        ],
        (base_env, config),
        list(population) if population is not None else make_population(2),
        clips_per_role, rounds, train_size, seed, engine or ExecutionEngine(),
    )


# ----------------------------------------------------------------------
# Fig. 17 — forgery processing delay
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class DelaySweepResult:
    """Fig. 17: rejection rate vs forgery processing delay."""

    delays_s: np.ndarray
    rejection_rate: np.ndarray


def _delayed_received(received: np.ndarray, shift: int) -> np.ndarray:
    """The received signal as a forger with ``shift`` samples of
    processing delay would present it."""
    if shift <= 0:
        return received
    return np.concatenate([np.full(shift, received[0]), received[:-shift]])


def run_forgery_delay(
    dataset: FeatureDataset,
    config: DetectorConfig | None = None,
    delays_s: Sequence[float] = (0.0, 0.3, 0.5, 0.8, 1.0, 1.3, 1.6, 2.0, 2.5, 3.0),
    rounds: int = 5,
    train_size: int = 20,
    max_clips_per_user: int = 20,
    seed: int = 31,
    engine: ExecutionEngine | None = None,
) -> DelaySweepResult:
    """Reproduce Fig. 17 (Sec. VIII-J).

    The paper's method, exactly: take *legitimate* signal pairs (i.e. an
    attacker who forges the reflected luminance perfectly), shift the
    received signal by the forgery processing delay, and measure how the
    rejection rate grows with the delay.  The detectors train on the
    dataset's own features; each delay's shifted pairs are extracted
    in process through the engine's content-addressed cache, so a rerun
    on the same engine (or a shared cache) extracts nothing.
    """
    config = config or DetectorConfig()
    engine = engine or ExecutionEngine()
    delays = np.asarray(list(delays_s), dtype=np.float64)
    rejection = np.zeros_like(delays)

    per_user_clips = {
        user: dataset.select(user, GENUINE)[:max_clips_per_user]
        for user in dataset.users
    }

    # Pre-fit `rounds` detectors per user on independent training samples.
    detectors: dict[str, list[LivenessDetector]] = {}
    for user_index, user in enumerate(dataset.users):
        genuine = dataset.features_of(user, GENUINE)
        size = min(train_size, genuine.shape[0] - 1)
        user_detectors = []
        for round_index in range(rounds):
            rng = task_rng(seed, user_index, round_index)
            perm = rng.permutation(genuine.shape[0])
            user_detectors.append(LivenessDetector(config).fit(genuine[perm[:size]]))
        detectors[user] = user_detectors

    for d_index, delay in enumerate(delays):
        shift = int(round(delay * config.sample_rate_hz))
        ordered_users = [u for u, clips in per_user_clips.items() if clips]
        pairs = [
            (clip.transmitted_luminance, _delayed_received(clip.received_luminance, shift))
            for user in ordered_users
            for clip in per_user_clips[user]
        ]
        feature_vectors = engine.extract_features_batch(pairs, config)
        rejected = 0
        total = 0
        cursor = 0
        for user in ordered_users:
            count = len(per_user_clips[user])
            queries = np.array(
                [fv.as_array() for fv in feature_vectors[cursor : cursor + count]]
            )
            cursor += count
            for detector in detectors[user]:
                # A clip is rejected unless its score is at most tau.
                scores = detector.score_samples(queries)
                rejected += int(np.count_nonzero(~(scores <= detector.config.lof_threshold)))
                total += count
        rejection[d_index] = rejected / total if total else float("nan")
    return DelaySweepResult(delays_s=delays, rejection_rate=rejection)
