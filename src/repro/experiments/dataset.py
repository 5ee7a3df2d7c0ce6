"""Feature datasets: simulate sessions, extract features, cache to disk.

The paper's dataset (Sec. VIII-A): ten volunteers, each acting both as a
legitimate user and as a face-reenactment attacker, 40 clips of 15 s per
role.  Here every clip is one simulated chat session; its two luminance
signals and its z1..z4 feature vector are stored.

Simulation is the expensive step (~0.6 s per clip on one core), so
datasets are cached as ``.npz`` under ``.cache/`` keyed by a hash of
everything that influences the data (environment, detector config,
population, clip counts, seed, generator version).  Raw luminance
signals are kept alongside the features because two experiments need
them: the forgery-delay sweep (Fig. 17) re-shifts genuine signals, and
the ablation benches re-extract features with modified configs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
from collections.abc import Sequence

import numpy as np

from ..core.config import DetectorConfig
from ..core.features import FeatureVector, extract_features_batch
from ..core.luminance import clip_signals
from ..engine import ExecutionEngine
from ..vision.landmarks import LandmarkDetector
from .profiles import DEFAULT_ENVIRONMENT, Environment, UserProfile, make_population
from .simulate import SessionSpec

__all__ = ["ClipInstance", "FeatureDataset", "build_dataset", "clip_from_session"]

#: Bump when the generation pipeline changes incompatibly (invalidates caches).
GENERATOR_VERSION = 12

GENUINE = "genuine"
ATTACK = "attack"


@dataclasses.dataclass(frozen=True)
class ClipInstance:
    """One 15-second clip: signals, features, and provenance."""

    user: str
    role: str  # GENUINE or ATTACK (or e.g. "adaptive:0.5")
    seed: int
    features: FeatureVector
    transmitted_luminance: np.ndarray
    received_luminance: np.ndarray


class FeatureDataset:
    """A bag of clip instances with per-user/per-role selectors."""

    def __init__(self, instances: Sequence[ClipInstance]) -> None:
        self.instances = list(instances)

    def __len__(self) -> int:
        return len(self.instances)

    @property
    def users(self) -> list[str]:
        seen: dict[str, None] = {}
        for inst in self.instances:
            seen.setdefault(inst.user, None)
        return list(seen)

    def select(self, user: str | None = None, role: str | None = None) -> list[ClipInstance]:
        """Instances filtered by user and/or role."""
        return [
            inst
            for inst in self.instances
            if (user is None or inst.user == user)
            and (role is None or inst.role == role)
        ]

    def features_of(self, user: str | None = None, role: str | None = None) -> np.ndarray:
        """Feature matrix ``(n, 4)`` of the selected instances."""
        selected = self.select(user, role)
        if not selected:
            return np.empty((0, 4), dtype=np.float64)
        return np.stack([inst.features.as_array() for inst in selected])

    def merged_with(  # reprolint: disable=R009 -- test-only, see ROADMAP
        self, other: "FeatureDataset"
    ) -> "FeatureDataset":
        return FeatureDataset(self.instances + other.instances)


def clip_from_session(
    record,
    user: str,
    role: str,
    seed: int,
    config: DetectorConfig,
    landmark_detector: LandmarkDetector | None = None,
) -> ClipInstance:
    """Extract one :class:`ClipInstance` from a session record."""
    t_lum, r_lum = clip_signals(
        record.transmitted,
        record.received,
        config.sample_rate_hz,
        landmark_detector or LandmarkDetector(),
    )
    n = min(t_lum.size, config.samples_per_clip)
    t_lum, r_lum = t_lum[:n], r_lum[:n]
    features = extract_features_batch([(t_lum, r_lum)], config)[0].features
    return ClipInstance(
        user=user,
        role=role,
        seed=seed,
        features=features,
        transmitted_luminance=t_lum,
        received_luminance=r_lum,
    )


def _clip_seed(base_seed: int, user_index: int, role: str, clip_index: int) -> int:
    """Stable per-clip seed."""
    digest = hashlib.sha256(
        f"{base_seed}:{user_index}:{role}:{clip_index}".encode()
    ).digest()
    return int.from_bytes(digest[:4], "little")


def _generate_clip_task(
    payload: tuple[UserProfile, int, str, int, Environment, DetectorConfig, int],
) -> ClipInstance:
    """Engine task wrapper: one payload tuple -> one simulated clip."""
    return _generate_clip(*payload)


def _generate_clip(
    user: UserProfile,
    user_index: int,
    role: str,
    clip_index: int,
    env: Environment,
    config: DetectorConfig,
    base_seed: int,
) -> ClipInstance:
    seed = _clip_seed(base_seed, user_index, role, clip_index)
    # SessionSpec validates the kind; "adaptive:<delay s>" carries a delay.
    kind, _, delay = role.partition(":")
    spec = SessionSpec(kind, seed, config.clip_duration_s, float(delay) if delay else None)
    return clip_from_session(spec.simulate(env, user), user.name, role, seed, config)


def _cache_key(
    population: Sequence[UserProfile],
    clips_per_role: int,
    roles: Sequence[str],
    env: Environment,
    config: DetectorConfig,
    base_seed: int,
) -> str:
    payload = {
        "version": GENERATOR_VERSION,
        "users": [(u.name, u.seed, u.movement_amplitude, u.blink_rate_hz, u.talking) for u in population],
        "clips_per_role": clips_per_role,
        "roles": list(roles),
        "env": dataclasses.asdict(env),
        "config": dataclasses.asdict(config),
        "base_seed": base_seed,
    }
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:20]


def _default_cache_dir() -> pathlib.Path:
    return pathlib.Path(__file__).resolve().parents[3] / ".cache" / "datasets"


def _save(path: pathlib.Path, dataset: FeatureDataset) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    n = len(dataset)
    t_len = max((inst.transmitted_luminance.size for inst in dataset.instances), default=0)
    t_sig = np.zeros((n, t_len))
    r_sig = np.zeros((n, t_len))
    lengths = np.zeros(n, dtype=np.int64)
    feats = np.zeros((n, 4))
    seeds = np.zeros(n, dtype=np.int64)
    users = []
    roles = []
    for i, inst in enumerate(dataset.instances):
        m = inst.transmitted_luminance.size
        lengths[i] = m
        t_sig[i, :m] = inst.transmitted_luminance
        r_sig[i, : inst.received_luminance.size] = inst.received_luminance
        feats[i] = inst.features.as_array()
        seeds[i] = inst.seed
        users.append(inst.user)
        roles.append(inst.role)
    np.savez_compressed(
        path,
        t_sig=t_sig,
        r_sig=r_sig,
        lengths=lengths,
        feats=feats,
        seeds=seeds,
        users=np.array(users),
        roles=np.array(roles),
    )


def _load(path: pathlib.Path) -> FeatureDataset:
    # Indexing the NpzFile decompresses the whole array, so read each once.
    with np.load(path, allow_pickle=False) as data:
        t_sig, r_sig, lengths = data["t_sig"], data["r_sig"], data["lengths"]
        feats, seeds, users, roles = data["feats"], data["seeds"], data["users"], data["roles"]
    instances = []
    for i in range(feats.shape[0]):
        m = int(lengths[i])
        instances.append(
            ClipInstance(
                user=str(users[i]),
                role=str(roles[i]),
                seed=int(seeds[i]),
                features=FeatureVector.from_array(feats[i]),
                transmitted_luminance=t_sig[i, :m].copy(),
                received_luminance=r_sig[i, :m].copy(),
            )
        )
    return FeatureDataset(instances)


def build_dataset(
    population: Sequence[UserProfile] | None = None,
    clips_per_role: int = 40,
    roles: Sequence[str] = (GENUINE, ATTACK),
    env: Environment | None = None,
    config: DetectorConfig | None = None,
    base_seed: int = 1234,
    cache_dir: pathlib.Path | str | None = None,
    use_cache: bool = True,
    engine: ExecutionEngine | None = None,
) -> FeatureDataset:
    """Simulate (or load from cache) a full evaluation dataset.

    Defaults mirror the paper: ten users, two roles, 40 clips each.

    Clips are simulated through ``engine.map_batches`` (a serial
    :class:`~repro.engine.ExecutionEngine` when ``engine`` is None), so
    ``ExecutionEngine(jobs=N)`` spreads them over its process pool.
    Every clip's seed is a pure function of ``(base_seed, user, role,
    clip index)``, so the dataset is bit-identical at any ``jobs``.
    """
    population = list(population) if population is not None else make_population()
    env = env or DEFAULT_ENVIRONMENT
    config = config or DetectorConfig()
    if clips_per_role < 1:
        raise ValueError("clips_per_role must be >= 1")

    cache_path = None
    if use_cache:
        directory = pathlib.Path(cache_dir) if cache_dir else _default_cache_dir()
        key = _cache_key(population, clips_per_role, roles, env, config, base_seed)
        cache_path = directory / f"dataset_{key}.npz"
        if cache_path.exists():
            return _load(cache_path)

    tasks = [
        (user, user_index, role, clip_index, env, config, base_seed)
        for user_index, user in enumerate(population)
        for role in roles
        for clip_index in range(clips_per_role)
    ]
    engine = engine or ExecutionEngine()
    dataset = FeatureDataset(engine.map_batches(_generate_clip_task, tasks, stage="simulate"))
    if cache_path is not None:
        _save(cache_path, dataset)
    return dataset
