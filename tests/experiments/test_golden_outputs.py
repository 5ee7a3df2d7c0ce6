"""Golden pins: every experiment runner's output, exactly, across commits.

The other runner tests check shapes and same-run determinism; these pin
the *values*.  Each case runs one ``run_*`` runner (or matrix) at a
small size and compares a canonical repr of its result — floats and
array elements written with Python's shortest round-trip ``repr`` — to
the recording in ``golden_outputs.json``.  A refactor of the experiment
core that changes a seed derivation, a round's draw order or a
reduction shows up here as a diff, not as a drifted figure.

Figure runners run on synthetic feature datasets.  The environment
sweeps (Figs. 13/16, Sec. VIII-I) get a synthetic ``build_dataset``
whose banks move with the swept environment and config, so the sweep
loop — nominal vs per-point training, per-point seed keys — is pinned
without simulating clips.  The matrices and the session builders have
no synthetic form and run the real chat stack at a small raster.  The
Sec. V chain itself is pinned too: every intermediate of
``preprocess_batch`` and its peaks, on seeded ragged signals.

Re-record (only when an output change is intended) with::

    PYTHONPATH=src python tests/experiments/test_golden_outputs.py --write
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import pathlib
import sys
import zlib

import numpy as np
import pytest

from repro.core.config import DetectorConfig
from repro.core.features import FeatureVector
from repro.core.preprocessing import preprocess_batch
from repro.engine import ExecutionEngine
from repro.experiments import runner
from repro.experiments.dataset import ATTACK, GENUINE, ClipInstance, FeatureDataset
from repro.experiments.profiles import DEFAULT_ENVIRONMENT, Environment, make_population
from repro.experiments.simulate import SessionSpec, simulate_session_batch
from repro.screen.display import LAPTOP_13_LCD, PHONE_6_OLED

GOLDEN_PATH = pathlib.Path(__file__).with_name("golden_outputs.json")

#: A strict threshold puts both TAR and TRR of the synthetic banks
#: strictly between 0 and 1, so every reduction carries information.
CONFIG = DetectorConfig().with_overrides(lof_threshold=1.6)

#: Small rasters keep the real-simulation cases to seconds.
SMALL_ENV = Environment(frame_size=(64, 64), verifier_frame_size=(40, 40))


def canonical(value) -> str:
    """Version-independent exact repr of a result tree."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = ", ".join(
            f"{f.name}={canonical(getattr(value, f.name))}"
            for f in dataclasses.fields(value)
        )
        return f"{type(value).__name__}({fields})"
    if isinstance(value, np.ndarray):
        return f"array({canonical(value.tolist())}, dtype={value.dtype})"
    if isinstance(value, list):
        return "[" + ", ".join(canonical(v) for v in value) + "]"
    if isinstance(value, tuple):
        return "(" + "".join(f"{canonical(v)}, " for v in value) + ")"
    if isinstance(value, dict):
        inner = ", ".join(f"{canonical(k)}: {canonical(v)}" for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if isinstance(value, np.generic):
        # A numpy scalar where a Python one used to be is a change too.
        return f"np.{type(value).__name__}({canonical(value.item())})"
    return repr(value)


# ----------------------------------------------------------------------
# Synthetic inputs
# ----------------------------------------------------------------------


def _instance(user, role, z, seed, signals=None):
    t_sig, r_sig = signals if signals is not None else (np.zeros(150), np.zeros(150))
    return ClipInstance(user, role, seed, FeatureVector(*z), t_sig, r_sig)


def _feature_dataset(users, clips, seed, shift=0.0):
    """Overlapping genuine/attack clouds, so every rate sits off 0 and 1.

    One genuine clip in ten is an outlier (a clip whose challenge the
    channel smeared), which keeps TAR below 1.
    """
    rng = np.random.default_rng(seed)
    instances = []
    for user in users:
        for i in range(clips):
            z = (
                1.0 - 0.2 * shift,
                float(rng.choice([1.0, 1.0, 0.667])),
                float(rng.uniform(0.7, 1.0)) - shift,
                float(rng.uniform(0.02, 0.35)) + 0.5 * shift,
            )
            if rng.uniform() < 0.1:
                z = (*z[:2], float(rng.uniform(-0.2, 0.7)), float(rng.uniform(0.3, 1.0)))
            instances.append(_instance(user, GENUINE, z, i))
        for i in range(clips):
            z = (
                float(rng.uniform(0.2, 1.0)),
                float(rng.uniform(0.3, 1.0)),
                float(rng.uniform(-0.5, 0.95)),
                float(rng.uniform(0.1, 1.2)),
            )
            instances.append(_instance(user, ATTACK, z, i))
    return FeatureDataset(instances)


def _signal_dataset():
    """Genuine clips with real correlated signals for delay shifting."""
    rng = np.random.default_rng(3)
    instances = []
    for user in ("u0", "u1"):
        for i in range(10):
            t = np.full(150, 180.0)
            a = int(rng.integers(35, 65))
            b = a + int(rng.integers(45, 60))
            t[a:] -= 50.0
            t[b:] += 40.0
            r = 120.0 + 0.3 * np.concatenate([np.full(4, t[0]), t[:-4]])
            r = r + rng.normal(0, 0.3, 150)
            z = (1.0, 1.0, float(rng.uniform(0.9, 1.0)), float(rng.uniform(0.02, 0.15)))
            instances.append(_instance(user, GENUINE, z, i, signals=(t, r)))
    return FeatureDataset(instances)


def _fake_build_dataset(population=None, clips_per_role=40, env=None, config=None, **_):
    """Stand-in for simulation: a bank that moves with env and config."""
    env = env or DEFAULT_ENVIRONMENT
    config = config or DetectorConfig()
    key = (
        env.prover_ambient_lux,
        env.screen.diagonal_in,
        env.viewing_distance_m,
        config.sample_rate_hz,
    )
    nominal = (
        DEFAULT_ENVIRONMENT.prover_ambient_lux,
        DEFAULT_ENVIRONMENT.screen.diagonal_in,
        DEFAULT_ENVIRONMENT.viewing_distance_m,
        DetectorConfig().sample_rate_hz,
    )
    shift = 0.0 if key == nominal else 0.15 + 0.05 * (zlib.crc32(repr(key).encode()) % 5)
    users = [user.name for user in population]
    seed = zlib.crc32(repr(key).encode())
    return _feature_dataset(users, clips_per_role, seed=seed, shift=shift)


# ----------------------------------------------------------------------
# Cases
# ----------------------------------------------------------------------


def _figure_cases():
    data = _feature_dataset(("u0", "u1", "u2"), 24, seed=0)
    signals = _signal_dataset()
    yield "run_overall", lambda: runner.run_overall(data, CONFIG, rounds=4, train_size=12)
    yield "run_threshold_sweep", lambda: runner.run_threshold_sweep(
        data, CONFIG, thresholds=(1.5, 2.0, 3.0), rounds=3, train_size=12
    )
    yield "run_attempts", lambda: runner.run_attempts(
        data, CONFIG, attempts=(1, 3, 5), rounds=3, trials_per_round=6, train_size=12
    )
    yield "run_training_size", lambda: runner.run_training_size(
        data, user="u1", config=CONFIG, sizes=(4, 8, 16), rounds=4
    )
    yield "run_forgery_delay", lambda: runner.run_forgery_delay(
        signals, CONFIG, delays_s=(0.0, 0.5, 2.0), rounds=2, train_size=6, max_clips_per_user=8
    )


def _engine_cases():
    """Runners on an explicit engine: the same dataset features, with
    the delay sweep's shifted pairs extracted through the engine cache."""
    signals = _signal_dataset()

    def overall():
        with ExecutionEngine(jobs=1) as engine:
            return runner.run_overall(signals, rounds=2, train_size=6, engine=engine)

    def forgery_delay():
        with ExecutionEngine(jobs=1) as engine:
            return runner.run_forgery_delay(
                signals, delays_s=(0.0, 1.0), rounds=2, train_size=6,
                max_clips_per_user=6, engine=engine,
            )

    yield "run_overall[engine]", overall
    yield "run_forgery_delay[engine]", forgery_delay


def _sweep_cases():
    population = make_population(2)
    screens = [
        ("13 lcd", DEFAULT_ENVIRONMENT.replace(screen=LAPTOP_13_LCD)),
        ("6 phone", DEFAULT_ENVIRONMENT.replace(screen=PHONE_6_OLED, viewing_distance_m=0.1)),
    ]
    yield "run_screen_size", lambda: runner.run_screen_size(
        screens, population=population, config=CONFIG, clips_per_role=14, rounds=3, train_size=8
    )
    yield "run_ambient_light", lambda: runner.run_ambient_light(
        (50.0, 240.0), population=population, config=CONFIG, clips_per_role=14, rounds=3, train_size=8
    )
    yield "run_sampling_rate", lambda: runner.run_sampling_rate(
        (5.0, 10.0), population=population[:1], config=CONFIG,
        clips_per_role=14, rounds=3, train_size=8
    )


def _fault_matrix():
    from repro.api import run_fault_matrix

    return run_fault_matrix(
        severities=(0.0, 1.0), sessions_per_cell=1, duration_s=15.0,
        enroll_sessions=4, env=SMALL_ENV, seed=97,
    )


def _protocol_matrix():
    from repro.api import run_protocol_matrix

    return run_protocol_matrix(
        sessions_per_cell=1, clips=1, enroll_sessions=4, env=SMALL_ENV, seed=211
    )


def _session_digests():
    """sha256 of every pixel of one session per prover kind.

    Pixels are hashed as float64 values, whatever dtype the frame stores
    them in, so the digest pins pixel values, not their storage."""
    specs = [
        SessionSpec(kind, seed=5, processing_delay_s=0.5)
        for kind in ("genuine", "attack", "adaptive", "replay")
    ]
    digests = {}
    for spec, record in zip(specs, simulate_session_batch(specs, env=SMALL_ENV)):
        sha = hashlib.sha256()
        for frame in [*record.transmitted, *record.received]:
            sha.update(np.ascontiguousarray(frame.pixels, dtype=np.float64).tobytes())
        digests[spec.kind] = sha.hexdigest()
    return digests


def _chain_signals():
    """Seeded ragged luminance signals for the Sec. V chain: step pairs
    shaped like a screen challenge and its reflection at three clip
    lengths, plus noise rows as short as one sample."""
    rng = np.random.default_rng(28)
    signals = []
    for n in (150, 175, 200, 150, 175):
        t = np.full(n, 180.0)
        t[int(rng.integers(25, 55)) :] -= 50.0
        t[int(rng.integers(85, 120)) :] += 50.0
        delay = int(rng.integers(2, 6))
        r = 120.0 + rng.uniform(0.12, 0.4) * np.concatenate([np.full(delay, t[0]), t[:-delay]])
        signals += [t + rng.normal(0.0, 1.0, n), r + rng.normal(0.0, rng.uniform(0.3, 2.0), n)]
    for n in (1, 2, 5, 40, 150):
        signals.append(rng.uniform(0.0, 255.0, n))
    return signals


def _preprocess_chain():
    """Every intermediate of ``preprocess_batch`` (sha256 of its exact
    bytes) plus the peaks, on ragged signals with per-signal gates."""
    config = DetectorConfig()
    signals = _chain_signals()
    gates = [
        config.peak_prominence_screen if i % 2 == 0 else config.peak_prominence_face
        for i in range(len(signals))
    ]
    fields = ("raw", "lowpassed", "variance", "thresholded", "rms", "savgol", "smoothed")
    return [
        {
            **{name: hashlib.sha256(getattr(pre, name).tobytes()).hexdigest() for name in fields},
            "peaks": pre.peaks,
        }
        for pre in preprocess_batch(signals, config, gates)
    ]


def _cases() -> dict:
    return {
        **dict(_figure_cases()),
        **dict(_engine_cases()),
        **dict(_sweep_cases()),
        "run_fault_matrix": _fault_matrix,
        "run_protocol_matrix": _protocol_matrix,
        "session_digests": _session_digests,
        "preprocess_batch": _preprocess_chain,
    }


def _golden() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())


SWEEP_CASES = [name for name, _ in _sweep_cases()]
SIMULATED_CASES = ["run_fault_matrix", "run_protocol_matrix", "session_digests"]
CHAIN_CASES = ["preprocess_batch"]
FIGURE_CASES = [
    name for name in _cases() if name not in SWEEP_CASES + SIMULATED_CASES + CHAIN_CASES
]


@pytest.mark.parametrize("name", FIGURE_CASES)
def test_figure_runner_output_is_pinned(name):
    assert canonical(_cases()[name]()) == _golden()[name]


@pytest.mark.parametrize("name", SWEEP_CASES)
def test_environment_sweep_output_is_pinned(name, monkeypatch):
    monkeypatch.setattr(runner, "build_dataset", _fake_build_dataset)
    assert canonical(_cases()[name]()) == _golden()[name]


@pytest.mark.parametrize("name", SIMULATED_CASES)
def test_simulated_output_is_pinned(name):
    assert canonical(_cases()[name]()) == _golden()[name]


@pytest.mark.parametrize("name", CHAIN_CASES)
def test_signal_chain_output_is_pinned(name):
    assert canonical(_cases()[name]()) == _golden()[name]


def _record() -> None:
    runner_build = runner.build_dataset
    recorded = {}
    for name, fn in _cases().items():
        runner.build_dataset = _fake_build_dataset if name in SWEEP_CASES else runner_build
        recorded[name] = canonical(fn())
        print(f"recorded {name}")
    runner.build_dataset = runner_build
    GOLDEN_PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_outputs.py --write")
    _record()
