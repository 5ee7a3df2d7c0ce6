"""Shared fixtures for the test suite.

Simulation-backed fixtures are deliberately short (6-9 s sessions, small
rasters) and session-scoped, so the suite stays fast while still
exercising every real code path end to end.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core.config import DetectorConfig
from repro.experiments.profiles import Environment
from repro.experiments.simulate import (
    default_user,
    simulate_attack_session,
    simulate_genuine_session,
)
from repro.video.frame import Frame
from repro.vision.expression import PoseState
from repro.vision.face_model import make_face
from repro.vision.renderer import FaceRenderer


def blank_frame(
    height: int,
    width: int,
    value: float = 0.0,
    timestamp: float = 0.0,
) -> Frame:
    """A uniform float64 frame, the suite's basic video fixture."""
    if height <= 0 or width <= 0:
        raise ValueError("frame dimensions must be positive")
    pixels = np.full((height, width, 3), float(value), dtype=np.float64)
    return Frame(pixels=pixels, timestamp=timestamp)


def pytest_sessionstart(session):
    session.config._repro_session_t0 = time.perf_counter()  # reprolint: disable=R002


def pytest_sessionfinish(session, exitstatus):
    """Keep the tier-1 suite fast: fail the run if it blows the budget.

    The budget is wall-clock seconds for the whole session, overridable
    via ``REPRO_TIER1_BUDGET_S`` (generous default so only a real
    regression — e.g. a test accidentally simulating full-scale datasets
    — trips it, not machine-to-machine noise).
    """
    start = getattr(session.config, "_repro_session_t0", None)
    if start is None:
        return
    budget_s = float(os.environ.get("REPRO_TIER1_BUDGET_S", "900"))
    elapsed = time.perf_counter() - start  # reprolint: disable=R002
    if elapsed > budget_s:
        session.exitstatus = 1
        print(
            f"\ntier-1 runtime budget exceeded: {elapsed:.1f}s > {budget_s:.0f}s "
            "(set REPRO_TIER1_BUDGET_S to override)"
        )


@pytest.fixture
def pool_cpus(monkeypatch):
    """Report four usable CPUs.  ``ExecutionEngine`` clamps ``jobs`` to
    the CPUs the process may run on, so without this a pool-vs-serial
    test on a one- or two-CPU host would compare serial with serial."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)


@pytest.fixture(scope="session")
def config() -> DetectorConfig:
    """The paper's configuration."""
    return DetectorConfig()


@pytest.fixture(scope="session")
def fast_env() -> Environment:
    """A small-raster environment for quick simulations."""
    return Environment(frame_size=(72, 72), verifier_frame_size=(48, 48))


@pytest.fixture(scope="session")
def genuine_record(fast_env):
    """One 15-second genuine chat session (shared, read-only)."""
    return simulate_genuine_session(duration_s=15.0, seed=404, env=fast_env)


@pytest.fixture(scope="session")
def attack_record(fast_env):
    """One 15-second reenactment-attack session (shared, read-only)."""
    return simulate_attack_session(duration_s=15.0, seed=405, env=fast_env)


@pytest.fixture(scope="session")
def step_signal() -> np.ndarray:
    """A clean two-step luminance signal at 10 Hz (15 s, steps at 4 s
    and 11 s) — the canonical 'two challenges' clip."""
    x = np.full(150, 180.0)
    x[40:] -= 50.0
    x[110:] += 50.0
    return x


@pytest.fixture(scope="session")
def reflected_signal(step_signal) -> np.ndarray:
    """The step signal as a (scaled, delayed, noisy) face reflection."""
    rng = np.random.default_rng(99)
    delayed = np.concatenate([np.full(4, step_signal[0]), step_signal[:-4]])
    return 120.0 + 0.3 * delayed + rng.normal(0.0, 0.4, delayed.size)


@pytest.fixture()
def neutral_pose() -> PoseState:
    """A centered, expressionless pose."""
    return PoseState(
        center_x=0.5, center_y=0.48, scale=0.3, roll=0.0, blink=0.0, mouth_open=0.0
    )


@pytest.fixture()
def renderer() -> FaceRenderer:
    """A small renderer over a light-skinned face."""
    face = make_face("test_face", tone="light", rng=np.random.default_rng(3))
    return FaceRenderer(face, height=72, width=72, seed=5)
