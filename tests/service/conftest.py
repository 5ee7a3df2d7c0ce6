"""Shared fixtures for the service-layer tests.

``run_guarded`` is the suite's no-hang safety net: every scheduler run
is bounded by a wall guard (``wall_guard_s``), so a service bug that
livelocks the virtual driver fails the test with ``TimeoutError``
instead of hanging the session.  A task that suspends on anything but a
scheduler slot fails at once with ``ForeignAwaitError``.
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from repro.service import VirtualScheduler

#: Generous wall-clock bound for virtual-time runs (they finish in
#: milliseconds unless something is wedged).
WALL_GUARD_S = 60.0


def run_guarded(scheduler, coro, wall_guard_s: float = WALL_GUARD_S):
    """Drive ``coro`` on ``scheduler``; fail (not hang) if it wedges."""
    return scheduler.run(coro, wall_guard_s=wall_guard_s)


def synthetic_bank(tenant_id: str, clips: int = 12) -> np.ndarray:
    """A deterministic ``(clips, 4)`` feature bank, cheap to fit.

    Seeded from ``crc32`` of the tenant id (the builtin ``hash`` is
    salted per process) so every test run sees the same banks.
    """
    rng = np.random.default_rng([zlib.crc32(tenant_id.encode()), 0x2BA7])
    base = np.array([0.85, 0.4, 0.9, 0.3])
    return base + rng.normal(0.0, 0.05, size=(clips, 4))


@pytest.fixture
def sched() -> VirtualScheduler:
    return VirtualScheduler()
