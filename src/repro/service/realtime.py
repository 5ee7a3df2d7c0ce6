"""Wall-clock scheduler for live serving.

This module is the service's **only** wall-clock site: it is listed in
the reprolint ``wall-clock-allowlist`` so R002/R008 keep every other
service module honest about going through the :class:`Scheduler`
abstraction.  It is also the only service module that imports asyncio:
everything here is a thin mapping of the scheduler primitives onto real
asyncio time — no business logic.

Live deployments construct :class:`RealTimeScheduler`; tests, the
benchmark, and ``repro loadtest`` default to the deterministic
:class:`~repro.service.scheduler.VirtualScheduler`.
"""

from __future__ import annotations

import asyncio
import time
from collections.abc import Coroutine
from typing import Any

from .scheduler import TIMEOUT, Scheduler, TaskHandle

__all__ = ["FutureWaiter", "RealTimeScheduler"]


class FutureWaiter:
    """One parked task's wake-up slot in wall-clock time: a future."""

    __slots__ = ("fut",)

    def __init__(self) -> None:
        self.fut: asyncio.Future = asyncio.get_running_loop().create_future()


class RealTimeScheduler(Scheduler):
    """Scheduler regime backed by ``time.monotonic`` and asyncio timers."""

    def __init__(self) -> None:
        # The loop holds tasks weakly; these references keep them alive.
        self._tasks: set[asyncio.Task] = set()

    def now(self) -> float:
        return time.monotonic()

    async def sleep(self, delay: float) -> None:
        await asyncio.sleep(max(delay, 0.0))

    def make_waiter(self) -> FutureWaiter:
        return FutureWaiter()

    async def park(self, waiter: FutureWaiter, timeout: float | None = None) -> Any:
        if timeout is None:
            return await waiter.fut
        try:
            return await asyncio.wait_for(asyncio.shield(waiter.fut), timeout)
        except asyncio.TimeoutError:
            if waiter.fut.done():  # resolved in the same tick as expiry
                return waiter.fut.result()
            waiter.fut.cancel()
            return TIMEOUT

    def resolve(self, waiter: FutureWaiter, value: Any) -> bool:
        # A cancelled future (timed-out park) counts as already fired.
        if waiter.fut.done():
            return False
        waiter.fut.set_result(value)
        return True

    def spawn(self, coro: Coroutine, name: str = "task") -> TaskHandle:
        handle = TaskHandle(self, name)
        task = asyncio.get_running_loop().create_task(handle._capture(coro), name=name)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return handle

    def run(self, main: Coroutine, wall_guard_s: float | None = None) -> Any:
        if wall_guard_s is None:
            return asyncio.run(main)

        async def _guarded() -> Any:
            return await asyncio.wait_for(main, wall_guard_s)

        return asyncio.run(_guarded())
