"""The asyncio-driven virtual scheduler, kept as a test oracle.

:class:`AsyncioVirtualScheduler` is the discrete-event driver the
service ran on before :class:`~repro.service.VirtualScheduler` became a
coroutine trampoline: every task is an ``asyncio.Task``, every wake-up
slot an ``asyncio.Future``, and a ``_drive`` task fires the next virtual
timer whenever every registered task is parked.  The resume order it
produces is the FIFO order of asyncio's ``call_soon``;
``test_driver_oracle.py`` asserts the trampoline reproduces it exactly.
"""

from __future__ import annotations

import asyncio
import heapq
from collections.abc import Coroutine
from typing import Any

from repro.obs.clock import ManualClock
from repro.service.scheduler import TIMEOUT, Scheduler, TaskHandle, _quantize


class FutureWaiter:
    """One parked task's wake-up slot (a future)."""

    __slots__ = ("fut",)

    def __init__(self) -> None:
        self.fut: asyncio.Future = asyncio.get_running_loop().create_future()


class AsyncioVirtualScheduler(Scheduler):
    """Virtual time over a :class:`ManualClock`, driven by asyncio."""

    def __init__(self, start: float = 0.0) -> None:
        self._clock = ManualClock(start)
        self._timers: list[tuple[float, int, FutureWaiter]] = []
        self._seq = 0
        self._tasks = 0  # live registered tasks
        self._parked = 0  # of which: awaiting an unresolved waiter
        self._idle: asyncio.Event | None = None

    def now(self) -> float:
        return self._clock.now()

    @property
    def clock(self) -> ManualClock:
        return self._clock

    # -- task and waiter machinery -------------------------------------

    def make_waiter(self) -> FutureWaiter:
        return FutureWaiter()

    def resolve(self, waiter: FutureWaiter, value: Any) -> bool:
        if waiter.fut.done():
            return False
        waiter.fut.set_result(value)
        self._parked -= 1
        return True

    def spawn(self, coro: Coroutine, name: str = "task") -> TaskHandle:
        handle = TaskHandle(self, name)
        self._tasks += 1

        async def _wrapped() -> None:
            result, error = None, None
            try:
                result = await coro
            except Exception as exc:  # noqa: BLE001 - delivered at join()
                error = exc
            finally:
                self._tasks -= 1
                self._maybe_idle()
                handle._finish(result, error)

        asyncio.get_running_loop().create_task(_wrapped(), name=name)
        return handle

    def _maybe_idle(self) -> None:
        if self._idle is not None and self._parked == self._tasks:
            self._idle.set()

    # -- primitives ----------------------------------------------------

    def _register_timer(self, deadline: float, waiter: FutureWaiter) -> None:
        self._seq += 1
        heapq.heappush(self._timers, (deadline, self._seq, waiter))

    async def park(self, waiter: FutureWaiter, timeout: float | None = None) -> Any:
        if timeout is not None:
            self._register_timer(self.now() + _quantize(timeout), waiter)
        self._parked += 1
        self._maybe_idle()
        return await waiter.fut

    async def sleep(self, delay: float) -> None:
        waiter = self.make_waiter()
        self._register_timer(self.now() + _quantize(max(delay, 0.0)), waiter)
        self._parked += 1
        self._maybe_idle()
        await waiter.fut

    # -- the driver ----------------------------------------------------

    def _fire_next_timer(self) -> None:
        while self._timers:
            deadline, _, waiter = heapq.heappop(self._timers)
            if waiter.fut.done():
                continue
            if deadline > self.now():
                self._clock.advance(deadline - self.now())
            self.resolve(waiter, TIMEOUT)
            return
        raise RuntimeError(
            "virtual-time deadlock: every task is parked and no timer is "
            "pending — some wait is missing its timeout"
        )

    def run(self, main: Coroutine, wall_guard_s: float | None = None) -> Any:
        async def _guarded() -> Any:
            return await asyncio.wait_for(self._drive(main), wall_guard_s)

        return asyncio.run(_guarded())

    async def _drive(self, main: Coroutine) -> Any:
        self._idle = asyncio.Event()
        handle = self.spawn(main, name="main")
        while not handle.done:
            if self._parked != self._tasks:
                self._idle.clear()
                await self._idle.wait()
                continue
            self._fire_next_timer()
            self._idle.clear()
            await asyncio.sleep(0)
        self._idle = None
        return await handle.join()
