"""Cooperative time source for the verification service.

Everything in :mod:`repro.service` that waits — frame queues, admission
slots, deadlines, pacing sleeps — waits through a :class:`Scheduler`, so
one service codebase runs in two very different time regimes:

* :class:`VirtualScheduler` — a deterministic discrete-event mode with
  no event loop.  It is a trampoline: it resumes every service coroutine
  itself with ``coro.send(value)``, in the FIFO order of a ready deque,
  and each coroutine suspends by yielding a :class:`Waiter` slot.  Time
  is a :class:`~repro.obs.clock.ManualClock` advanced only when the
  ready deque is empty, i.e. when *every* task is parked on a slot; due
  timers then fire strictly in ``(deadline, registration)`` order.  Two
  runs of the same workload execute the same event sequence, at any
  concurrency — the property the ``loadtest`` pool-vs-serial identity
  check pins down.
* :class:`~repro.service.realtime.RealTimeScheduler` — plain asyncio
  against the wall clock, for actually serving live traffic.  It lives
  in its own module because it is the service's one blessed wall-clock
  site (reprolint R002/R008 allowlist), and it is the only module of the
  service that imports asyncio.

The scheduler also owns task lifecycle (:meth:`Scheduler.spawn` /
:class:`TaskHandle.join`): spawned coroutines never leak exceptions out
of the driver — failures are captured on the handle and re-raised at
join time, which is how the service guarantees "zero unhandled task
exceptions" under chaos.

Design rule for service code: a registered task may only suspend through
scheduler primitives (``sleep``, ``park``, ``join``, the lock/queue
built on them).  reprolint R012 checks this statically; at run time the
virtual driver raises :class:`ForeignAwaitError` the moment a task
yields anything but a :class:`Waiter`.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Coroutine
from heapq import heappop, heappush
from typing import Any

from ..obs.clock import ManualClock, MonotonicClock

__all__ = [
    "ForeignAwaitError",
    "Scheduler",
    "ServiceLock",
    "TIMEOUT",
    "TaskHandle",
    "VirtualScheduler",
    "Waiter",
]


class _Timeout:
    """Sentinel returned by :meth:`Scheduler.park` on expiry."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return "TIMEOUT"


#: The unique timeout sentinel (never a legitimate queue item).
TIMEOUT = _Timeout()


class ForeignAwaitError(RuntimeError):
    """A virtual-time task awaited something other than a scheduler slot."""


class Waiter:
    """One parked task's wake-up slot in virtual time.

    Awaiting an unfired slot yields the slot itself to the driver, which
    records the awaiting coroutine in ``task``; resolving the slot fires
    it and queues that coroutine with the value.  A slot that wakes a
    parked task this way hands the value over and keeps none (nor the
    task).  Only a slot resolved before anyone awaits it stores the value
    in ``value``, and awaiting it returns that without suspending.
    """

    __slots__ = ("fired", "value", "task")

    def __init__(self) -> None:
        self.fired = False
        self.value: Any = None
        self.task: Coroutine | None = None

    def __await__(self):
        if self.fired:
            return self.value
        return (yield self)


class TaskHandle:
    """Join handle of a spawned service task.

    The wrapped coroutine's result (or exception) is delivered through
    :meth:`join`; joining is itself a scheduler park, so virtual time
    keeps flowing while a task waits for another.
    """

    __slots__ = ("name", "_scheduler", "_done", "_result", "_error", "_joiners")

    def __init__(self, scheduler: "Scheduler", name: str) -> None:
        self.name = name
        self._scheduler = scheduler
        self._done = False
        self._result: Any = None
        self._error: BaseException | None = None
        self._joiners: list[Any] = []

    @property
    def done(self) -> bool:
        return self._done

    async def _capture(self, coro: Coroutine) -> None:
        """Run ``coro`` to its end and keep its outcome for :meth:`join`."""
        result, error = None, None
        try:
            result = await coro
        except Exception as exc:  # noqa: BLE001 - delivered at join()
            error = exc
        finally:
            self._finish(result, error)

    def _finish(self, result: Any, error: BaseException | None) -> None:
        self._done = True
        self._result = result
        self._error = error
        joiners, self._joiners = self._joiners, []
        for waiter in joiners:
            self._scheduler.resolve(waiter, None)

    async def join(self) -> Any:
        """Wait for the task; returns its result or re-raises its error."""
        if not self._done:
            waiter = self._scheduler.make_waiter()
            self._joiners.append(waiter)
            await self._scheduler.park(waiter)
        if self._error is not None:
            raise self._error
        return self._result


class Scheduler:
    """The time-regime interface the service is written against."""

    def now(self) -> float:
        raise NotImplementedError

    async def sleep(self, delay: float) -> None:
        raise NotImplementedError

    async def park(self, waiter: Any, timeout: float | None = None) -> Any:
        """Suspend until ``waiter`` is resolved; :data:`TIMEOUT` on expiry."""
        raise NotImplementedError

    def run(self, main: Coroutine, wall_guard_s: float | None = None) -> Any:
        """Drive ``main`` (and everything it spawns) to completion.

        ``wall_guard_s`` bounds the *wall-clock* run time: a wedged or
        livelocked run surfaces as ``TimeoutError`` instead of hanging
        forever — the tests' no-hang safety net.
        """
        raise NotImplementedError

    def make_waiter(self) -> Any:
        """A fresh wake-up slot for :meth:`park`."""
        raise NotImplementedError

    def resolve(self, waiter: Any, value: Any) -> bool:
        """Wake a parked task; False when the waiter already fired
        (timed out or was woken by someone else)."""
        raise NotImplementedError

    def spawn(self, coro: Coroutine, name: str = "task") -> TaskHandle:
        """Start a service task; its outcome is read back via ``join``."""
        raise NotImplementedError


#: Virtual delays snap to this dyadic grid (2^-20 s, ~0.95 µs).  Dyadic
#: rationals of bounded magnitude are exact in binary floating point, so
#: every virtual timestamp is a sum of exact terms and every duration
#: (end - start) is translation-invariant: a session measures the same
#: duration bit-for-bit whether it ran alone or among hundreds — the
#: property that keeps the concurrent-vs-serial latency histograms
#: byte-identical.
_TIME_GRID = float(1 << 20)

#: Resumes between two reads of the wall clock by the wall guard.
_GUARD_STRIDE = 1024


def _quantize(delay: float) -> float:
    return round(delay * _TIME_GRID) / _TIME_GRID


class VirtualScheduler(Scheduler):
    """Deterministic discrete-event scheduler over a :class:`ManualClock`.

    The driver (:meth:`run`) alternates two phases: resume ready tasks
    in FIFO order until the ready deque is empty (every task is parked),
    then pop the earliest pending timer, advance the manual clock to it,
    and queue its owner.  A task joins the ready deque when it is
    spawned and when a slot it is parked on is resolved — the order in
    which asyncio's ``call_soon`` would run the same tasks.  Ties on the
    deadline break by registration order, so the event sequence is a
    pure function of the workload — wall time never enters.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._clock = ManualClock(start)
        self._timers: list[tuple[float, int, Waiter]] = []
        self._seq = 0
        self._ready: deque[tuple[Coroutine, Any]] = deque()
        # Unfinished tasks: the driven coroutine -> its handle and the
        # spawned coroutine it wraps.
        self._live: dict[Coroutine, tuple[TaskHandle, Coroutine]] = {}

    def now(self) -> float:
        return self._clock.now()

    @property
    def clock(self) -> ManualClock:
        """The underlying manual clock (for e.g. a virtual-time tracer)."""
        return self._clock

    # -- tasks and slots -----------------------------------------------

    def make_waiter(self) -> Waiter:
        return Waiter()

    def resolve(self, waiter: Waiter, value: Any) -> bool:
        """Fire ``waiter`` with ``value``; False when it already fired.

        A slot with a parked task hands ``value`` to that task through
        the ready deque and keeps neither: its pending timer entry, if
        any, may sit in the heap until its deadline, and must not hold a
        delivered frame alive that long.  Only a slot resolved before
        anyone awaits it stores the value, for ``Waiter.__await__``.
        """
        if waiter.fired:
            return False
        waiter.fired = True
        task = waiter.task
        if task is None:
            waiter.value = value
        else:
            waiter.task = None
            self._ready.append((task, value))
        return True

    def spawn(self, coro: Coroutine, name: str = "task") -> TaskHandle:
        handle = TaskHandle(self, name)
        task = handle._capture(coro)
        self._live[task] = (handle, coro)
        self._ready.append((task, None))
        return handle

    # -- primitives ----------------------------------------------------

    def _register_timer(self, deadline: float, waiter: Waiter) -> None:
        self._seq += 1
        heappush(self._timers, (deadline, self._seq, waiter))

    async def park(self, waiter: Waiter, timeout: float | None = None) -> Any:
        if timeout is not None:
            self._register_timer(self._clock.now() + _quantize(timeout), waiter)
        return await waiter

    async def sleep(self, delay: float) -> None:
        waiter = Waiter()
        self._register_timer(self._clock.now() + _quantize(max(delay, 0.0)), waiter)
        await waiter

    # -- the driver ----------------------------------------------------

    def run(self, main: Coroutine, wall_guard_s: float | None = None) -> Any:
        handle = self.spawn(main, name="main")
        ready, live, timers, clock = self._ready, self._live, self._timers, self._clock
        if wall_guard_s is not None:
            wall = MonotonicClock()
            give_up = wall.now() + wall_guard_s
        countdown = _GUARD_STRIDE
        try:
            while True:
                while ready:
                    task, value = ready.popleft()
                    try:
                        slot = task.send(value)
                    except StopIteration:
                        del live[task]
                        continue
                    if type(slot) is not Waiter:
                        raise ForeignAwaitError(
                            f"task {live[task][0].name!r} awaited {slot!r}, which is "
                            "not a scheduler slot: only scheduler primitives may "
                            "suspend a task in virtual time"
                        )
                    slot.task = task
                    countdown -= 1
                    if not countdown:
                        countdown = _GUARD_STRIDE
                        if wall_guard_s is not None and wall.now() > give_up:
                            raise TimeoutError(
                                f"virtual-time run exceeded its {wall_guard_s} s "
                                "wall guard"
                            )
                if handle.done:
                    break
                # Every task is parked: fire the earliest live timer.
                while True:
                    if not timers:
                        raise RuntimeError(
                            "virtual-time deadlock: every task is parked and no "
                            "timer is pending — some wait is missing its timeout"
                        )
                    deadline, _, waiter = heappop(timers)
                    if not waiter.fired:
                        break  # fired ones were woken early (e.g. queue put)
                if deadline > clock.now():
                    clock.advance(deadline - clock.now())
                self.resolve(waiter, TIMEOUT)
        finally:
            self._close_pending()
        if handle._error is not None:
            raise handle._error
        return handle._result

    def _close_pending(self) -> None:
        """Close every unfinished task so its ``finally`` blocks run, and
        drop the queues that could still resume one."""
        pending = list(self._live.items())
        self._live.clear()
        for task, (_, coro) in pending:
            task.close()
            coro.close()  # a task that never started never awaited it
        self._ready.clear()
        self._timers.clear()


class ServiceLock:
    """FIFO mutex built on scheduler parks (fair across sessions).

    ``asyncio.Lock`` would park tasks where the virtual driver cannot
    see them; this lock routes contention through the scheduler so a
    blocked fit request is just another parked task.
    """

    __slots__ = ("_scheduler", "_locked", "_waiters")

    def __init__(self, scheduler: Scheduler) -> None:
        self._scheduler = scheduler
        self._locked = False
        self._waiters: deque[Any] = deque()

    @property
    def locked(self) -> bool:
        return self._locked

    async def acquire(self) -> None:
        if not self._locked:
            self._locked = True
            return
        waiter = self._scheduler.make_waiter()
        self._waiters.append(waiter)
        # Woken directly into ownership: release() hands the lock over
        # without ever marking it free (no thundering herd).
        await self._scheduler.park(waiter)

    def release(self) -> None:
        if not self._locked:
            raise RuntimeError("release of an unheld ServiceLock")
        while self._waiters:
            waiter = self._waiters.popleft()
            if self._scheduler.resolve(waiter, True):
                return
        self._locked = False

    async def __aenter__(self) -> "ServiceLock":
        await self.acquire()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        self.release()
