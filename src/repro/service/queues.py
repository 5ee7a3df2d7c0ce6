"""Bounded per-session frame queues with drop-oldest backpressure.

Each admitted session owns one :class:`FrameQueue`.  The ingest side
(load generator or network edge) pushes synchronously and never blocks:
when the queue is full the *oldest* buffered frame is discarded — for a
liveness check, a fresher frame is always worth more than a stale one,
and an unbounded queue would just convert overload into latency.  Drops
are counted so the SLO report can expose backpressure instead of hiding
it.

``close()`` enqueues the :data:`END_OF_STREAM` sentinel; consumers see
it after draining whatever real frames remain.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from .scheduler import TIMEOUT, Scheduler

__all__ = ["END_OF_STREAM", "FrameQueue"]


class _EndOfStream:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return "END_OF_STREAM"


#: Sentinel delivered once after the final frame of a session.
END_OF_STREAM = _EndOfStream()


class FrameQueue:
    """Single-producer single-consumer bounded queue, drop-oldest policy."""

    __slots__ = ("_scheduler", "_maxsize", "_items", "_getters", "dropped", "_closed")

    def __init__(self, scheduler: Scheduler, maxsize: int) -> None:
        if maxsize < 1:
            raise ValueError("FrameQueue needs maxsize >= 1")
        self._scheduler = scheduler
        self._maxsize = maxsize
        self._items: deque[Any] = deque()
        self._getters: deque[Any] = deque()
        self.dropped = 0
        self._closed = False

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Enqueue without blocking; sheds the oldest frame when full."""
        if self._closed:
            raise RuntimeError("put() on a closed FrameQueue")
        while self._getters:
            waiter = self._getters.popleft()
            if self._scheduler.resolve(waiter, item):
                return  # handed straight to a parked consumer
        if len(self._items) >= self._maxsize:
            self._items.popleft()
            self.dropped += 1
        self._items.append(item)

    def close(self) -> None:
        """Mark the stream finished; idempotent."""
        if self._closed:
            return
        self._closed = True
        while self._getters:
            waiter = self._getters.popleft()
            if self._scheduler.resolve(waiter, END_OF_STREAM):
                return
        self._items.append(END_OF_STREAM)

    async def get(self, timeout: float | None = None) -> Any:
        """Next frame, :data:`END_OF_STREAM`, or :data:`TIMEOUT` on stall."""
        if self._items:
            item = self._items.popleft()
            if item is END_OF_STREAM:
                self._items.appendleft(item)  # keep EOS observable forever
            return item
        if self._closed:
            return END_OF_STREAM
        waiter = self._scheduler.make_waiter()
        self._getters.append(waiter)
        result = await self._scheduler.park(waiter, timeout)
        if result is TIMEOUT:
            # Waiter may still sit in _getters; resolve() skips dead ones.
            return TIMEOUT
        return result
