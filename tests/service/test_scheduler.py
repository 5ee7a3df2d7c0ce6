"""VirtualScheduler semantics: deterministic discrete-event time."""

import asyncio
import gc
import warnings
import weakref

import numpy as np
import pytest

from repro.service import TIMEOUT, ForeignAwaitError, ServiceLock, VirtualScheduler
from repro.service.scheduler import _TIME_GRID

from .conftest import run_guarded


class TestVirtualTime:
    def test_sleep_advances_virtual_time_exactly(self, sched):
        async def main():
            await sched.sleep(5.0)
            return sched.now()

        assert run_guarded(sched, main()) == 5.0  # reprolint: disable=R004

    def test_events_fire_in_deadline_order(self, sched):
        order = []

        async def sleeper(name, delay):
            await sched.sleep(delay)
            order.append((name, sched.now()))

        async def main():
            handles = [
                sched.spawn(sleeper("c", 3.0), name="c"),
                sched.spawn(sleeper("a", 1.0), name="a"),
                sched.spawn(sleeper("b", 2.0), name="b"),
            ]
            for handle in handles:
                await handle.join()

        run_guarded(sched, main())
        assert order == [("a", 1.0), ("b", 2.0), ("c", 3.0)]

    def test_deadline_ties_break_by_registration_order(self, sched):
        order = []

        async def sleeper(name):
            await sched.sleep(1.0)
            order.append(name)

        async def main():
            handles = [sched.spawn(sleeper(n), name=n) for n in "abcd"]
            for handle in handles:
                await handle.join()

        run_guarded(sched, main())
        assert order == list("abcd")

    def test_timestamps_stay_on_the_dyadic_grid(self, sched):
        """Every virtual instant is exact in binary floating point, so
        durations are translation-invariant — the bit-identity backbone."""

        async def main():
            for delay in (0.1, 0.0013, 3.3333, 0.0601):
                await sched.sleep(delay)
            return sched.now()

        now = run_guarded(sched, main())
        assert (now * _TIME_GRID).is_integer()

    def test_run_result_and_exception_propagation(self, sched):
        async def boom():
            await sched.sleep(1.0)
            raise ValueError("scripted failure")

        with pytest.raises(ValueError, match="scripted failure"):
            run_guarded(sched, boom())


class TestParkAndJoin:
    def test_park_timeout_returns_sentinel_and_advances_clock(self, sched):
        async def main():
            waiter = sched.make_waiter()
            result = await sched.park(waiter, timeout=2.5)
            return result, sched.now()

        result, now = run_guarded(sched, main())
        assert result is TIMEOUT
        assert now == 2.5  # reprolint: disable=R004

    def test_resolved_park_beats_its_timer(self, sched):
        async def main():
            waiter = sched.make_waiter()

            async def resolver():
                await sched.sleep(1.0)
                sched.resolve(waiter, "payload")

            sched.spawn(resolver(), name="resolver")
            result = await sched.park(waiter, timeout=100.0)
            return result, sched.now()

        result, now = run_guarded(sched, main())
        assert result == "payload"
        # The stale 100 s timer is lazily discarded.
        assert now == 1.0  # reprolint: disable=R004

    def test_resolved_park_keeps_no_payload_until_its_timer(self, sched):
        """A slot that wakes a parked task hands its value over: once the
        task drops the payload it is gone, although the slot's timer
        entry still sits in the heap until its deadline."""
        waiter = sched.make_waiter()

        async def resolver():
            await sched.sleep(1.0)
            sched.resolve(waiter, np.zeros(8))

        async def main():
            sched.spawn(resolver(), name="resolver")
            payload = await sched.park(waiter, timeout=100.0)
            ref = weakref.ref(payload)
            del payload
            # Resume once more, so the driver's own last-sent value is gone.
            await sched.sleep(1.0)
            gc.collect()
            pending = any(slot is waiter for _, _, slot in sched._timers)
            return ref() is None, pending, sched.now()

        dead, pending, now = run_guarded(sched, main())
        assert pending and now == 2.0  # reprolint: disable=R004
        assert dead

    def test_join_returns_result(self, sched):
        async def worker():
            await sched.sleep(1.0)
            return 41 + 1

        async def main():
            handle = sched.spawn(worker(), name="worker")
            return await handle.join()

        assert run_guarded(sched, main()) == 42

    def test_join_reraises_task_error_nothing_unhandled(self, sched):
        """Spawned failures are captured and delivered at join() — the
        'zero unhandled task exceptions' guarantee."""

        async def worker():
            await sched.sleep(1.0)
            raise RuntimeError("worker died")

        async def main():
            handle = sched.spawn(worker(), name="worker")
            with pytest.raises(RuntimeError, match="worker died"):
                await handle.join()
            return handle.done

        assert run_guarded(sched, main()) is True

    def test_join_after_completion_is_immediate(self, sched):
        async def worker():
            return "done"

        async def main():
            handle = sched.spawn(worker(), name="worker")
            await sched.sleep(1.0)
            assert handle.done
            return await handle.join()

        assert run_guarded(sched, main()) == "done"

    def test_virtual_deadlock_is_detected_not_hung(self, sched):
        """A wait with no timeout and no resolver is a bug; the driver
        names it instead of spinning forever."""

        async def main():
            waiter = sched.make_waiter()
            await sched.park(waiter)  # nobody will ever resolve this

        with pytest.raises(RuntimeError, match="virtual-time deadlock"):
            run_guarded(sched, main())


class TestWallGuardAndForeignAwaits:
    """Runs that never finish, and suspensions the driver cannot see,
    fail loudly instead of hanging the process."""

    def test_wall_guard_stops_a_sleep_zero_livelock(self, sched):
        """Every turn fires a timer but virtual time never advances."""

        async def spin():
            while True:
                await sched.sleep(0)

        with pytest.raises(TimeoutError, match="wall guard"):
            sched.run(spin(), wall_guard_s=0.2)

    def test_wall_guard_stops_a_resolve_ping_pong_without_timers(self, sched):
        """Two tasks wake each other forever: the ready deque never
        empties, so no timer ever fires."""

        async def player(inbox, outbox):
            while True:
                waiter = sched.make_waiter()
                inbox.append(waiter)
                await sched.park(waiter)
                sched.resolve(outbox.pop(), None)

        async def main():
            ping, pong = [], []
            first = sched.spawn(player(ping, pong), name="ping")
            second = sched.spawn(player(pong, ping), name="pong")
            await sched.sleep(0)  # both parked: serve the first ball
            sched.resolve(ping.pop(), None)
            await first.join()
            await second.join()

        with pytest.raises(TimeoutError, match="wall guard"):
            sched.run(main(), wall_guard_s=0.2)

    def test_foreign_await_raises_the_named_error(self, sched):
        closed = []

        async def stray():
            try:
                await asyncio.sleep(0)
            finally:
                closed.append("stray")

        async def never_started():
            closed.append("never started")

        async def main():
            handle = sched.spawn(stray(), name="stray")
            sched.spawn(never_started(), name="late")  # queued behind stray
            await handle.join()

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ForeignAwaitError, match="task 'stray' awaited None"):
                run_guarded(sched, main())
            gc.collect()
        # The pending tasks were closed: the parked one ran its finally
        # block, the unstarted one is not reported as never awaited.
        assert closed == ["stray"]
        assert not [w for w in caught if "never awaited" in str(w.message)]

    def test_deadlock_closes_parked_tasks(self, sched):
        closed = []

        async def stuck():
            try:
                await sched.park(sched.make_waiter())
            finally:
                closed.append("stuck")

        async def main():
            await sched.spawn(stuck(), name="stuck").join()

        with pytest.raises(RuntimeError, match="virtual-time deadlock"):
            run_guarded(sched, main())
        assert closed == ["stuck"]

    def test_tasks_still_parked_when_main_returns_are_closed(self, sched):
        closed = []

        async def lingering():
            try:
                await sched.sleep(100.0)
            finally:
                closed.append(sched.now())

        async def main():
            sched.spawn(lingering(), name="lingering")
            await sched.sleep(1.0)
            return "done"

        assert run_guarded(sched, main()) == "done"
        assert closed == [1.0]  # closed at once, its timer never fired


class TestServiceLock:
    def test_mutual_exclusion_and_fifo_handoff(self, sched):
        order = []
        lock = ServiceLock(sched)

        async def worker(name):
            async with lock:
                order.append(name)
                await sched.sleep(1.0)

        async def main():
            handles = [sched.spawn(worker(n), name=n) for n in "abc"]
            for handle in handles:
                await handle.join()
            return lock.locked

        assert run_guarded(sched, main()) is False
        assert order == list("abc")

    def test_release_unheld_lock_raises(self, sched):
        lock = ServiceLock(sched)
        with pytest.raises(RuntimeError, match="unheld"):
            lock.release()

    def test_handoff_never_marks_the_lock_free(self, sched):
        lock = ServiceLock(sched)
        observed = []

        async def second():
            async with lock:
                observed.append(lock.locked)

        async def main():
            await lock.acquire()
            handle = sched.spawn(second(), name="second")
            await sched.sleep(1.0)
            lock.release()  # handed directly to `second`
            await handle.join()

        run_guarded(sched, main())
        assert observed == [True]
