"""FrameQueue: bounded, drop-oldest, never blocks the producer."""

import pytest

from repro.service import END_OF_STREAM, FrameQueue, TIMEOUT

from .conftest import run_guarded


class TestBackpressure:
    def test_drop_oldest_when_full(self, sched):
        queue = FrameQueue(sched, maxsize=3)
        for i in range(5):
            queue.put(i)
        assert len(queue) == 3
        assert queue.dropped == 2

        async def drain():
            return [await queue.get() for _ in range(3)]

        # The two oldest frames were shed; the freshest three survive.
        assert run_guarded(sched, drain()) == [2, 3, 4]

    def test_put_hands_straight_to_a_parked_getter(self, sched):
        queue = FrameQueue(sched, maxsize=1)

        async def consumer():
            return await queue.get(timeout=10.0)

        async def main():
            handle = sched.spawn(consumer(), name="consumer")
            await sched.sleep(0.1)  # let the consumer park
            queue.put("frame")
            assert len(queue) == 0  # bypassed the buffer entirely
            return await handle.join()

        assert run_guarded(sched, main()) == "frame"
        assert queue.dropped == 0

    def test_get_timeout_returns_sentinel(self, sched):
        queue = FrameQueue(sched, maxsize=1)

        async def main():
            result = await queue.get(timeout=1.5)
            return result, sched.now()

        result, now = run_guarded(sched, main())
        assert result is TIMEOUT
        assert now == 1.5  # reprolint: disable=R004

    def test_maxsize_validation(self, sched):
        with pytest.raises(ValueError):
            FrameQueue(sched, maxsize=0)


class TestEndOfStream:
    def test_close_delivers_eos_after_buffered_frames(self, sched):
        queue = FrameQueue(sched, maxsize=4)
        queue.put("a")
        queue.put("b")
        queue.close()

        async def drain():
            return [await queue.get() for _ in range(3)]

        assert run_guarded(sched, drain()) == ["a", "b", END_OF_STREAM]

    def test_eos_is_observable_forever(self, sched):
        queue = FrameQueue(sched, maxsize=2)
        queue.close()

        async def main():
            return [await queue.get() for _ in range(3)]

        assert run_guarded(sched, main()) == [END_OF_STREAM] * 3

    def test_close_wakes_a_parked_getter(self, sched):
        queue = FrameQueue(sched, maxsize=2)

        async def consumer():
            return await queue.get(timeout=10.0)

        async def main():
            handle = sched.spawn(consumer(), name="consumer")
            await sched.sleep(0.1)
            queue.close()
            return await handle.join()

        assert run_guarded(sched, main()) is END_OF_STREAM

    def test_close_is_idempotent_and_put_after_close_raises(self, sched):
        queue = FrameQueue(sched, maxsize=2)
        queue.close()
        queue.close()
        assert queue._closed
        with pytest.raises(RuntimeError, match="closed"):
            queue.put("late")
