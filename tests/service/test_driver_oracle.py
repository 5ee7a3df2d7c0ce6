"""Oracle: the trampoline driver resumes tasks exactly as asyncio did.

:class:`~repro.service.VirtualScheduler` resumes service coroutines
itself; :class:`~.asyncio_reference.AsyncioVirtualScheduler` is the
asyncio-driven scheduler it replaced.  Both run the same workloads here
with every spawned coroutine wrapped in a tracer that logs one
``(task name, virtual time, resumed value)`` entry per resume.  The two
logs, the outcomes and the merged metrics must be equal.  The loadtest
mix also bounds the trampoline's traced memory peak: a resolved slot
keeps no frame it delivered.
"""

from __future__ import annotations

import tracemalloc
import zlib

import numpy as np
import pytest

from repro.obs import Instrumentation
from repro.protocol import ProtocolConfig
from repro.service import (
    ServerConfig,
    VerificationServer,
    VirtualScheduler,
    WorkloadConfig,
    make_tenant_bank_provider,
    run_workload,
)
from repro.service.scheduler import Waiter
from repro.video.frame import Frame

from .asyncio_reference import AsyncioVirtualScheduler
from .conftest import WALL_GUARD_S

#: A spawned task's first resume (it has no slot to read a value from).
STARTED = "started"


def _describe(value):
    """A comparable stand-in for a resumed value (frames by content)."""
    if isinstance(value, tuple) and value and all(isinstance(v, Frame) for v in value):
        return tuple(
            (f.timestamp, zlib.crc32(np.ascontiguousarray(f.pixels).tobytes()))
            for f in value
        )
    return value


class _Traced:
    """Awaitable that steps ``coro`` by hand and logs every resume."""

    def __init__(self, coro, name, scheduler, log):
        self._coro, self._name, self._scheduler, self._log = coro, name, scheduler, log

    def __await__(self):
        coro, log = self._coro, self._log
        log.append((self._name, self._scheduler.now(), STARTED))
        step, arg = coro.send, None
        while True:
            try:
                slot = step(arg)
            except StopIteration as stop:
                return stop.value
            try:
                arg = yield slot
                step = coro.send
            except BaseException as exc:  # teardown: forward into the task
                step, arg = coro.throw, exc
                continue
            # The trampoline sends the value in and keeps none on the slot;
            # asyncio resumes with None and leaves it on the future.
            value = arg if isinstance(slot, Waiter) else slot.result()
            log.append((self._name, self._scheduler.now(), _describe(value)))


class _TracingMixin:
    def __init__(self):
        super().__init__()
        self.resumes = []

    def spawn(self, coro, name="task"):
        return super().spawn(_Traced(coro, name, self, self.resumes), name)


class TracedTrampoline(_TracingMixin, VirtualScheduler):
    pass


class TracedAsyncio(_TracingMixin, AsyncioVirtualScheduler):
    pass


#: The ``repro loadtest`` mix (with ``--protocol 0.1``) at a tier-1 size.
LOADTEST = dict(
    workload=dict(
        sessions=30,
        tenants=10,
        arrival_rate_hz=22.0,
        chaos_fraction=0.2,
        abandon_fraction=0.05,
        burst_fraction=0.05,
        small_tenant_fraction=0.2,
        protocol_fraction=0.1,
        seed=20260808,
    ),
    server=dict(max_sessions=256, admission_queue_depth=16, protocol=ProtocolConfig()),
)
#: Chaos, abandoned feeds and bursts, with too few slots: sessions queue
#: for admission and some are rejected.
CHAOS = dict(
    workload=dict(
        sessions=16,
        tenants=3,
        arrival_rate_hz=6.0,
        attack_fraction=0.4,
        chaos_fraction=0.4,
        abandon_fraction=0.4,
        burst_fraction=0.3,
        seed=7,
    ),
    server=dict(max_sessions=5, admission_queue_depth=6),
)
#: Protocol sessions only, replay and stale roles included.
PROTOCOL = dict(
    workload=dict(
        sessions=6,
        tenants=2,
        arrival_rate_hz=4.0,
        attack_fraction=0.0,
        protocol_fraction=1.0,
        protocol_replay_fraction=0.3,
        protocol_stale_fraction=0.2,
        seed=23,
    ),
    server=dict(max_sessions=64, admission_queue_depth=16, protocol=ProtocolConfig()),
)


def _run(scheduler_cls, mix, serial=False):
    workload = WorkloadConfig(**mix["workload"])
    scheduler = scheduler_cls()
    instr = Instrumentation.enabled(clock=scheduler.clock)
    server = VerificationServer(
        scheduler,
        make_tenant_bank_provider(workload),
        ServerConfig(**mix["server"]),
        instrumentation=instr,
    )
    result = run_workload(
        scheduler, server, workload, serial=serial, wall_guard_s=WALL_GUARD_S
    )
    return scheduler.resumes, result, instr.snapshot()


@pytest.mark.filterwarnings("ignore::repro.core.lof.SmallBankWarning")
@pytest.mark.parametrize(
    "mix, serial",
    [(LOADTEST, False), (CHAOS, False), (CHAOS, True), (PROTOCOL, False)],
    ids=["loadtest", "chaos-abandon-burst", "chaos-abandon-burst-serial", "protocol"],
)
def test_trampoline_resumes_like_asyncio(mix, serial):
    resumes, result, snapshot = _run(TracedTrampoline, mix, serial)
    want_resumes, want_result, want_snapshot = _run(TracedAsyncio, mix, serial)

    assert len(resumes) > 100  # the trace has teeth
    assert resumes == want_resumes
    assert result == want_result
    assert snapshot == want_snapshot


def test_chaos_mix_exercises_admission_and_stalls():
    """The chaos mix reaches the paths its name promises."""
    _, result, _ = _run(TracedTrampoline, CHAOS)
    reasons = {outcome.reason for outcome in result.outcomes}
    assert result.rejected > 0
    assert "stall" in reasons
    assert "completed" in reasons


@pytest.mark.filterwarnings("ignore::repro.core.lof.SmallBankWarning")
def test_loadtest_memory_is_bounded_by_live_frames():
    """Frames handed to a session are freed once it drops them.

    A resolved slot must not keep its frame pair alive until the slot's
    ``frame_timeout_s`` timer pops: the traced peak of the loadtest mix
    then stays at what the queues and sessions hold (about 2 MB), not
    the ~23 MB of every pair delivered within the timeout.  Banks are
    built before tracing starts so the peak measures the run only.
    """
    workload = WorkloadConfig(**LOADTEST["workload"])
    provider = make_tenant_bank_provider(workload)
    banks = {
        tenant_id: provider(tenant_id)
        for tenant_id in (f"tenant-{tenant:03d}" for tenant in range(workload.tenants))
    }
    scheduler = VirtualScheduler()
    server = VerificationServer(
        scheduler, banks.__getitem__, ServerConfig(**LOADTEST["server"])
    )
    tracemalloc.start()
    try:
        result = run_workload(scheduler, server, workload, wall_guard_s=WALL_GUARD_S)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.outcomes  # sessions ran
    assert peak < 8 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"
