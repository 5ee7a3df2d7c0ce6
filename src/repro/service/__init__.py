"""Multi-tenant async verification service.

The deployable layer above :mod:`repro.core.streaming`: one process
multiplexing many concurrent chat-liveness sessions, with admission
control, per-tenant model caching, bounded backpressure, deadlines, and
SLO reporting — runnable against the wall clock
(:class:`~repro.service.realtime.RealTimeScheduler`) or in a
deterministic discrete-event mode
(:class:`~repro.service.scheduler.VirtualScheduler`) where a load test
is bit-reproducible and byte-identical to its own serial replay.
"""

from .loadgen import (
    SessionScript,
    WorkloadConfig,
    WorkloadResult,
    build_scripts,
    make_tenant_bank_provider,
    run_workload,
)
from .queues import END_OF_STREAM, FrameQueue
from .realtime import RealTimeScheduler
from .scheduler import (
    ForeignAwaitError,
    Scheduler,
    ServiceLock,
    TIMEOUT,
    TaskHandle,
    VirtualScheduler,
    Waiter,
)
from .server import (
    Admission,
    SERVICE_LATENCY_BUCKETS_S,
    ServerConfig,
    SessionHandle,
    SessionOutcome,
    VerificationServer,
)
from .slo import SLOReport, build_slo_report
from .tenants import TenantBankCache

__all__ = [
    "Admission",
    "END_OF_STREAM",
    "ForeignAwaitError",
    "FrameQueue",
    "RealTimeScheduler",
    "SERVICE_LATENCY_BUCKETS_S",
    "SLOReport",
    "Scheduler",
    "ServerConfig",
    "ServiceLock",
    "SessionHandle",
    "SessionOutcome",
    "SessionScript",
    "TIMEOUT",
    "TaskHandle",
    "TenantBankCache",
    "VerificationServer",
    "VirtualScheduler",
    "Waiter",
    "WorkloadConfig",
    "WorkloadResult",
    "build_scripts",
    "build_slo_report",
    "make_tenant_bank_provider",
    "run_workload",
]
