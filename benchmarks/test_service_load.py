"""Service load benchmark: 200+ concurrent sessions, deterministically.

The fast deterministic service benchmark (``-m smoke``): an open-loop
workload of 220 sessions across 10 tenants — attacks, chaos, abandoned
feeds, frame bursts, undersized tenant banks — driven through the full
:class:`VerificationServer` stack under virtual time, then replayed
serially and compared **byte for byte**: same outcomes, same merged
metrics snapshot, at a >=200 concurrent-session peak versus one at a
time.

Because the run is virtual-time deterministic, the SLO numbers (peak
concurrency, admission rate, drop rate, p99 verdict latency, task
failures) are machine-independent, so ``service_baseline.json`` gates
them exactly; only the wall-clock seconds vary by host.  ``--record``
writes the run to ``BENCH_service.json`` at the repo root.
"""

import json
import pathlib
import time

import pytest

from repro.obs import Instrumentation
from repro.service import (
    ServerConfig,
    VerificationServer,
    VirtualScheduler,
    WorkloadConfig,
    build_slo_report,
    make_tenant_bank_provider,
    run_workload,
)

from .conftest import run_once

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BASELINE_PATH = pathlib.Path(__file__).resolve().parent / "service_baseline.json"

WORKLOAD = WorkloadConfig(
    sessions=220,
    tenants=10,
    arrival_rate_hz=22.0,
    attack_fraction=0.3,
    chaos_fraction=0.2,
    abandon_fraction=0.05,
    burst_fraction=0.05,
    small_tenant_fraction=0.2,
    seed=20260808,
)
SERVER = ServerConfig(max_sessions=256, admission_queue_depth=16)


def _run(serial: bool):
    scheduler = VirtualScheduler()
    instr = Instrumentation.enabled(clock=scheduler.clock)
    server = VerificationServer(
        scheduler,
        make_tenant_bank_provider(WORKLOAD),
        SERVER,
        instrumentation=instr,
    )
    t0 = time.perf_counter()
    result = run_workload(
        scheduler, server, WORKLOAD, serial=serial, wall_guard_s=600.0
    )
    wall_s = time.perf_counter() - t0
    return result, instr.snapshot(), server, wall_s


@pytest.mark.smoke
@pytest.mark.filterwarnings("ignore::repro.core.lof.SmallBankWarning")
def test_service_load(report, record, benchmark):
    concurrent, snapshot, server, concurrent_s = run_once(
        benchmark, lambda: _run(serial=False)
    )
    serial, serial_snapshot, serial_server, serial_s = _run(serial=True)

    # The headline property: the pool run IS its serial replay, bitwise.
    identical = concurrent.outcomes == serial.outcomes and snapshot == serial_snapshot
    assert identical, "concurrent run diverged from its serial replay"
    assert serial_server.peak_active == 1

    slo = build_slo_report(snapshot, server.peak_active, server.peak_queued)
    baseline = json.loads(BASELINE_PATH.read_text())
    assert server.peak_active >= baseline["min_peak_concurrent_sessions"]
    assert slo.admission_rate >= baseline["min_admission_rate"]
    assert slo.drop_rate <= baseline["max_drop_rate"]
    assert slo.p99_latency_s <= baseline["max_p99_verdict_latency_s"]
    assert slo.task_failures <= baseline["max_task_failures"]

    payload = {
        "schema": "bench-service-v1",
        "sessions": WORKLOAD.sessions,
        "tenants": WORKLOAD.tenants,
        "peak_concurrent_sessions": server.peak_active,
        "peak_queued_sessions": server.peak_queued,
        "admitted": slo.admitted,
        "rejected": slo.rejected,
        "admission_rate": round(slo.admission_rate, 4),
        "p50_verdict_latency_s": round(slo.p50_latency_s, 3),
        "p99_verdict_latency_s": round(slo.p99_latency_s, 3),
        "frames_processed": slo.frames_processed,
        "frames_dropped": slo.frames_dropped,
        "drop_rate": round(slo.drop_rate, 4),
        "status_counts": slo.status_counts,
        "end_reasons": slo.end_reasons,
        "tenant_cache": slo.tenant_cache,
        "task_failures": slo.task_failures,
        "serial_identity": identical,
        "concurrent_wall_s": round(concurrent_s, 2),
        "serial_wall_s": round(serial_s, 2),
        "note": (
            "virtual-time SLO numbers are deterministic and gated exactly "
            "by service_baseline.json; only the *_wall_s fields vary by host"
        ),
    }
    if record:
        (REPO_ROOT / "BENCH_service.json").write_text(
            json.dumps(payload, indent=2) + "\n"
        )

    report(
        "service_load",
        [
            f"Service load: {WORKLOAD.sessions} sessions / "
            f"{WORKLOAD.tenants} tenants, open-loop "
            f"{WORKLOAD.arrival_rate_hz:g}/s (virtual time)",
            f"peak concurrency: active={server.peak_active} "
            f"queued={server.peak_queued} (serial replay peak=1)",
            *slo.lines(),
            "identity: concurrent == serial (outcomes and merged metrics)",
            f"wall: concurrent={concurrent_s:.1f}s serial={serial_s:.1f}s",
        ],
    )
