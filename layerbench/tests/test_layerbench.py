"""The benchmark's own checks, at small sizes.

Run from the repository root::

    python -m pytest layerbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import warnings

import pytest

from lbench import batch, hostclock, offline, runner, service
from lbench.tracing import (
    LAYERS,
    TARGETS,
    Patcher,
    SpanLog,
    Target,
    installed_wrappers,
    tracer,
)

from conftest import BENCH_DIR, REPO_ROOT

SMALL = {
    "offline-sessions": offline.Size(
        unit=(("genuine", (1,)), ("reenactment", (1,)), ("replay", (1,))),
        enroll_users=1,
        enroll_duration_s=45.0,
    ),
    "service-open-loop": service.Size(sessions=24, warmup_sessions=2),
    "batch-verify": batch.Size(batches=3),
}

#: Which traced targets each workload must reach, per the layer table.
FIRES_ON = {
    "offline-sessions": (
        "FaceRenderer.render",
        "ImageSensor.expose",
        "VideoCodec.encode",
        "VideoCodec.decode",
        "MediaLink.send",
        "MediaLink.receive",
        "VideoChatSession.run",
        "LandmarkDetector.detect",
        "frame_mean_luminance",
        "roi_mean_luminance",
        "preprocess_batch",
        "find_peaks",
        "dtw_distance_batch",
        "extract_features_batch",
        "LivenessDetector.verify_features",
    ),
    "service-open-loop": (
        "LandmarkDetector.detect",
        "frame_mean_luminance",
        "roi_mean_luminance",
        "preprocess_batch",
        "find_peaks",
        "dtw_distance_batch",
        "extract_features_batch",
        "LivenessDetector.verify_features",
        "StreamingVerifier.push",
        "TenantBankCache.acquire",
        "ProtocolGate.grade",
        "run_workload",
    ),
    "batch-verify": (
        "ExecutionEngine.extract_features_batch",
        "preprocess_batch",
        "find_peaks",
        "dtw_distance_batch",
        "extract_features_batch",
        "LivenessDetector.verify_features",
    ),
}


def _setup_and_run(name: str, seed: int = 5, log: SpanLog | None = None):
    module = runner.WORKLOADS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        state = module.setup(seed, SMALL[name])
        untraced = module.run(state)
        traced = None
        if log is not None:
            with Patcher(tracer(log)) as patcher:
                traced = module.run(state, log=log)
            assert not patcher.missing
    return untraced, traced


@pytest.fixture(scope="module", params=sorted(runner.WORKLOADS))
def traced_workload(request):
    log = SpanLog()
    untraced, traced = _setup_and_run(request.param, log=log)
    return request.param, untraced, traced, log


def test_metric_names_and_units_match_benchmark_json():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert spec["command"] == ["python3", "layerbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(runner.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(runner.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _ in runner.PER_LAYER
    ]
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_same_seed_gives_identical_deterministic_metrics(traced_workload):
    name, first, _, _ = traced_workload
    second, _ = _setup_and_run(name)
    assert first.problems == [] and second.problems == []
    assert first.deterministic == second.deterministic
    for field in (
        "frames", "genuine_accepted", "genuine_conclusive", "attack_caught",
        "attack_conclusive", "conclusive", "admitted", "attempted", "failed",
    ):
        assert getattr(first, field) == getattr(second, field), field
    assert first.layer == second.layer  # counts, shares, virtual latencies
    assert first.failed == 0 and first.attempted > 0


def test_every_wrapper_fires_on_its_workload(traced_workload):
    name, untraced, traced, log = traced_workload
    for qualname in FIRES_ON[name]:
        assert log.calls[qualname] > 0, f"{qualname} never called on {name}"
    assert traced.deterministic == untraced.deterministic


def test_end_to_end_runs_see_unwrapped_functions(traced_workload):
    name, untraced, traced, _ = traced_workload
    assert untraced.wrappers_seen == runner.UNTRACED_WRAPPERS.get(name, [])
    assert len(traced.wrappers_seen) >= len(FIRES_ON[name])
    assert installed_wrappers() == []


def test_self_times_and_unattributed_time_add_up_to_the_traced_wall(traced_workload):
    _, untraced, traced, log = traced_workload
    values, problems = runner.per_layer(untraced, traced, log)
    assert problems == []
    layer_self = sum(values[f"{layer}.self_s"] for layer in LAYERS)
    unattributed = values["trace.unattributed_share"] * traced.wall_s
    assert layer_self + unattributed == pytest.approx(traced.wall_s, rel=1e-9)
    assert all(values[f"{layer}.self_s"] >= 0 for layer in LAYERS)


def _clock_with(samples: list[tuple[float, float]]) -> hostclock.HostClock:
    clock = hostclock.HostClock()
    clock.starts = [start for start, _ in samples]
    clock.ends = [start + ms / 1e3 for start, ms in samples]
    return clock


def test_host_clock_cuts_out_the_sampler_and_divides_out_the_slowdown():
    nominal_ms = hostclock.NOMINAL_MS
    at_nominal = _clock_with([(t, nominal_ms) for t in (0.0, 1.0, 2.0, 3.0)])
    assert at_nominal.nominal(0.5, 2.5) == pytest.approx(2.0 - 2 * nominal_ms / 1e3)
    # A host twice as slow: the same wall interval is half the program time.
    halved = _clock_with([(t, 2 * nominal_ms) for t in (0.0, 1.0, 2.0, 3.0)])
    assert halved.nominal(0.5, 2.5) == pytest.approx((2.0 - 4 * nominal_ms / 1e3) / 2)
    # Outside the sampled span the nearest sample's slowdown holds.
    assert halved.nominal(-1.0, -0.5) == pytest.approx(0.25)


def test_host_clock_samples_while_active_and_restores_the_signal():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with hostclock.HostClock(period_s=0.01) as clock:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            pass
        t1 = time.perf_counter()
    assert clock.samples >= 5
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert 0 < clock.nominal(t0, t1) * clock.median_slowdown() < t1 - t0


def test_self_time_subtracts_wrapped_children():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 9.0])
    log = SpanLog(clock=lambda: next(ticks))
    outer = log.enter("outer")  # 0 .. 9
    inner = log.enter("inner")  # 1 .. 3
    log.exit(inner)
    again = log.enter("inner")  # 4 .. 5
    log.exit(again)
    log.exit(outer)
    assert log.self_times() == {"outer": 6.0, "inner": 3.0}


def test_restore_puts_back_every_original_binding():
    import repro.core.batch
    import repro.core.features
    import repro.core.streaming

    before = (
        repro.core.features.dtw_distance_batch,
        repro.core.batch.dtw_distance_batch,
        repro.core.streaming.StreamingVerifier.__dict__["push"],
        repro.core.streaming.frame_mean_luminance,
    )
    with Patcher(tracer(SpanLog())):
        assert repro.core.features.dtw_distance_batch is not before[0]
        assert len(installed_wrappers()) >= len(TARGETS)
    after = (
        repro.core.features.dtw_distance_batch,
        repro.core.batch.dtw_distance_batch,
        repro.core.streaming.StreamingVerifier.__dict__["push"],
        repro.core.streaming.frame_mean_luminance,
    )
    assert all(a is b for a, b in zip(before, after))
    assert installed_wrappers() == []


def test_a_vanished_target_is_reported_missing_not_fatal():
    gone = Target("repro.core.features", "no_such_function", "core.features")
    patcher = Patcher(tracer(SpanLog()), targets=TARGETS[:1] + (gone,))
    with patcher:
        pass
    assert set(patcher.missing) == {"no_such_function"}
    assert installed_wrappers() == []


def _bench(args, cwd):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "layerbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_run_prints_one_result_line_and_leaves_nothing_behind():
    proc = _bench(
        ["--workload", "batch-verify", "--seed", "3", "--seconds", "1", "--trace", "0"],
        REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert [name for name in result["metrics"]] == [name for name, _ in runner.END_TO_END]


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(REPO_ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        BENCH_DIR, tmp_path / "layerbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    proc = _bench(
        ["--workload", "batch-verify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        str(tmp_path),
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
