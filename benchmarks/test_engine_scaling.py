"""Engine scaling: jobs=4 must match serial bit-for-bit, and beat it.

This is the fast deterministic benchmark (``-m smoke``): it builds a
synthetic feature bank in seconds instead of simulating the full
dataset, runs the headline experiments through ``ExecutionEngine`` at
jobs=1 and jobs=4 with cold caches, and asserts

* numerical identity — parallel == serial == no engine at all, exactly;
* speedup — >= 2x with four workers, asserted only on machines with at
  least four cores (on smaller hosts the ratio is reported, not
  enforced: a process pool cannot beat serial without the hardware).
"""

import json
import os
import pathlib
import statistics
import time

import numpy as np
import pytest

from repro.core.config import DetectorConfig
from repro.core.features import extract_features_batch
from repro.engine import ExecutionEngine
from repro.experiments.dataset import ATTACK, GENUINE, ClipInstance, FeatureDataset
from repro.experiments.runner import run_overall, run_threshold_sweep
from repro.obs import Instrumentation, JsonlTraceSink, Tracer, read_trace

from .conftest import run_once

ROUNDS = 8
TRAIN_SIZE = 15

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BASELINE_PATH = pathlib.Path(__file__).resolve().parent / "engine_baseline.json"

#: Clip count for the batch-core throughput benchmark and the number of
#: equal sub-batches the instrumented jobs=1 pass is split into (each
#: sub-batch emits one ``engine.features`` span for the p50/p99 stats).
BENCH_CLIPS = 240
BENCH_SUBBATCHES = 8


def _smoke_dataset(users=8, genuine=26, attack=12):
    """Synthetic bank whose features are real extractions of its signals."""
    rng = np.random.default_rng(7)
    config = DetectorConfig()
    instances = []
    for u in range(users):
        name = f"user_{u}"
        for role, count in ((GENUINE, genuine), (ATTACK, attack)):
            for i in range(count):
                t = np.full(150, 180.0)
                a = int(rng.integers(30, 60))
                t[a:] -= 50.0
                t[a + int(rng.integers(45, 60)) :] += 40.0
                if role == GENUINE:
                    delayed = np.concatenate([np.full(4, t[0]), t[:-4]])
                    r = 120.0 + 0.3 * delayed + rng.normal(0, 0.3, 150)
                else:
                    r = 120.0 + rng.normal(0, 2.0, 150)
                features = extract_features_batch([(t, r)], config)[0].features
                instances.append(ClipInstance(name, role, i, features, t, r))
    return FeatureDataset(instances)


def _run_experiments(dataset, engine):
    overall = run_overall(dataset, rounds=ROUNDS, train_size=TRAIN_SIZE, engine=engine)
    sweep = run_threshold_sweep(
        dataset, rounds=ROUNDS, train_size=TRAIN_SIZE, engine=engine
    )
    return overall, sweep


@pytest.mark.smoke
def test_engine_scaling(report, benchmark):
    dataset = _smoke_dataset()

    # Ground truth: the engine-less serial protocol.
    plain = _run_experiments(dataset, engine=None)

    t0 = time.perf_counter()
    with ExecutionEngine(jobs=1) as engine:
        serial = _run_experiments(dataset, engine)
    serial_s = time.perf_counter() - t0

    def parallel_run():
        t0 = time.perf_counter()
        with ExecutionEngine(jobs=4) as engine:
            results = _run_experiments(dataset, engine)
        return (results, engine.jobs), time.perf_counter() - t0

    (parallel, workers), parallel_s = run_once(benchmark, parallel_run)

    # Bit-identical at every job count — and with no engine at all.
    assert serial[0] == plain[0] == parallel[0]
    for a, b in ((serial[1], plain[1]), (serial[1], parallel[1])):
        assert np.array_equal(a.far, b.far)
        assert np.array_equal(a.frr, b.frr)
        assert a.eer == b.eer

    cores = os.cpu_count() or 1
    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    report(
        "engine_scaling",
        [
            "Engine scaling (run_overall + run_threshold_sweep, cold caches)",
            f"cores={cores}",
            f"jobs=1: {serial_s:.2f}s",
            f"jobs=4: {parallel_s:.2f}s ({workers} workers: jobs clamped to usable CPUs)",
            f"speedup: {speedup:.2f}x",
            "results: bit-identical across jobs=1 / jobs=4 / engine-less",
        ],
    )
    if cores >= 4:
        assert speedup >= 2.0, f"expected >=2x with 4 workers, got {speedup:.2f}x"


def _bench_pairs(count):
    """Ragged synthetic luminance pairs with a genuine-looking response."""
    rng = np.random.default_rng(19)
    pairs = []
    for _ in range(count):
        length = int(rng.integers(120, 180))
        t = np.full(length, 180.0)
        a = int(rng.integers(20, 50))
        t[a:] -= 50.0
        delayed = np.concatenate([np.full(4, t[0]), t[:-4]])
        r = 120.0 + 0.3 * delayed + rng.normal(0, 0.3, length)
        pairs.append((t, r))
    return pairs


def _percentile(values, q):
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, int(np.ceil(q / 100.0 * len(ordered))))
    return ordered[rank - 1]


@pytest.mark.smoke
def test_batch_engine_throughput(report, benchmark, tmp_path):
    """Batch-core throughput gate: a jobs=4 engine must beat the legacy
    per-clip extraction loop by the checked-in baseline factor, with
    bit-identical features, and ``BENCH_engine.json`` must record the run.

    ``serial`` here means the historical granularity — one batch-of-1
    extraction per clip, no engine.  The engine extracts its cache misses
    as one in-process structure-of-arrays batch at any ``jobs`` (the
    process pool serves ``map_batches`` only), so the speedup is batching
    alone; the JSON records the core count all the same.
    """
    pairs = _bench_pairs(BENCH_CLIPS)
    config = DetectorConfig()

    # Legacy granularity: one batch-of-1 call per clip, no engine.
    t0 = time.perf_counter()
    serial = [extract_features_batch([pair], config)[0].features for pair in pairs]
    per_clip_serial_s = time.perf_counter() - t0

    # Instrumented jobs=1 pass over sub-batches: one engine.features span
    # per sub-batch lands in the JSONL trace for the latency percentiles.
    trace_path = str(tmp_path / "engine_bench_trace.jsonl")
    sink = JsonlTraceSink(trace_path)
    instr = Instrumentation(registry=None, tracer=Tracer(sink=sink))
    step = BENCH_CLIPS // BENCH_SUBBATCHES
    t0 = time.perf_counter()
    with ExecutionEngine(jobs=1, instrumentation=instr) as engine:
        jobs1 = []
        for lo in range(0, BENCH_CLIPS, step):
            jobs1.extend(engine.extract_features_batch(pairs[lo : lo + step], config))
    engine_jobs1_s = time.perf_counter() - t0
    sink.close()

    # The headline configuration: one call at jobs=4.  Extraction runs the
    # in-process batch core; the pool is never started.
    def jobs4_run():
        t0 = time.perf_counter()
        with ExecutionEngine(jobs=4) as engine:
            results = engine.extract_features_batch(pairs, config)
        return results, time.perf_counter() - t0

    jobs4, engine_jobs4_s = run_once(benchmark, jobs4_run)

    assert jobs1 == serial == jobs4  # jobs=4 == jobs=1 == per-clip, bitwise

    stage_spans = [
        record["duration_s"]
        for record in read_trace(trace_path)
        if record["name"] == "engine.features"
    ]
    assert len(stage_spans) == BENCH_SUBBATCHES

    baseline = json.loads(BASELINE_PATH.read_text())
    speedup = per_clip_serial_s / engine_jobs4_s if engine_jobs4_s > 0 else float("inf")
    payload = {
        "schema": "bench-engine-v1",
        "clips": BENCH_CLIPS,
        "cores": os.cpu_count() or 1,
        "per_clip_serial_s": round(per_clip_serial_s, 4),
        "engine_jobs1_s": round(engine_jobs1_s, 4),
        "engine_jobs4_s": round(engine_jobs4_s, 4),
        "tasks_per_s_jobs4": round(BENCH_CLIPS / engine_jobs4_s, 2),
        "stage_latency_p50_s": round(_percentile(stage_spans, 50), 4),
        "stage_latency_p99_s": round(_percentile(stage_spans, 99), 4),
        "stage_latency_spans": BENCH_SUBBATCHES,
        "speedup_jobs4_vs_serial": round(speedup, 2),
        "pool_equals_serial": True,
        "note": (
            "serial = legacy per-clip extraction loop (batch-of-1, no "
            "engine); jobs=4 = one call whose cache misses run as one "
            "in-process structure-of-arrays batch (the pool serves "
            "map_batches only); stage latency percentiles are over the "
            f"{BENCH_SUBBATCHES} instrumented jobs=1 sub-batch spans"
        ),
    }
    (REPO_ROOT / "BENCH_engine.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    report(
        "engine_batch_throughput",
        [
            "Batch-core throughput (per-clip loop vs engine batch core)",
            f"clips={BENCH_CLIPS}  cores={payload['cores']}",
            f"per-clip serial: {per_clip_serial_s:.2f}s",
            f"engine jobs=1: {engine_jobs1_s:.2f}s",
            f"engine jobs=4: {engine_jobs4_s:.2f}s",
            f"tasks/sec at jobs=4: {payload['tasks_per_s_jobs4']}",
            f"stage latency p50/p99: {payload['stage_latency_p50_s']}s / "
            f"{payload['stage_latency_p99_s']}s",
            f"speedup jobs=4 vs per-clip serial: {speedup:.2f}x",
            "features: bit-identical across per-clip / jobs=1 / jobs=4",
        ],
    )
    floor = baseline["min_speedup_jobs4_vs_serial"]
    assert speedup >= floor, (
        f"jobs=4 speedup regressed: {speedup:.2f}x < baseline {floor}x"
    )
