"""ExecutionEngine: pool-vs-serial equivalence, caching, determinism.

The engine's core promise is that results are a pure function of the
task list — not of the job count, the scheduler, or whether an engine
is used at all.  These tests pin that promise on synthetic datasets
whose stored features are genuinely extracted from their stored signals
(so the engine's cached extraction must agree bit for bit with the
dataset's stored features).
"""

import os

import numpy as np
import pytest

from repro.core.config import DetectorConfig
from repro.core.detector import LivenessDetector, verify_clips
from repro.core.features import extract_features_batch
from repro.engine import ExecutionEngine, FeatureCache, task_rng
from repro.experiments.dataset import (
    ATTACK,
    GENUINE,
    ClipInstance,
    FeatureDataset,
    build_dataset,
)
from repro.experiments.profiles import Environment, make_population
from repro.experiments.runner import run_forgery_delay, run_overall, run_threshold_sweep
from repro.obs import Instrumentation, render_json

# Every jobs > 1 engine here builds a real pool, whatever the host's CPUs.
pytestmark = pytest.mark.usefixtures("pool_cpus")


def _square(x: int) -> int:
    """Module-level task fn (must be picklable for the pool)."""
    return x * x


def _make_clip(user, role, index, config, rng):
    """A clip whose stored features ARE the extraction of its signals."""
    t = np.full(150, 180.0)
    a = int(rng.integers(30, 60))
    b = a + int(rng.integers(45, 60))
    t[a:] -= 50.0
    t[b:] += 40.0
    if role == GENUINE:
        delayed = np.concatenate([np.full(4, t[0]), t[:-4]])
        r = 120.0 + 0.3 * delayed + rng.normal(0, 0.3, 150)
    else:
        r = 120.0 + rng.normal(0, 2.0, 150)
    features = extract_features_batch([(t, r)], config)[0].features
    return ClipInstance(user, role, index, features, t, r)


def _make_pairs(count, seed=7):
    """Ragged random luminance pairs (no genuine structure needed)."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        length = int(rng.integers(40, 160))
        t_lum = rng.uniform(80.0, 140.0, length)
        r_lum = rng.uniform(0.2, 0.9, length)
        pairs.append((t_lum, r_lum))
    return pairs


@pytest.fixture(scope="module")
def small_dataset():
    rng = np.random.default_rng(0)
    config = DetectorConfig()
    instances = []
    for user in ("u0", "u1", "u2"):
        instances += [_make_clip(user, GENUINE, i, config, rng) for i in range(26)]
        instances += [_make_clip(user, ATTACK, i, config, rng) for i in range(12)]
    return FeatureDataset(instances)


class TestTaskRng:
    def test_same_key_same_stream(self):
        assert task_rng(7, 3, 1).integers(0, 1000, 8).tolist() == task_rng(
            7, 3, 1
        ).integers(0, 1000, 8).tolist()

    def test_different_coordinates_different_streams(self):
        a = task_rng(7, 3, 1).integers(0, 1000, 8)
        b = task_rng(7, 3, 2).integers(0, 1000, 8)
        c = task_rng(7, 4, 1).integers(0, 1000, 8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestMap:
    def test_serial_map_preserves_order(self):
        with ExecutionEngine(jobs=1) as engine:
            assert engine.map_batches(_square, range(10)) == [i * i for i in range(10)]

    def test_parallel_map_matches_serial(self):
        tasks = list(range(40))
        with ExecutionEngine(jobs=1) as serial, ExecutionEngine(jobs=3) as parallel:
            assert parallel.map_batches(_square, tasks) == serial.map_batches(_square, tasks)

    def test_map_records_stage(self):
        with ExecutionEngine(jobs=1) as engine:
            engine.map_batches(_square, range(5), stage="squares")
            report = engine.perf_report()
        assert [s.name for s in report.stages] == ["squares"]
        assert report.stages[0].tasks == 5

    def test_rejects_zero_jobs(self):
        with pytest.raises(ValueError):
            ExecutionEngine(jobs=0)


class TestWorkerClamp:
    """``jobs`` is clamped to the CPUs the process may run on."""

    def test_one_usable_cpu_runs_serially_without_a_pool(self, monkeypatch):
        tasks = list(range(40))
        with ExecutionEngine(jobs=1) as serial:
            want = serial.map_batches(_square, tasks)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        with ExecutionEngine(jobs=4) as engine:
            assert engine.jobs == 1
            assert engine.map_batches(_square, tasks) == want
            assert engine._pool is None

    def test_clamps_to_the_affinity_set(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert ExecutionEngine(jobs=8).jobs == 3
        assert ExecutionEngine(jobs=2).jobs == 2

    def test_cpu_count_where_there_is_no_affinity_call(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert ExecutionEngine(jobs=8).jobs == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert ExecutionEngine(jobs=8).jobs == 1


class TestCachedExtraction:
    def test_cached_matches_direct_extraction(self, small_dataset):
        config = DetectorConfig()
        clip = small_dataset.instances[0]
        with ExecutionEngine(jobs=1) as engine:
            pair = (clip.transmitted_luminance, clip.received_luminance)
            (via_cache,) = engine.extract_features_batch([pair], config)
        direct = extract_features_batch([pair], config)[0].features
        assert via_cache == direct

    def test_second_batch_is_all_hits(self, small_dataset):
        config = DetectorConfig()
        pairs = [
            (c.transmitted_luminance, c.received_luminance)
            for c in small_dataset.instances[:8]
        ]
        with ExecutionEngine(jobs=1) as engine:
            first = engine.extract_features_batch(pairs, config)
            assert (engine.cache.hits, engine.cache.misses) == (0, 8)
            second = engine.extract_features_batch(pairs, config)
            assert engine.cache.hits == 8
            assert engine.cache.misses == 8
        assert first == second

    def test_duplicates_within_a_batch_extract_once(self, small_dataset):
        config = DetectorConfig()
        clip = small_dataset.instances[0]
        pair = (clip.transmitted_luminance, clip.received_luminance)
        with ExecutionEngine(jobs=1) as engine:
            out = engine.extract_features_batch([pair, pair, pair], config)
            assert engine.cache.misses == 1
            assert engine.cache.hits == 2
        assert out[0] == out[1] == out[2]

    def test_config_change_misses(self, small_dataset):
        clip = small_dataset.instances[0]
        pair = (clip.transmitted_luminance, clip.received_luminance)
        with ExecutionEngine(jobs=1) as engine:
            engine.extract_features_batch([pair], DetectorConfig())
            engine.extract_features_batch(
                [pair], DetectorConfig().with_overrides(lof_threshold=2.0)
            )
            assert engine.cache.misses == 2
            assert engine.cache.hits == 0

    def test_shared_cache_across_engines(self, small_dataset):
        config = DetectorConfig()
        clip = small_dataset.instances[0]
        pair = (clip.transmitted_luminance, clip.received_luminance)
        cache = FeatureCache()
        with ExecutionEngine(jobs=1, cache=cache) as first:
            first.extract_features_batch([pair], config)
        with ExecutionEngine(jobs=1, cache=cache) as second:
            second.extract_features_batch([pair], config)
        assert cache.hits == 1
        assert cache.misses == 1


class TestPoolSerialIdentity:
    def test_features_identical_at_jobs_1_2_4(self):
        pairs = _make_pairs(6)
        config = DetectorConfig()
        serial = [ex.features for ex in extract_features_batch(pairs, config)]
        for jobs in (1, 2, 4):
            with ExecutionEngine(jobs=jobs) as engine:
                assert engine.jobs == jobs
                assert engine.extract_features_batch(pairs, config) == serial, jobs

    def test_verdicts_and_metrics_identical_at_jobs_1_2_4(self):
        config = DetectorConfig()
        bank_pairs = _make_pairs(8, seed=3)
        probe_pairs = _make_pairs(5, seed=4)

        def _run(jobs):
            instr = Instrumentation.enabled()
            detector = LivenessDetector(config, instrumentation=instr)
            detector.fit_from_clips(bank_pairs)
            with ExecutionEngine(jobs=jobs) as engine:
                assert engine.jobs == jobs
                results = verify_clips(probe_pairs, detector, engine=engine)
            return results, render_json(instr.snapshot())

        base_results, base_metrics = _run(1)
        for jobs in (2, 4):
            results, metrics = _run(jobs)
            assert metrics == base_metrics, jobs
            for got, want in zip(results, base_results):
                assert got.features == want.features
                assert got.lof_score == want.lof_score
                assert got.accepted == want.accepted


class TestZeroWorkEdges:
    def test_empty_map_batches_emits_nothing(self):
        with ExecutionEngine(jobs=4) as engine:
            assert engine.map_batches(len, [], stage="probe") == []
            snap = engine.instrumentation.snapshot()
            assert snap.counter_value("engine_stage_calls_total", stage="probe") == 0
            assert not engine.perf_report().stages

    def test_empty_extract_batch_emits_nothing(self):
        with ExecutionEngine(jobs=4) as engine:
            assert engine.extract_features_batch([], DetectorConfig()) == []
            assert not engine.perf_report().stages

    def test_fewer_clips_than_jobs_extracts_correctly(self):
        pairs = _make_pairs(2)
        config = DetectorConfig()
        serial = [ex.features for ex in extract_features_batch(pairs, config)]
        with ExecutionEngine(jobs=4) as engine:
            assert engine.extract_features_batch(pairs, config) == serial

    def test_zero_sample_pairs_stay_in_process(self):
        pairs = [(np.array([]), np.array([])), (np.array([]), np.array([]))]
        config = DetectorConfig()
        serial = [ex.features for ex in extract_features_batch(pairs, config)]
        with ExecutionEngine(jobs=4) as engine:
            assert engine.extract_features_batch(pairs, config) == serial


class TestRunnerEquivalence:
    """jobs=N == jobs=1 == no engine at all, bit for bit."""

    def test_run_overall(self, small_dataset):
        plain = run_overall(small_dataset, rounds=4, train_size=10)
        with ExecutionEngine(jobs=1) as serial:
            one = run_overall(small_dataset, rounds=4, train_size=10, engine=serial)
        with ExecutionEngine(jobs=3) as parallel:
            assert parallel.jobs == 3
            many = run_overall(small_dataset, rounds=4, train_size=10, engine=parallel)
        assert plain == one == many

    def test_run_threshold_sweep(self, small_dataset):
        plain = run_threshold_sweep(small_dataset, rounds=3, train_size=10)
        with ExecutionEngine(jobs=3) as parallel:
            many = run_threshold_sweep(
                small_dataset, rounds=3, train_size=10, engine=parallel
            )
        assert np.array_equal(plain.far, many.far)
        assert np.array_equal(plain.frr, many.frr)
        assert plain.eer == many.eer
        assert plain.eer_threshold == many.eer_threshold

    def test_rerun_is_reproducible_and_hits_cache(self, small_dataset):
        kwargs = dict(delays_s=(0.0, 1.0), rounds=3, train_size=10, max_clips_per_user=8)
        with ExecutionEngine(jobs=2) as engine:
            first = run_forgery_delay(small_dataset, engine=engine, **kwargs)
            misses_after_first = engine.cache.misses
            second = run_forgery_delay(small_dataset, engine=engine, **kwargs)
            assert np.array_equal(first.delays_s, second.delays_s)
            assert np.array_equal(first.rejection_rate, second.rejection_rate)
            assert engine.cache.misses == misses_after_first  # no new extractions
            assert engine.cache.hits > 0


class TestParallelDatasetBuild:
    @pytest.mark.slow
    def test_parallel_simulation_is_bit_identical(self):
        population = make_population(count=2)
        env = Environment(frame_size=(48, 48), verifier_frame_size=(32, 32))
        config = DetectorConfig(clip_duration_s=6.0)
        kwargs = dict(
            population=population,
            clips_per_role=2,
            roles=(GENUINE,),
            env=env,
            config=config,
            use_cache=False,
        )
        serial = build_dataset(**kwargs)
        with ExecutionEngine(jobs=2) as engine:
            parallel = build_dataset(engine=engine, **kwargs)
        assert len(serial) == len(parallel) == 4
        for a, b in zip(serial.instances, parallel.instances):
            assert (a.user, a.role, a.seed) == (b.user, b.role, b.seed)
            assert a.features == b.features
            assert np.array_equal(a.transmitted_luminance, b.transmitted_luminance)
            assert np.array_equal(a.received_luminance, b.received_luminance)
