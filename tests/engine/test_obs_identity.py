"""Pool==serial metric identity through ``ExecutionEngine.map``.

Workers build their own enabled handles and ship snapshots home; the
parent folds them in submission order.  The rendered metrics must be
byte-identical between ``jobs=1`` and ``jobs=2`` — this is the repo's
determinism contract extended to observability.
"""

import pytest

from repro.engine import ExecutionEngine
from repro.obs import Instrumentation, render_json
from repro.obs.metrics import MetricsRegistry

# jobs=2 builds a real pool, whatever the host's CPUs.
pytestmark = pytest.mark.usefixtures("pool_cpus")


def _counting_task(payload: tuple[int, int]) -> dict:
    """Module-level so the process pool can pickle it."""
    seed, clips = payload
    instr = Instrumentation.enabled()
    with instr.span("session", stage="simulate", seed=seed):
        instr.count("clips_total", clips)
        instr.count("verdicts", verdict="accept" if seed % 2 == 0 else "reject")
        instr.observe("score", (seed % 10) / 10.0, buckets=(0.25, 0.5, 1.0))
    return {"snapshot": instr.snapshot(), "spans": instr.drain_spans()}


def _run(jobs: int) -> str:
    payloads = [(seed, seed + 1) for seed in range(6)]
    registry = MetricsRegistry()
    engine = ExecutionEngine(jobs=jobs)
    assert engine.jobs == jobs
    for row in engine.map_batches(_counting_task, payloads, stage="sessions"):
        registry.merge_snapshot(row["snapshot"])
    return render_json(registry.snapshot())


class TestPoolSerialIdentity:
    def test_rendered_metrics_identical_across_jobs(self):
        assert _run(jobs=1) == _run(jobs=2)

    def test_merged_totals_are_correct(self):
        registry = MetricsRegistry()
        engine = ExecutionEngine(jobs=2)
        for row in engine.map_batches(_counting_task, [(s, s + 1) for s in range(6)]):
            registry.merge_snapshot(row["snapshot"])
        snap = registry.snapshot()
        assert snap.counter_value("clips_total") == sum(range(1, 7))
        assert snap.counter_value("verdicts", verdict="accept") == 3
        assert snap.counter_value("verdicts", verdict="reject") == 3
        assert snap.get("score", kind="histogram").count == 6


class TestEngineHandle:
    def test_engine_instrumentation_shares_recorder_registry(self):
        engine = ExecutionEngine(jobs=1)
        engine.map_batches(len, [[1], [1, 2]], stage="probe")
        snap = engine.instrumentation.snapshot()
        assert snap.counter_value("engine_stage_calls_total", stage="probe") == 1
        assert engine.perf_report().stages[0].name == "probe"

    def test_merge_snapshot_feeds_perf_counters(self):
        engine = ExecutionEngine(jobs=1)
        worker = MetricsRegistry()
        worker.counter("clips_total").inc(7)
        engine.instrumentation.registry.merge_snapshot(worker.snapshot())
        assert engine.perf_report().counters["clips_total"] == 7

    def test_external_tracer_receives_engine_spans(self):
        from repro.obs.tracing import InMemoryTraceSink

        sink = InMemoryTraceSink()
        instr = Instrumentation.enabled(sink=sink)
        engine = ExecutionEngine(jobs=1, instrumentation=instr)
        engine.map_batches(len, [[1]], stage="probe")
        assert [r["name"] for r in sink.records] == ["engine.probe"]
        assert sink.records[0]["stage"] == "engine"
