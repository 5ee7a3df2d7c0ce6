"""PerfRecorder/PerfReport: stage timing, counters, printable rows."""

import pytest

from repro.engine import PerfRecorder
from repro.obs.clock import ManualClock


def _snapshot(recorder, jobs=1, hits=0, misses=0):
    return recorder.snapshot(jobs=jobs, cache_hits=hits, cache_misses=misses)


class TestRecorder:
    def test_stage_accumulates_calls_and_tasks(self):
        rec = PerfRecorder()
        for _ in range(3):
            with rec.stage("rounds", tasks=5):
                pass
        (stage,) = _snapshot(rec).stages
        assert stage.name == "rounds"
        assert stage.calls == 3
        assert stage.tasks == 15
        assert stage.wall_s >= 0.0

    def test_stage_order_is_first_use_order(self):
        rec = PerfRecorder()
        for name in ("simulate", "features", "rounds", "features"):
            with rec.stage(name):
                pass
        assert [s.name for s in _snapshot(rec).stages] == [
            "simulate",
            "features",
            "rounds",
        ]

    def test_fresh_recorder_has_no_stages(self):
        report = _snapshot(PerfRecorder())
        assert report.stages == ()
        assert report.tasks_completed == 0

    def test_stage_records_even_when_body_raises(self):
        rec = PerfRecorder()
        try:
            with rec.stage("boom", tasks=1):
                raise RuntimeError("task failed")
        except RuntimeError:
            pass
        assert _snapshot(rec).stages[0].calls == 1


class TestReport:
    def test_cache_rates(self):
        report = _snapshot(PerfRecorder(), jobs=4, hits=3, misses=1)
        assert report.jobs == 4
        assert report.cache_lookups == 4
        assert report.cache_hit_rate == pytest.approx(0.75)

    def test_hit_rate_defined_without_lookups(self):
        assert _snapshot(PerfRecorder()).cache_hit_rate == pytest.approx(0.0)

    def test_str_mentions_stages_and_cache(self):
        rec = PerfRecorder()
        with rec.stage("features", tasks=10):
            pass
        text = str(_snapshot(rec, jobs=2, hits=7, misses=3))
        assert "PerfReport (jobs=2)" in text
        assert "features" in text
        assert "7 hits / 3 misses" in text
        assert "70.0% hit rate" in text


class TestManualClockTiming:
    def test_stage_wall_time_is_exact_under_manual_clock(self):
        clock = ManualClock()
        rec = PerfRecorder(clock=clock)
        with rec.stage("features", tasks=4):
            clock.advance(2.0)
        (stage,) = _snapshot(rec).stages
        assert stage.wall_s == pytest.approx(2.0)
        assert stage.tasks_per_sec == pytest.approx(2.0)

    def test_zero_wall_report_has_zero_throughput(self):
        # Frozen clock: wall_s == 0.0 must not divide by zero.
        report = _snapshot(PerfRecorder(clock=ManualClock()))
        assert report.wall_s == pytest.approx(0.0)
        assert report.tasks_per_sec == pytest.approx(0.0)
        assert report.cache_hit_rate == pytest.approx(0.0)

    def test_zero_wall_stage_reports_inf_not_crash(self):
        clock = ManualClock()
        rec = PerfRecorder(clock=clock)
        with rec.stage("instant", tasks=3):
            pass  # no clock advance: zero-duration stage
        (stage,) = _snapshot(rec).stages
        assert stage.wall_s == pytest.approx(0.0)
        assert stage.tasks_per_sec == float("inf")
        assert any("inf" in line for line in _snapshot(rec).lines())

    def test_report_wall_spans_recorder_lifetime(self):
        clock = ManualClock(start=100.0)
        rec = PerfRecorder(clock=clock)
        clock.advance(3.0)
        with rec.stage("x", tasks=6):
            clock.advance(1.0)
        report = _snapshot(rec)
        assert report.wall_s == pytest.approx(4.0)
        assert report.tasks_per_sec == pytest.approx(1.5)

    def test_wall_starts_when_the_recorder_is_built(self):
        clock = ManualClock()
        clock.advance(5.0)
        rec = PerfRecorder(clock=clock)
        clock.advance(1.0)
        assert _snapshot(rec).wall_s == pytest.approx(1.0)


class TestCounters:
    def test_count_accumulates_and_snapshots(self):
        rec = PerfRecorder()
        rec.count("clips_total", 3)
        rec.count("clips_total")
        rec.count("clips_inconclusive", 2)
        report = _snapshot(rec)
        assert report.counters == {"clips_total": 4, "clips_inconclusive": 2}

    def test_counters_render_in_lines(self):
        rec = PerfRecorder()
        rec.count("fault_sessions", 8)
        assert any("fault_sessions: 8" in line for line in _snapshot(rec).lines())

    def test_snapshot_counters_are_a_copy(self):
        rec = PerfRecorder()
        rec.count("x")
        report = _snapshot(rec)
        rec.count("x")
        assert report.counters["x"] == 1

    def test_fresh_recorder_has_no_counters(self):
        assert _snapshot(PerfRecorder()).counters == {}

    def test_engine_count_passthrough(self):
        from repro.engine import ExecutionEngine

        with ExecutionEngine(jobs=1) as engine:
            engine.instrumentation.count("clips_total", 2)
            report = engine.perf_report()
        assert report.counters["clips_total"] == 2
