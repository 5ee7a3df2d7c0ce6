"""Per-stage performance counters for the execution engine.

The engine's promise is "as fast as the hardware allows, and
measurable": every pipeline stage that runs under the engine (dataset
simulation, feature extraction, protocol rounds, aggregation) is timed,
cache traffic is counted, and the whole picture is exportable as one
frozen :class:`PerfReport` that the CLI can print after a run.

Since the observability subsystem landed, :class:`PerfRecorder` is a
*view* over a :class:`~repro.obs.metrics.MetricsRegistry`: stage calls,
wall time and task counts live in ``engine_stage_*`` series, event
counters (e.g. the fault matrix's ``clips_*``) are plain registry
counters, and :class:`PerfReport` renders from those series.  There is
exactly one counter API underneath — the registry's — and the report
stays the printable shape it always was.  Timing is read through the
:mod:`repro.obs.clock` abstraction, never from ``time.*`` directly.
"""

from __future__ import annotations

import contextlib
import dataclasses
from collections.abc import Iterator

from ..obs.clock import MONOTONIC_CLOCK, Clock
from ..obs.metrics import MetricsRegistry

__all__ = ["StagePerf", "PerfReport", "PerfRecorder"]

#: Registry series backing the per-stage view.
_STAGE_CALLS = "engine_stage_calls_total"
_STAGE_TASKS = "engine_stage_tasks_total"
_STAGE_WALL = "engine_stage_wall_seconds_total"


@dataclasses.dataclass(frozen=True)
class StagePerf:
    """Aggregate timing of one named pipeline stage."""

    name: str
    calls: int
    wall_s: float
    tasks: int

    @property
    def tasks_per_sec(self) -> float:
        return self.tasks / self.wall_s if self.wall_s > 0 else float("inf")


@dataclasses.dataclass(frozen=True)
class PerfReport:
    """Immutable snapshot of an engine run, printable from the CLI."""

    jobs: int
    wall_s: float
    stages: tuple[StagePerf, ...]
    cache_hits: int
    cache_misses: int
    tasks_completed: int
    #: Named event counters reported by the pipelines that ran under the
    #: engine (e.g. the streaming quality gate's ``clips_inconclusive``).
    counters: dict[str, int] = dataclasses.field(default_factory=dict)

    @property
    def cache_lookups(self) -> int:
        return self.cache_hits + self.cache_misses

    @property
    def cache_hit_rate(self) -> float:
        # Guarded: an empty run (no lookups) is a 0.0 rate, not a crash.
        lookups = self.cache_lookups
        return self.cache_hits / lookups if lookups > 0 else 0.0

    @property
    def tasks_per_sec(self) -> float:
        # Guarded: a zero-duration run (empty, or a ManualClock that
        # never advanced) reports 0.0 instead of dividing by zero.
        return self.tasks_completed / self.wall_s if self.wall_s > 0 else 0.0

    def lines(self) -> list[str]:
        """The report as printable rows (one per stage plus totals)."""
        out = [
            f"PerfReport (jobs={self.jobs})",
            f"{'stage':>12s} {'calls':>7s} {'tasks':>7s} {'wall_s':>9s} {'tasks/s':>9s}",
        ]
        for stage in self.stages:
            rate = stage.tasks_per_sec
            rate_text = f"{rate:9.1f}" if rate != float("inf") else "      inf"
            out.append(
                f"{stage.name:>12s} {stage.calls:7d} {stage.tasks:7d} "
                f"{stage.wall_s:9.3f} {rate_text}"
            )
        out.append(
            f"cache: {self.cache_hits} hits / {self.cache_misses} misses "
            f"({self.cache_hit_rate:.1%} hit rate)"
        )
        out.append(
            f"total: {self.tasks_completed} tasks in {self.wall_s:.3f}s "
            f"({self.tasks_per_sec:.1f} tasks/s)"
        )
        for name in sorted(self.counters):
            out.append(f"{name}: {self.counters[name]}")
        return out

    def __str__(self) -> str:
        return "\n".join(self.lines())


class PerfRecorder:
    """Mutable counters behind :class:`PerfReport`, registry-backed.

    Stage order is preserved (first time a stage reports, it gets a row),
    so reports read in pipeline order.  The underlying
    :class:`MetricsRegistry` is shared with the engine's
    :class:`~repro.obs.instrument.Instrumentation` handle, so event
    counters recorded through either API land in the same series.
    """

    def __init__(
        self,
        clock: Clock | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self._clock = clock if clock is not None else MONOTONIC_CLOCK
        self.registry = registry if registry is not None else MetricsRegistry()
        self._stage_order: list[str] = []
        self._started = self._clock.now()

    def count(self, name: str, n: int = 1) -> None:
        """Bump a named event counter (surfaced in the report)."""
        self.registry.counter(name).inc(n)

    @contextlib.contextmanager
    def stage(self, name: str, tasks: int = 0) -> Iterator[None]:
        """Time one call of the named stage; ``tasks`` counts work items."""
        if name not in self._stage_order:
            self._stage_order.append(name)
        t0 = self._clock.now()
        try:
            yield
        finally:
            self.registry.counter(_STAGE_CALLS, stage=name).inc()
            self.registry.counter(_STAGE_WALL, stage=name).inc(self._clock.now() - t0)
            if tasks:
                self.registry.counter(_STAGE_TASKS, stage=name).inc(tasks)

    def _series_value(self, name: str, stage: str) -> float:
        found = self.registry.get(name, stage=stage)
        return found.value if found is not None else 0

    def snapshot(self, jobs: int, cache_hits: int, cache_misses: int) -> PerfReport:
        stages = tuple(
            StagePerf(
                name=name,
                calls=int(self._series_value(_STAGE_CALLS, name)),
                wall_s=float(self._series_value(_STAGE_WALL, name)),
                tasks=int(self._series_value(_STAGE_TASKS, name)),
            )
            for name in self._stage_order
        )
        counters = {
            series.name: int(series.value)
            for series in self.registry.snapshot().series
            if series.kind == "counter"
            and not series.labels
            and not series.name.startswith("engine_stage_")
        }
        return PerfReport(
            jobs=jobs,
            wall_s=self._clock.now() - self._started,
            stages=stages,
            cache_hits=cache_hits,
            cache_misses=cache_misses,
            tasks_completed=sum(stage.tasks for stage in stages),
            counters=counters,
        )
