"""Parallel, cached, instrumented execution of the experiment protocol.

:class:`ExecutionEngine` is the one object the evaluation harness talks
to.  It provides three guarantees:

**Determinism.**  Work is submitted as an ordered list of self-contained
tasks, each carrying its own seed material (see :func:`task_rng`), and
results come back in submission order.  Nothing about the outcome
depends on how many workers ran or how the OS scheduled them, so
``jobs=4`` is bit-identical to ``jobs=1`` — and to running the same
tasks without any engine at all.

**Memoization.**  Feature extraction — the per-clip hot path — is
routed through a content-addressed :class:`~repro.engine.cache.FeatureCache`
keyed by the raw signal bytes plus the full
:class:`~repro.core.config.DetectorConfig` fingerprint.  Sweeps that
revisit clips (threshold, attempts, training size, forgery delay at
zero shift) stop re-running the preprocessing chain.

**Measurement.**  Every stage executed under the engine is timed, cache
traffic is counted, and :meth:`perf_report` returns a printable
:class:`~repro.engine.perf.PerfReport` (the CLI's ``--perf`` flag).

Workers are plain ``concurrent.futures`` processes; task functions must
be module-level (picklable).  The pool serves :meth:`map_batches` only:
cache misses always run through the in-process batch core, which the
pool does not beat.  It is created lazily on the first parallel map and
torn down by :meth:`close` (or the context manager), so a serial engine
never pays for a pool.
"""

from __future__ import annotations

import argparse
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor
from contextlib import AbstractContextManager
from typing import Any, TypeVar

import numpy as np

from ..core.config import DetectorConfig
from ..core.features import FeatureVector, extract_features_batch
from ..core.preprocessing import NonFiniteSampleError
from ..obs.instrument import Instrumentation
from ..obs.metrics import MetricsSnapshot
from .cache import FeatureCache
from .perf import PerfRecorder, PerfReport

__all__ = ["ExecutionEngine", "jobs_count", "task_rng"]

_T = TypeVar("_T")
_R = TypeVar("_R")


def task_rng(*key: int) -> np.random.Generator:
    """Deterministic per-task random generator.

    Each protocol task (one user's rounds, one sweep point, ...) derives
    its generator from the experiment seed plus its own coordinates, so
    the stream a task sees is a pure function of *what* the task is, not
    of *when or where* it runs.  This is what makes parallel execution
    bit-identical to serial.
    """
    return np.random.default_rng(list(key))


def jobs_count(text: str) -> int:
    """The ``argparse`` type of every CLI ``--jobs`` flag.

    Accepts only positive integers, so ``--jobs 0`` is a usage error
    (exit code 2) at parse time instead of the engine's ``ValueError``.
    """
    jobs = int(text)
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {jobs}")
    return jobs


def _run_chunk(payload: tuple[Callable[[Any], Any], list[Any]]) -> list[Any]:
    """Worker-side execution of one chunk of tasks (module-level for
    pickling): the function is shipped once per chunk, not once per task."""
    fn, chunk = payload
    return [fn(task) for task in chunk]


class ExecutionEngine(AbstractContextManager):
    """Maps protocol tasks over a process pool, with caching and perf.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` (the default) executes in-process with
        no pool; results are identical either way.
    cache:
        Shared :class:`FeatureCache`; a private one is created when not
        given.  Pass one engine (or one cache) across several runners to
        let sweeps reuse each other's extractions.
    instrumentation:
        Optional :class:`~repro.obs.instrument.Instrumentation`.  Its
        tracer (when present) records ``engine.<stage>`` spans around
        every mapped stage; its registry is ignored in favour of the
        engine's own perf registry so that :attr:`instrumentation` —
        the handle instrumented pipelines should use — feeds the same
        series :meth:`perf_report` renders from.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: FeatureCache | None = None,
        instrumentation: Instrumentation | None = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.cache = cache if cache is not None else FeatureCache()
        self._recorder = PerfRecorder()
        external = Instrumentation.ensure(instrumentation)
        #: The handle pipelines running under this engine should record
        #: through: the engine's perf registry plus the caller's tracer.
        self.instrumentation = Instrumentation(
            registry=self._recorder.registry, tracer=external.tracer
        )
        self._pool: ProcessPoolExecutor | None = None

    # ------------------------------------------------------------------
    # Task mapping
    # ------------------------------------------------------------------

    def map_batches(
        self,
        fn: Callable[[_T], _R],
        tasks: Sequence[_T],
        stage: str = "map",
        chunk_size: int | None = None,
    ) -> list[_R]:
        """Apply ``fn`` to every task, in order, with chunked submission.

        The one place task batching lives: every runner that fans work
        out (experiment sweeps, session simulation, the fault matrix)
        routes through here, so chunk sizing policy is defined once.
        Each chunk ships ``fn`` plus its tasks as a single pickle and a
        worker runs the whole chunk — ``jobs * chunks-per-worker``
        pickles total instead of one per task.

        ``fn`` must be a module-level callable and each task must carry
        everything it needs (including its seed) — the engine does not
        smuggle state into workers.  An empty task list is a no-op: no
        span, no ``engine_stage_*`` sample, no pool spin-up.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        span = self.instrumentation.span(
            f"engine.{stage}", stage="engine", tasks=len(tasks), jobs=self.jobs
        )
        with span, self._recorder.stage(stage, tasks=len(tasks)):
            if self.jobs == 1 or len(tasks) == 1:
                return [fn(task) for task in tasks]
            if chunk_size is None:
                # Amortize pickling while leaving a few chunks per worker
                # for load balancing.
                chunk_size = max(1, -(-len(tasks) // (self.jobs * 4)))
            chunks = [
                tasks[i : i + chunk_size] for i in range(0, len(tasks), chunk_size)
            ]
            pool = self._ensure_pool()
            futures = [pool.submit(_run_chunk, (fn, chunk)) for chunk in chunks]
            results: list[_R] = []
            for future in futures:
                results.extend(future.result())
            return results

    def stage(self, name: str, tasks: int = 0):
        """Context manager timing an in-process stage (e.g. aggregation)."""
        return self._recorder.stage(name, tasks=tasks)

    def count(self, name: str, n: int = 1) -> None:
        """Bump a named event counter in the perf report (e.g. the
        streaming quality gate's ``clips_inconclusive``)."""
        self._recorder.count(name, n)

    def merge_snapshot(self, snapshot: MetricsSnapshot) -> None:
        """Fold a worker's :class:`MetricsSnapshot` into this engine's
        registry.  Merging worker snapshots in submission order is the
        associative path that keeps ``jobs=N`` metrics bit-identical to
        ``jobs=1`` (enabled handles themselves never cross processes)."""
        self._recorder.registry.merge_snapshot(snapshot)

    # ------------------------------------------------------------------
    # Cached feature extraction
    # ------------------------------------------------------------------

    def extract_features_batch(
        self,
        pairs: Sequence[tuple[np.ndarray, np.ndarray]],
        config: DetectorConfig,
        stage: str = "features",
    ) -> list[FeatureVector]:
        """Features for many clips: cache lookups first, then one
        in-process structure-of-arrays batch over the misses only.

        The misses never go to the pool, so the result is the same at
        any ``jobs``.  Duplicate pairs within one batch are extracted
        once.  An empty batch is a no-op (no span, no stage sample).
        A non-finite sample raises
        :class:`~repro.core.preprocessing.NonFiniteSampleError` (a
        ``ValueError``) with the caller's index of the offending pair.
        """
        pairs = list(pairs)
        if not pairs:
            return []
        keys = self.cache.keys_for(pairs, config)
        span = self.instrumentation.span(
            f"engine.{stage}", stage="engine", tasks=len(pairs), jobs=self.jobs
        )
        with span, self._recorder.stage(stage, tasks=len(pairs)):
            found: dict[str, FeatureVector] = {}
            pending: set[str] = set()
            miss_keys: list[str] = []
            miss_pairs: list[tuple[np.ndarray, np.ndarray]] = []
            miss_index: list[int] = []  # the caller's index of each miss
            for i, (key, (t, r)) in enumerate(zip(keys, pairs)):
                if key in found or key in pending:  # duplicate within this batch
                    self.cache.hits += 1
                    continue
                cached = self.cache.get(key)
                if cached is not None:
                    found[key] = cached
                else:
                    pending.add(key)
                    miss_keys.append(key)
                    miss_pairs.append((t, r))
                    miss_index.append(i)
            if miss_pairs:
                try:
                    extracted = extract_features_batch(miss_pairs, config)
                except NonFiniteSampleError as exc:
                    raise NonFiniteSampleError(miss_index[exc.index]) from None
                for key, extraction in zip(miss_keys, extracted):
                    self.cache.put(key, extraction.features)
                    found[key] = extraction.features
        return [found[key] for key in keys]

    # ------------------------------------------------------------------
    # Performance
    # ------------------------------------------------------------------

    def perf_report(self) -> PerfReport:
        """Snapshot of all stages, cache traffic, and throughput."""
        return self._recorder.snapshot(
            jobs=self.jobs,
            cache_hits=self.cache.hits,
            cache_misses=self.cache.misses,
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ExecutionEngine(jobs={self.jobs}, cache_entries={len(self.cache)}, "
            f"hits={self.cache.hits}, misses={self.cache.misses})"
        )
