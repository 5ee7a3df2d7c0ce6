"""Parallel cached execution engine for the experiment protocol.

Public surface:

* :class:`ExecutionEngine` — deterministic process-pool mapping, cached
  feature extraction, per-stage perf counters.
* :class:`FeatureCache` — content-addressed feature memo (signal hash +
  config fingerprint).
* :class:`PerfReport` / :class:`StagePerf` — printable run measurements.
* :func:`task_rng` — the per-task seeding rule every runner uses.
* :func:`jobs_count` — the ``argparse`` type of every CLI ``--jobs``.
"""

from .cache import FeatureCache, clip_signal_hash, config_fingerprint
from .engine import ExecutionEngine, jobs_count, task_rng
from .perf import PerfRecorder, PerfReport, StagePerf

__all__ = [
    "ExecutionEngine",
    "FeatureCache",
    "PerfRecorder",
    "PerfReport",
    "StagePerf",
    "clip_signal_hash",
    "config_fingerprint",
    "jobs_count",
    "task_rng",
]
