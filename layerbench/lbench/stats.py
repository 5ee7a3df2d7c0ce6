"""Exact statistics, process hygiene and the host-drift reference kernel.

Everything here is independent of the program under test: percentiles
are computed from raw samples (never from histogram buckets), the peak
resident set comes from ``getrusage``, and the hygiene checks read
``/proc`` and ``/dev/shm`` directly.
"""

from __future__ import annotations

import multiprocessing
import os
import resource
import statistics
import threading
import time

from .hostclock import reference_kernel

#: Python's ``multiprocessing.shared_memory`` names its segments
#: ``psm_<hex>``; they live under ``/dev/shm`` on Linux.
_SHM_DIR = "/dev/shm"
_SHM_PREFIX = "psm_"


def percentile(samples, q: float) -> float:
    """Exact ``q``-th percentile (0..100) of raw samples, linearly
    interpolated between order statistics (numpy's default rule)."""
    if not len(samples):
        raise ValueError("percentile of an empty sample")
    ordered = sorted(float(x) for x in samples)
    rank = (len(ordered) - 1) * q / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def share(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0.0 for an empty denominator."""
    return numerator / denominator if denominator else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process so far, in MiB (Linux reports
    ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reference_kernel_ms(repeats: int = 21) -> float:
    """Median wall time of :func:`~lbench.hostclock.reference_kernel`.

    The kernel never touches the program under test, so its drift
    between runs is host drift: printed beside each run, it tells a slow
    host apart from a slow program.  It is a diagnostic, not a metric.
    """
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        reference_kernel()
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def shm_segments() -> set[str]:
    """Names of the Python shared-memory segments currently present."""
    try:
        names = os.listdir(_SHM_DIR)
    except OSError:
        return set()
    return {name for name in names if name.startswith(_SHM_PREFIX)}


def child_pids() -> list[int]:
    """Live child processes of this process, from ``/proc``."""
    pids: list[int] = []
    task_dir = f"/proc/{os.getpid()}/task"
    try:
        tids = os.listdir(task_dir)
    except OSError:
        return pids
    for tid in tids:
        try:
            with open(f"{task_dir}/{tid}/children") as fh:
                pids.extend(int(p) for p in fh.read().split())
        except OSError:
            continue
    return pids


def os_thread_count() -> int:
    """Kernel threads of this process (BLAS pools included)."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return threading.active_count()


def hygiene_problems(shm_before: set[str]) -> list[str]:
    """What this process left behind: children, segments, extra threads."""
    problems = []
    for child in multiprocessing.active_children():
        child.join(timeout=5.0)
    children = child_pids()
    if children:
        problems.append(f"child processes still running: {children}")
    leaked = sorted(shm_segments() - shm_before)
    if leaked:
        problems.append(f"shared-memory segments left behind: {leaked}")
    if threading.active_count() != 1:
        problems.append(f"{threading.active_count()} Python threads alive")
    threads = os_thread_count()
    if threads != 1:
        problems.append(f"{threads} OS threads alive (BLAS not pinned?)")
    return problems
