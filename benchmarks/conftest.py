"""Shared fixtures and reporting helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures: it runs
the experiment (datasets are simulated once and cached under
``.cache/datasets``), *prints* the figure's rows and asserts the
qualitative shape the paper reports.  Timings are recorded via
pytest-benchmark.

The checked-in outputs (``results/<experiment>.txt``, ``BENCH_engine.json``
and ``BENCH_service.json``) carry host-dependent wall times, so a plain
run leaves them alone; pass ``--record`` to refresh them, e.g.
``pytest benchmarks -m smoke --record``.  Results files are written by
:func:`repro.experiments.figures.write_results`, stamp line first; the
Fig. 11-17 and Sec. VIII-I benchmarks run the matching ``FIGURES``
generator, so ``repro figures`` writes the same bytes.

First run generates ~2500 simulated chat clips: the whole suite took
11 minutes cold with ``REPRO_BENCH_JOBS=2`` on a 2-core host;
subsequent runs load everything from the dataset cache.  Set
``REPRO_BENCH_JOBS=N`` to simulate and evaluate over N worker processes —
results are bit-identical at any job count.  ``pytest benchmarks -m smoke``
runs only the fast deterministic subset (no full-scale simulation).
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.engine import ExecutionEngine
from repro.experiments.figures import headline_dataset, write_results

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


def pytest_addoption(parser):
    parser.addoption(
        "--record",
        action="store_true",
        help="rewrite the checked-in results/*.txt and BENCH_*.json files",
    )


@pytest.fixture(scope="session")
def record(request) -> bool:
    """Whether this run rewrites the checked-in benchmark outputs."""
    return request.config.getoption("--record")


@pytest.fixture(scope="session")
def engine():
    """Session-wide execution engine shared by every benchmark.

    Job count comes from ``REPRO_BENCH_JOBS`` (default 1, i.e. serial);
    the feature cache persists across benchmarks so sweeps that revisit
    the same clips pay extraction once.
    """
    jobs = int(os.environ.get("REPRO_BENCH_JOBS", "1"))
    with ExecutionEngine(jobs=jobs) as eng:
        yield eng


@pytest.fixture(scope="session")
def main_dataset(engine):
    """The paper's headline dataset: 10 users x 2 roles x 40 clips."""
    return headline_dataset(engine)


def make_report(record: bool, results_dir: pathlib.Path = RESULTS_DIR):
    """Writer that prints a figure's rows and, when ``record`` is set,
    persists them to ``<results_dir>/<name>.txt`` through the figures
    module's one writer (stamp line first)."""

    def _report(name: str, lines: list[str]) -> None:
        print(f"\n=== {name} ===\n" + "\n".join(lines))
        if record:
            write_results(results_dir, name, lines)

    return _report


@pytest.fixture(scope="session")
def report(record):
    """The session's :func:`make_report` writer (writes only under ``--record``)."""
    return make_report(record)


def run_once(benchmark, fn):
    """Run an experiment exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
