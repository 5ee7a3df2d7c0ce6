"""Shared fixtures and reporting helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures: it runs
the experiment (datasets are simulated once and cached under
``.cache/datasets``), *prints* the figure's rows and asserts the
qualitative shape the paper reports.  Timings are recorded via
pytest-benchmark.

The checked-in outputs (``results/<experiment>.txt``, ``BENCH_engine.json``
and ``BENCH_service.json``) carry host-dependent wall times, so a plain
run leaves them alone; pass ``--record`` to refresh them, e.g.
``pytest benchmarks -m smoke --record``.

First run generates ~2500 simulated chat clips (~25 minutes on one core);
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
from repro.experiments.dataset import build_dataset

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
    return build_dataset(clips_per_role=40, engine=engine)


@pytest.fixture(scope="session")
def report(record):
    """Writer that prints a figure's rows and, under ``--record``,
    persists them to ``results/<name>.txt``."""

    def _report(name: str, lines: list[str]) -> None:
        text = "\n".join(lines)
        print(f"\n=== {name} ===\n{text}")
        if record:
            RESULTS_DIR.mkdir(exist_ok=True)
            (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

    return _report


def run_once(benchmark, fn):
    """Run an experiment exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
