"""Every checked-in results file was generated by today's code.

Reads the files only: a file whose first line is not today's
:func:`~repro.experiments.figures.results_stamp` was written before the
dataset generator or the detector config last changed, and must be
regenerated (``pytest benchmarks --record``).
"""

import pathlib

from repro.experiments.figures import results_stamp

RESULTS_DIR = pathlib.Path(__file__).resolve().parents[2] / "results"


def test_every_results_file_carries_todays_stamp():
    files = sorted(RESULTS_DIR.glob("*.txt"))
    assert files
    stamp = results_stamp()
    stale = [f.name for f in files if f.read_text().partition("\n")[0] != stamp]
    assert not stale, f"not stamped {stamp!r}: {stale}"
