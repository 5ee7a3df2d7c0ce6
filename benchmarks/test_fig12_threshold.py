"""Fig. 12 — influence of the decision threshold.

Paper: sweeping tau from 1.5 to 4, FAR rises and FRR falls; they balance
near tau in [2.8, 3] at an EER of about 5.5 %.  Our reproduction keeps
the monotone trade-off and lands at a comparable EER (5.1 %); the
crossover sits at tau ~ 6.3 because the simulated genuine LOF scores have
a heavier tail while attacks score far out (see EXPERIMENTS.md).
"""

import numpy as np

from repro.experiments.figures import figure_12_threshold

from .conftest import run_once


def test_fig12_threshold(benchmark, main_dataset, engine, report):
    result, lines = run_once(
        benchmark, lambda: figure_12_threshold(main_dataset, engine=engine)
    )
    report("fig12_threshold", lines)

    # Shape: FAR monotone up, FRR monotone down, EER in the paper's range.
    assert (np.diff(result.far) >= -1e-9).all()
    assert (np.diff(result.frr) <= 1e-9).all()
    assert result.eer < 0.12
    # At the paper's default tau=3 the operating point is usable.
    idx = int(np.argmin(np.abs(result.thresholds - 3.0)))
    assert result.far[idx] < 0.05
    assert result.frr[idx] < 0.20
