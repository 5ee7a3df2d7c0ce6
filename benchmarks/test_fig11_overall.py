"""Fig. 11 — overall single-detection performance.

Paper: average TAR 92.5 % when each volunteer's classifier is trained on
their own clips, 92.8 % when trained on *another* volunteer's clips, and
average TRR 94.4 % against ICFace reenactment — the headline claim that
the system needs no per-user and no attacker training data.
"""

from repro.experiments.figures import figure_11_overall

from .conftest import run_once


def test_fig11_overall(benchmark, main_dataset, engine, report):
    result, lines = run_once(
        benchmark, lambda: figure_11_overall(main_dataset, engine=engine)
    )
    report("fig11_overall", lines)

    # Shape assertions (who wins, roughly by what factor):
    # high acceptance for legitimate users...
    assert result.avg_tar_own > 0.80
    # ...training on others' data is as good as own data (the headline)...
    assert abs(result.avg_tar_other - result.avg_tar_own) < 0.05
    # ...and attacks are rejected at least as reliably as users are accepted.
    assert result.avg_trr > 0.90
    assert result.avg_trr >= result.avg_tar_own - 0.02
