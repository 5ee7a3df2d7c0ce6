"""Fig. 14 — influence of the number of detection attempts.

Paper: majority voting over D attempts raises both TAR and TRR and
shrinks their variance, whether the classifier was trained on own or
other users' data (the voting rule needs rejects > 0.7 D, so TRR can dip
slightly at D = 2-3 before recovering).
"""

from repro.experiments.figures import figure_14_attempts

from .conftest import run_once


def test_fig14_attempts(benchmark, main_dataset, engine, report):
    result, lines = run_once(
        benchmark, lambda: figure_14_attempts(main_dataset, engine=engine)
    )
    report("fig14_attempts", lines)

    first, last = 0, len(result.attempts) - 1
    # Voting improves acceptance of legitimate users...
    assert result.tar_own_mean[last] >= result.tar_own_mean[first]
    assert result.tar_other_mean[last] >= result.tar_other_mean[first]
    # ...keeps rejection strong...
    assert result.trr_mean[last] >= 0.9
    # ...and shrinks the decision variance (the robustness claim).
    assert result.tar_own_std[last] <= result.tar_own_std[first] + 0.01
    # Many-attempt voting should be near-perfect on both sides.
    assert result.tar_own_mean[last] > 0.95
