"""Fig. 15 — influence of the number of training instances.

Paper (one volunteer): 8 training instances already give TAR 92.25 % and
TRR 91 %; raising to 20 nudges them to 94.75 %/95.75 % and cuts the
standard deviations by up to 8.8 % — i.e. the system launches cheaply and
stabilizes with more data.
"""

from repro.experiments.figures import figure_15_training_size

from .conftest import run_once


def test_fig15_training_size(benchmark, main_dataset, engine, report):
    result, lines = run_once(
        benchmark, lambda: figure_15_training_size(main_dataset, engine=engine)
    )
    report("fig15_training_size", lines)

    sizes = list(result.sizes)
    i8 = sizes.index(8)
    i20 = sizes.index(20)
    # 8 instances are already serviceable...
    assert result.tar_mean[i8] > 0.7
    assert result.trr_mean[i8] > 0.7
    # ...20 instances at least as good on rejection...
    assert result.trr_mean[i20] >= result.trr_mean[i8] - 0.03
    # ...and the variability shrinks with more data.
    assert result.tar_std[i20] <= result.tar_std[i8] + 0.02
    assert result.trr_std[i20] <= result.trr_std[i8] + 0.02
