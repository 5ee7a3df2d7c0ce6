"""Fig. 16 / Sec. VIII-H — influence of the sampling rate.

Paper (one volunteer): 10 Hz and 8 Hz both give >= 95 % mean accuracy;
at 5 Hz the TAR degrades mildly (~86 %) while the TRR *collapses* (~48 %)
— the filter windows are fixed in samples, so at 5 Hz the smoothing
spans twice the time and the matching/trend evidence blurs away, letting
attackers through.  8 Hz is the lowest viable rate.
"""

from repro.experiments.figures import figure_16_sampling_rate

from .conftest import run_once


def test_fig16_sampling_rate(benchmark, engine, report):
    result, lines = run_once(benchmark, lambda: figure_16_sampling_rate(engine=engine))
    report("fig16_sampling_rate", lines)

    by_label = {p.label: p for p in result.points}
    hz10 = by_label["10 Hz"]
    hz8 = by_label["8 Hz"]
    hz5 = by_label["5 Hz"]

    # Shape: 8 Hz holds up close to 10 Hz...
    assert hz8.tar_mean > hz10.tar_mean - 0.15
    assert hz8.trr_mean > 0.85
    # ...while 5 Hz loses security much faster than usability (the
    # paper's key observation: TRR collapses first).
    assert hz5.trr_mean < hz8.trr_mean - 0.2
    assert (hz8.trr_mean - hz5.trr_mean) > (hz8.tar_mean - hz5.tar_mean)
