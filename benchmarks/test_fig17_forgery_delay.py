"""Fig. 17 / Sec. VIII-J — effectiveness against the strongest attacker.

Paper's method, reproduced exactly: assume the attacker forges the
face-reflected luminance *perfectly* but needs processing time; shift a
legitimate user's received signal by that delay and measure the rejection
rate.  The paper reads ~80 % rejection at 1.3 s — any forger slower than
that is caught, and no published reenactment pipeline is that fast once a
relighting stage is added.
"""

import numpy as np

from repro.experiments.figures import figure_17_forgery_delay

from .conftest import run_once


def test_fig17_forgery_delay(benchmark, main_dataset, engine, report):
    result, lines = run_once(
        benchmark, lambda: figure_17_forgery_delay(main_dataset, engine=engine)
    )
    report("fig17_forgery_delay", lines)

    by_delay = dict(zip(result.delays_s, result.rejection_rate))
    # Shape: a perfect instant forgery mostly passes...
    assert by_delay[0.0] < 0.4
    # ...rejection grows with the delay...
    smooth = np.convolve(result.rejection_rate, [1 / 3] * 3, mode="valid")
    assert (np.diff(smooth) >= -0.12).all()
    # ...crosses high confidence around the paper's 1.3 s mark...
    assert by_delay[1.3] > 0.6
    # ...and a slow forger is hopeless.
    assert by_delay[3.0] > 0.85
