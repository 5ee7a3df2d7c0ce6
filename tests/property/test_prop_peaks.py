"""Property-based tests of the peak finder, one signal at a time (the
batch of one)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.peaks import find_peaks

def _peaks_of(x, min_prominence):
    return find_peaks(x[None, :], min_prominence)[0]


signal = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(min_value=3, max_value=150),
    elements=st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
)


class TestPeakProperties:
    @given(signal, st.floats(min_value=0.01, max_value=50.0))
    @settings(max_examples=60, deadline=None)
    def test_peaks_are_interior_local_maxima(self, x, prominence):
        for peak in _peaks_of(x, prominence):
            assert 0 < peak.index < x.size - 1
            assert x[peak.index] >= x[peak.index - 1]
            assert x[peak.index] >= x[peak.index + 1]
            assert peak.height == x[peak.index]

    @given(signal, st.floats(min_value=0.01, max_value=50.0))
    @settings(max_examples=60, deadline=None)
    def test_prominences_respect_gate(self, x, prominence):
        for peak in _peaks_of(x, prominence):
            assert peak.prominence >= prominence

    @given(signal)
    @settings(max_examples=60, deadline=None)
    def test_higher_gate_yields_subset(self, x):
        low = {p.index for p in _peaks_of(x, 0.5)}
        high = {p.index for p in _peaks_of(x, 5.0)}
        assert high <= low

    @given(
        hnp.arrays(
            dtype=np.float64,
            shape=st.integers(min_value=3, max_value=150),
            # Values on a binary grid (multiples of 1/64) so that adding a
            # same-grid offset is exact and plateaus survive the shift.
            elements=st.integers(min_value=-6400, max_value=6400).map(lambda k: k / 64.0),
        ),
        st.integers(min_value=-6400, max_value=6400).map(lambda k: k / 64.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_shift_invariance(self, x, offset):
        a = [(p.index, p.prominence) for p in _peaks_of(x, 1.0)]
        b = [(p.index, p.prominence) for p in _peaks_of(x + offset, 1.0)]
        assert a == b

    @given(signal)
    @settings(max_examples=60, deadline=None)
    def test_prominence_bounded_by_range(self, x):
        span = x.max() - x.min()
        for peak in _peaks_of(x, 0.01):
            assert peak.prominence <= span + 1e-12

    @given(signal)
    @settings(max_examples=60, deadline=None)
    def test_peaks_sorted_and_distinct(self, x):
        indices = [p.index for p in _peaks_of(x, 0.1)]
        assert indices == sorted(set(indices))
