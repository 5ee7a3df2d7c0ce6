"""The Sec. V filter chain: each stage's numerics, stated on its batch
kernel over ``(clips, samples)`` rows, plus the composition."""

import dataclasses

import numpy as np
import pytest

from repro.core.batch import (
    moving_rms_batch,
    moving_variance_batch,
    reflect_convolve_batch,
    threshold_filter_batch,
)
from repro.core.config import DetectorConfig
from repro.core.preprocessing import (
    _filter_kernels,
    design_lowpass,
    preprocess_batch,
    savgol_coefficients,
)

#: The paper's 1 Hz low-pass at 10 Hz sampling, 41 taps.
LOWPASS = design_lowpass(1.0, 10.0, 41)


class TestLowpassDesign:
    def test_unit_dc_gain(self):
        kernel = design_lowpass(1.0, 10.0, 41)
        assert kernel.sum() == pytest.approx(1.0)

    def test_kernel_is_symmetric(self):
        kernel = design_lowpass(1.0, 10.0, 41)
        assert np.allclose(kernel, kernel[::-1])

    def test_rejects_cutoff_at_nyquist(self):
        with pytest.raises(ValueError):
            design_lowpass(5.0, 10.0, 41)

    def test_rejects_even_taps(self):
        with pytest.raises(ValueError):
            design_lowpass(1.0, 10.0, 40)


class TestLowpassFilter:
    def test_preserves_dc(self):
        x = np.full((1, 100), 42.0)
        assert np.allclose(reflect_convolve_batch(x, LOWPASS), 42.0)

    def test_attenuates_high_frequency(self):
        t = np.arange(200) / 10.0
        lo = np.sin(2 * np.pi * 0.2 * t)
        hi = np.sin(2 * np.pi * 4.0 * t)
        out, lo_out = reflect_convolve_batch(np.stack([lo + hi, lo]), LOWPASS)
        # The 4 Hz component should be crushed; the 0.2 Hz one kept.
        residual_hi = out - lo_out
        assert np.abs(residual_hi[30:-30]).max() < 0.05
        assert np.abs(out[30:-30]).max() > 0.8

    def test_length_preserved(self):
        x = np.random.default_rng(0).normal(size=(1, 57))
        assert reflect_convolve_batch(x, LOWPASS).shape == (1, 57)

    def test_short_signal_does_not_crash(self):
        x = np.array([[1.0, 2.0, 3.0]])
        assert reflect_convolve_batch(x, LOWPASS).shape == (1, 3)


class TestMovingVariance:
    def test_constant_signal_zero_variance(self):
        assert np.allclose(moving_variance_batch(np.full((1, 30), 7.0), 10), 0.0)

    def test_step_produces_local_bump(self):
        x = np.concatenate([np.zeros(30), np.full(30, 10.0)])
        (var,) = moving_variance_batch(x[None, :], 10)
        assert var[:25].max() == pytest.approx(0.0)
        assert var[45:].max() == pytest.approx(0.0)
        assert var[28:40].max() == pytest.approx(25.0)  # (h/2)^2 at the edge

    def test_matches_numpy_variance_per_window(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=50)
        (var,) = moving_variance_batch(x[None, :], 10)
        for i in range(9, 50):
            assert var[i] == pytest.approx(np.var(x[i - 9 : i + 1]), abs=1e-10)

    def test_prefix_windows_grow(self):
        x = np.array([0.0, 10.0, 0.0, 10.0])
        (var,) = moving_variance_batch(x[None, :], 10)
        assert var[0] == pytest.approx(0.0)
        assert var[1] == pytest.approx(np.var(x[:2]))

    def test_never_negative(self):
        x = np.random.default_rng(2).normal(size=(1, 100)) * 1e8
        assert (moving_variance_batch(x, 10) >= 0).all()


class TestVectorizedBitIdentity:
    """The cumsum-sliced variance and RMS kernels must be bit-identical
    (==, not allclose) to the per-sample loop they replaced."""

    @staticmethod
    def _loop_variance(x, window):
        csum = np.concatenate(([0.0], np.cumsum(x)))
        csum2 = np.concatenate(([0.0], np.cumsum(x * x)))
        out = np.empty_like(x)
        for i in range(x.size):
            lo = max(i - window + 1, 0)
            n = i - lo + 1
            mean = (csum[i + 1] - csum[lo]) / n
            mean2 = (csum2[i + 1] - csum2[lo]) / n
            out[i] = max(mean2 - mean * mean, 0.0)
        return out

    @staticmethod
    def _loop_rms(x, window):
        csum2 = np.concatenate(([0.0], np.cumsum(x * x)))
        half = window // 2
        out = np.empty_like(x)
        for i in range(x.size):
            lo = max(i - half, 0)
            hi = min(i + window - half, x.size)
            out[i] = np.sqrt((csum2[hi] - csum2[lo]) / (hi - lo))
        return out

    @pytest.mark.parametrize("window", [1, 3, 10, 30, 200])
    def test_variance_matches_loop_exactly(self, window):
        rng = np.random.default_rng(4)
        x = rng.normal(120.0, 15.0, 150)
        got = moving_variance_batch(x[None, :], window)[0]
        assert (got == self._loop_variance(x, window)).all()

    @pytest.mark.parametrize("window", [1, 3, 10, 30, 200])
    def test_rms_matches_loop_exactly(self, window):
        rng = np.random.default_rng(5)
        x = np.abs(rng.normal(0.0, 2.0, 150))
        assert (moving_rms_batch(x[None, :], window)[0] == self._loop_rms(x, window)).all()

    def test_empty_signal_round_trips(self):
        assert moving_variance_batch(np.zeros((1, 0)), 10).shape == (1, 0)
        assert moving_rms_batch(np.zeros((1, 0)), 10).shape == (1, 0)


class TestThresholdFilter:
    def test_zeroes_below_cutoff(self):
        x = np.array([[0.5, 2.0, 1.9, 3.0]])
        out = threshold_filter_batch(x, 2.0)
        assert out.tolist() == [[0.0, 2.0, 0.0, 3.0]]

    def test_rejects_negative_cutoff(self):
        with pytest.raises(ValueError):
            threshold_filter_batch(np.zeros((1, 3)), -1.0)


class TestMovingRms:
    def test_constant_signal_is_fixed_point(self):
        assert np.allclose(moving_rms_batch(np.full((1, 50), 3.0), 30), 3.0)

    def test_rms_of_centered_window(self):
        x = np.zeros((1, 60))
        x[0, 30] = 6.0
        (out,) = moving_rms_batch(x, 30)
        # Any window containing the spike has RMS sqrt(36/30).
        assert out[30] == pytest.approx(np.sqrt(36.0 / 30.0))

    def test_non_negative(self):
        x = np.random.default_rng(3).normal(size=(1, 80))
        assert (moving_rms_batch(x, 30) >= 0).all()


class TestSavgol:
    def test_coefficients_sum_to_one(self):
        assert savgol_coefficients(31, 3).sum() == pytest.approx(1.0)

    def test_matches_scipy(self):
        scipy_signal = pytest.importorskip("scipy.signal")
        ours = savgol_coefficients(31, 3)
        theirs = scipy_signal.savgol_coeffs(31, 3)
        assert np.allclose(ours, theirs)

    def test_polynomial_is_reproduced_exactly(self):
        # A cubic is in the fit space, so the filter must pass it through.
        t = np.linspace(-1, 1, 101)
        x = 2 + t - 0.5 * t**2 + 0.3 * t**3
        (out,) = reflect_convolve_batch(x[None, :], savgol_coefficients(31, 3))
        assert np.allclose(out[20:-20], x[20:-20], atol=1e-8)

    def test_rejects_even_window(self):
        with pytest.raises(ValueError):
            savgol_coefficients(30, 3)


class TestMovingAverage:
    KERNEL = np.full(10, 1.0 / 10)

    def test_preserves_mean_of_constant(self):
        assert np.allclose(reflect_convolve_batch(np.full((1, 40), 5.0), self.KERNEL), 5.0)

    def test_smooths_alternating_signal(self):
        x = np.tile([0.0, 10.0], 30)
        (out,) = reflect_convolve_batch(x[None, :], self.KERNEL)
        assert np.abs(out[10:-10] - 5.0).max() < 1.1


class TestPreprocessComposition:
    def test_all_stages_present_and_same_length(self, step_signal, config):
        pre = preprocess_batch([step_signal], config, config.peak_prominence_screen)[0]
        n = step_signal.size
        for name in ("raw", "lowpassed", "variance", "thresholded", "rms", "savgol", "smoothed"):
            assert getattr(pre, name).size == n

    def test_early_stages_equal_the_kernels_chained_by_hand(self, step_signal, config):
        pre = preprocess_batch([step_signal], config, config.peak_prominence_screen)[0]
        lowpass_kernel = _filter_kernels(config)[0]
        lowpassed = reflect_convolve_batch(step_signal[None, :], lowpass_kernel)
        variance = moving_variance_batch(lowpassed, config.variance_window)
        thresholded = threshold_filter_batch(variance, config.variance_threshold)
        assert pre.lowpassed.tobytes() == lowpassed[0].tobytes()
        assert pre.variance.tobytes() == variance[0].tobytes()
        assert pre.thresholded.tobytes() == thresholded[0].tobytes()
        assert pre.thresholded.any()  # the steps clear the threshold

    def test_two_steps_give_two_peaks(self, step_signal, config):
        pre = preprocess_batch([step_signal], config, config.peak_prominence_screen)[0]
        assert pre.change_count == 2
        # Steps at 4 s and 11 s; variance peaks trail slightly.
        assert abs(pre.peak_times[0] - 4.0) < 1.2
        assert abs(pre.peak_times[1] - 11.0) < 1.2

    def test_smoothed_signal_clamped_non_negative(self, step_signal, config):
        pre = preprocess_batch([step_signal], config, config.peak_prominence_screen)[0]
        assert (pre.smoothed >= 0).all()
        assert (pre.savgol >= 0).all()

    def test_no_phantom_midpoint_peak(self, config):
        # Regression: Savitzky-Golay undershoot between two lumps used to
        # create a spurious negative-valued local maximum.
        x = np.full(150, 180.0)
        x[40:] -= 40.0
        x[110:] += 40.0
        pre = preprocess_batch([x], config, 0.5)[0]
        times = pre.peak_times
        mid = (times > 6.0) & (times < 9.5)
        assert not mid.any(), f"phantom peaks at {times[mid]}"

    def test_flat_signal_has_no_changes(self, config):
        pre = preprocess_batch([np.full(150, 100.0)], config, 0.5)[0]
        assert pre.change_count == 0

    def test_noise_only_signal_has_no_changes(self, config):
        rng = np.random.default_rng(7)
        x = 150.0 + rng.normal(0.0, 0.8, 150)  # sensor-level noise
        pre = preprocess_batch([x], config, config.peak_prominence_face)[0]
        assert pre.change_count == 0

    def test_peak_times_use_sample_rate(self, step_signal):
        cfg5 = DetectorConfig(sample_rate_hz=5.0)
        pre = preprocess_batch([step_signal], cfg5, 10.0)[0]
        assert np.allclose(pre.peak_times, pre.peak_indices / 5.0)


class TestKernelMemo:
    """preprocess_batch designs its FIR kernels once per config."""

    @pytest.mark.parametrize(
        "overrides",
        [{}, {"lowpass_taps": 31, "savgol_polyorder": 2}, {"sample_rate_hz": 5.0}],
    )
    def test_memoised_kernels_equal_fresh_designs_bit_for_bit(self, overrides):
        config = DetectorConfig(**overrides)
        fresh = (
            design_lowpass(
                config.lowpass_cutoff_hz, config.sample_rate_hz, config.lowpass_taps
            ),
            savgol_coefficients(config.savgol_window, config.savgol_polyorder),
            np.full(config.moving_average_window, 1.0 / config.moving_average_window),
        )
        for _ in range(2):  # the designing call and a memo hit
            memo = _filter_kernels(config)
            for got, want in zip(memo, fresh, strict=True):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    def test_one_design_per_filter_fields_shared_read_only(self, config):
        first = _filter_kernels(config)
        # Fields outside the filter chain do not make a new design.
        again = _filter_kernels(dataclasses.replace(config, lof_threshold=2.5))
        assert all(a is b for a, b in zip(first, again, strict=True))
        for kernel in first:
            assert not kernel.flags.writeable
            with pytest.raises(ValueError):
                kernel[0] = 0.0
        other = _filter_kernels(dataclasses.replace(config, moving_average_window=5))
        assert other[2].size == 5
        assert other[0].tobytes() == first[0].tobytes()


class TestPerSignalProminence:
    def test_sequence_equals_one_call_per_gate(self, step_signal, config):
        signals = [step_signal, step_signal[:120] * 0.2, step_signal[::-1].copy()]
        gates = [10.0, 0.5, 10.0]
        got = preprocess_batch(signals, config, gates)
        for signal, gate, pre in zip(signals, gates, got, strict=True):
            want = preprocess_batch([signal], config, gate)[0]
            assert pre.smoothed.tobytes() == want.smoothed.tobytes()
            assert pre.peaks == want.peaks

    @pytest.mark.parametrize("gates", [[], [0.5], [0.5, 0.5, 0.5]])
    def test_length_mismatch_is_refused(self, step_signal, config, gates):
        with pytest.raises(ValueError, match="one prominence per signal"):
            preprocess_batch([step_signal, step_signal], config, gates)


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_preprocess_refuses(self, step_signal, config, bad):
        x = step_signal.copy()
        x[70] = bad
        with pytest.raises(ValueError, match="signal 0 has a non-finite sample"):
            preprocess_batch([x], config, 0.5)

    def test_batch_names_the_first_bad_signal(self, step_signal, config):
        bad = step_signal.copy()
        bad[-1] = np.nan
        signals = [step_signal, step_signal[:120], bad, bad[:130].copy()]
        signals[3][5] = np.inf
        with pytest.raises(ValueError, match="signal 2 has a non-finite sample"):
            preprocess_batch(signals, config, 0.5)

    def test_padding_is_not_a_sample(self, step_signal, config):
        # The shorter signal rides zero-padded to the longer one's length;
        # its results equal a batch of that signal alone.
        signals = [step_signal, step_signal[:100]]
        got = preprocess_batch(signals, config, 0.5)
        for signal, pre in zip(signals, got, strict=True):
            want = preprocess_batch([signal], config, 0.5)[0]
            assert pre.smoothed.tobytes() == want.smoothed.tobytes() and pre.peaks == want.peaks
