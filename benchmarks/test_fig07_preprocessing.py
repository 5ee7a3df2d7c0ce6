"""Fig. 7 — the preprocessing chain on a real received-signal clip.

Paper's panels: (a) raw + low-passed luminance with visible rising and
falling edges at each challenge; (b) the variance signal with noise
spikes; (c) the smoothed variance with one clean peak per significant
change.  We regenerate the same panels numerically and assert each
stage's contract.
"""

import numpy as np

from repro.core.config import DetectorConfig
from repro.core.luminance import received_luminance_signal, transmitted_luminance_signal
from repro.core.preprocessing import preprocess_batch
from repro.experiments.simulate import simulate_genuine_session

from .conftest import run_once


def test_fig07_preprocessing(benchmark, report):
    config = DetectorConfig()

    def experiment():
        record = simulate_genuine_session(duration_s=15.0, seed=700)
        t_lum = transmitted_luminance_signal(record.transmitted)
        r_lum = received_luminance_signal(record.received).luminance
        prominences = [config.peak_prominence_screen, config.peak_prominence_face]
        pre_t, pre_r = preprocess_batch([t_lum, r_lum], config, prominences)
        return pre_t, pre_r

    pre_t, pre_r = run_once(benchmark, experiment)

    def _high_band_energy(x: np.ndarray) -> float:
        spectrum = np.abs(np.fft.rfft(x - x.mean())) ** 2
        freqs = np.fft.rfftfreq(x.size, d=1.0 / config.sample_rate_hz)
        return float(spectrum[freqs > 1.5].sum())

    noise_removed = _high_band_energy(pre_r.raw) / max(
        _high_band_energy(pre_r.lowpassed), 1e-9
    )
    report(
        "fig07_preprocessing",
        [
            "Fig. 7 preprocessing stages (received signal)",
            f"raw luminance range        : {pre_r.raw.min():6.1f} .. {pre_r.raw.max():6.1f}",
            f"high-freq attenuation      : {noise_removed:6.2f}x (>1.5 Hz band energy)",
            f"variance peak              : {pre_r.variance.max():6.1f}",
            f"smoothed variance peak     : {pre_r.smoothed.max():6.1f}",
            f"screen changes found       : {pre_t.change_count} at {np.round(pre_t.peak_times, 1)} s",
            f"face changes found         : {pre_r.change_count} at {np.round(pre_r.peak_times, 1)} s",
        ],
    )

    # (a) the low-pass attenuates the super-cutoff band (the residual is
    # spectral leakage of the challenge steps themselves, not noise).
    assert noise_removed > 2.0
    # (b,c) every stage non-negative after clamping; peaks exist.
    assert (pre_r.smoothed >= 0).all()
    assert pre_t.change_count >= 1
    assert pre_r.change_count >= 1
    # Each face change matches a screen change within the tolerance + delay.
    for rt in pre_r.peak_times:
        assert np.min(np.abs(pre_t.peak_times - rt)) < 1.5
