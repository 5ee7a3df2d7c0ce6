"""Sec. IX — computation overhead.

Paper: feature extraction + classification complete "within 0.2 seconds
for a luminance signal extracted from a 15-second facial video", making
the system viable on resource-limited devices.  These are true
pytest-benchmark timings of the per-clip pipeline stages; under
``--benchmark-disable`` (no stats kept) each stage is instead timed on
the obs clock over a few repeated calls, against the same bounds.
``results/sec9_overhead.txt`` states both per-clip stages, luminance
extraction and feature extraction + classification, and their sum: the
whole cost of one clip's verdict once its frames have arrived.
"""

import numpy as np
import pytest

from repro.core.config import DetectorConfig
from repro.core.detector import LivenessDetector
from repro.core.luminance import received_luminance_signal, transmitted_luminance_signal
from repro.experiments.dataset import GENUINE
from repro.experiments.simulate import simulate_genuine_session
from repro.obs.clock import MONOTONIC_CLOCK
from repro.vision.landmarks import LandmarkDetector

#: Calls averaged when pytest-benchmark keeps no stats.
UNTIMED_REPEATS = 3


def mean_seconds(benchmark, func):
    """pytest-benchmark's mean for ``func``, or the mean of
    ``UNTIMED_REPEATS`` calls on the obs clock when it kept no stats."""
    if benchmark.stats is not None:
        return benchmark.stats.stats.mean
    start = MONOTONIC_CLOCK.now()
    for _ in range(UNTIMED_REPEATS):
        func()
    return (MONOTONIC_CLOCK.now() - start) / UNTIMED_REPEATS


@pytest.fixture(scope="module")
def per_clip_ms(report):
    """Per-clip stage times in ms, filled by the tests below; the results
    file is written once both stages have been timed."""
    stages: dict[str, float] = {}
    yield stages
    if len(stages) == 2:
        lum, classify = stages["luminance"], stages["classify"]
        report(
            "sec9_overhead",
            [
                "Sec. IX computation overhead, one 15-second clip",
                f"luminance extraction (landmarks + ROI): {lum:8.2f} ms",
                f"feature extraction + classification:    {classify:8.2f} ms",
                f"whole per-clip verifier:                {lum + classify:8.2f} ms",
                "paper: < 200 ms (Matlab/Python prototype)",
            ],
        )


@pytest.fixture(scope="module")
def clip_signals(main_dataset):
    clip = main_dataset.select(role=GENUINE)[0]
    return clip.transmitted_luminance, clip.received_luminance


@pytest.fixture(scope="module")
def trained_detector(main_dataset):
    user = main_dataset.users[0]
    detector = LivenessDetector(DetectorConfig())
    detector.fit(main_dataset.features_of(user, GENUINE)[:20])
    return detector


def test_sec9_feature_extraction_and_classification(
    benchmark, clip_signals, trained_detector, per_clip_ms
):
    """The paper's quoted number: features + classification per clip."""
    t_lum, r_lum = clip_signals

    def per_clip():
        return trained_detector.verify_clip(t_lum, r_lum)

    result = benchmark(per_clip)
    assert result is not None
    mean_s = mean_seconds(benchmark, per_clip)
    per_clip_ms["classify"] = mean_s * 1000
    assert mean_s < 0.2


def test_sec9_luminance_extraction_rate(benchmark, per_clip_ms):
    """Per-frame landmark detection + ROI luminance must keep up with the
    10 Hz sampling rate (paper cites 300 fps landmarkers on phones).  The
    clip's received frames are the codec's ``uint8`` raster, as in a call;
    the transmitted side's frame means are timed with them."""
    record = simulate_genuine_session(duration_s=15.0, seed=901)
    assert {frame.pixels.dtype for frame in record.received} == {np.dtype(np.uint8)}
    landmark_detector = LandmarkDetector()

    def extract():
        t = transmitted_luminance_signal(record.transmitted)
        r = received_luminance_signal(record.received, landmark_detector)
        return t, r

    t, r = benchmark(extract)
    assert t.size == r.luminance.size == 150
    per_clip_ms["luminance"] = mean_seconds(benchmark, extract) * 1000
    per_frame_ms = per_clip_ms["luminance"] / 150
    # 10 Hz sampling needs < 100 ms per frame; we must be far below that.
    assert per_frame_ms < 20.0


def test_sec9_detection_scales_with_training_size(benchmark, main_dataset):
    """Classification cost must stay trivial even with a large bank."""
    user = main_dataset.users[0]
    bank = np.tile(main_dataset.features_of(user, GENUINE), (10, 1))  # 400 vectors
    detector = LivenessDetector(DetectorConfig())
    detector.fit(bank)
    z = main_dataset.select(role=GENUINE)[0].features

    def classify():
        return detector.verify_features(z)

    result = benchmark(classify)
    assert result is not None
    assert mean_seconds(benchmark, classify) < 0.05
