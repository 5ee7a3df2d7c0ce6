"""Micro-benchmarks of the individual pipeline components.

Not paper figures — engineering numbers that bound the Sec. IX overhead
argument per stage and catch performance regressions.
"""

import numpy as np
import pytest

from repro.camera.metering import LightMeter, MeteringMode
from repro.camera.sensor import ImageSensor
from repro.core.batch import dtw_distance_batch
from repro.core.config import DetectorConfig
from repro.core.detector import LivenessDetector
from repro.core.features import _match_and_align, _unit, pearson_correlation
from repro.core.lof import LocalOutlierFactor
from repro.core.luminance import roi_luminance
from repro.core.peaks import find_peaks
from repro.core.preprocessing import preprocess_batch
from repro.experiments.simulate import simulate_genuine_session
from repro.service.loadgen import WorkloadConfig, _face_frame
from repro.vision.expression import ExpressionTrack, PoseState
from repro.vision.face_model import make_face
from repro.vision.landmarks import LandmarkDetector
from repro.vision.renderer import FaceRenderer


@pytest.fixture(scope="module")
def luminance_signal():
    rng = np.random.default_rng(0)
    x = np.full(150, 180.0)
    x[40:] -= 50.0
    x[110:] += 50.0
    return x + rng.normal(0, 0.5, 150)


def test_bench_preprocess_chain(benchmark, luminance_signal):
    config = DetectorConfig()
    result = benchmark(lambda: preprocess_batch([luminance_signal], config, 10.0)[0])
    assert result.smoothed.size == 150


def test_bench_find_peaks_smoothed_200(benchmark):
    """The peak finder on one 20 s clip's smoothed variance signal."""
    x = np.full(200, 180.0)
    x[60:] -= 50.0
    x[140:] += 50.0
    x += np.random.default_rng(3).normal(0, 0.5, 200)
    config = DetectorConfig()
    smoothed = preprocess_batch([x], config, config.peak_prominence_screen)[0].smoothed
    peaks = benchmark(lambda: find_peaks(smoothed, config.peak_prominence_screen))
    assert len(peaks) == 2


def test_bench_pearson_90(benchmark):
    """z3 of one 18 s segment pair: two unit-range 90-sample signals."""
    rng = np.random.default_rng(4)
    x = _unit(rng.normal(size=90))
    y = _unit(x + rng.normal(0, 0.2, 90))
    r = benchmark(lambda: pearson_correlation(x, y))
    assert 0.5 < r < 1.0


def test_bench_dtw_75_samples(benchmark):
    """z4 of one 15 s clip: its two 75-sample segment pairs in one call."""
    rng = np.random.default_rng(1)
    xs = [rng.normal(size=75) for _ in range(2)]
    ys = [rng.normal(size=75) for _ in range(2)]
    distances = benchmark(lambda: dtw_distance_batch(xs, ys))
    assert distances.shape == (2,) and (distances > 0).all()


def _step_pair(rng, n=150):
    """A 15 s genuine pair: two screen steps, echoed 0.3 s later."""
    t = np.full(n, 180.0)
    t[int(rng.integers(25, 55)) :] -= 50.0
    t[int(rng.integers(85, 120)) :] += 50.0
    delayed = np.concatenate([np.full(3, t[0]), t[:-3]])
    return t, 120.0 + 0.3 * delayed + rng.normal(0.0, 0.5, n)


def test_bench_verify_clip_15s(benchmark):
    """The service's per-clip close: one 150-sample pair, filtered,
    featurised and scored against a 30-clip bank."""
    rng = np.random.default_rng(6)
    detector = LivenessDetector(DetectorConfig())
    detector.fit_from_clips(_step_pair(rng) for _ in range(30))
    t, r = _step_pair(rng)
    result = benchmark(lambda: detector.verify_clip(t, r))
    assert np.isfinite(result.lof_score) and result.features.z1 > 0


def test_bench_dtw_64_ragged_pairs(benchmark):
    """A 32-clip batch close: 64 segment pairs, 60-100 samples per side."""
    rng = np.random.default_rng(2)
    xs = [rng.normal(size=n) for n in rng.integers(60, 101, size=64)]
    ys = [rng.normal(size=m) for m in rng.integers(60, 101, size=64)]
    distances = benchmark(lambda: dtw_distance_batch(xs, ys))
    assert distances.shape == (64,) and (distances > 0).all()


def test_bench_lof_fit_and_score(benchmark):
    rng = np.random.default_rng(2)
    bank = rng.normal(size=(20, 4))
    query = rng.normal(size=4)

    def fit_and_score():
        return LocalOutlierFactor(5).fit(bank).score(query)

    score = benchmark(fit_and_score)
    assert np.isfinite(score)


def test_bench_lof_score_200x32(benchmark):
    """One batch's LOF scoring: 32 queries against a 200-vector bank."""
    rng = np.random.default_rng(2)
    model = LocalOutlierFactor(5).fit(rng.normal(size=(200, 4)))
    queries = rng.normal(size=(32, 4))
    scores = benchmark(lambda: model.score_samples(queries))
    assert scores.shape == (32,) and np.isfinite(scores).all()


def test_bench_match_and_align(benchmark):
    """The per-clip Sec. VI tail (match, delay, align, normalize, cut,
    correlate) of one 17.5 s genuine clip, short of its DTW."""
    config = DetectorConfig()
    t, r = _step_pair(np.random.default_rng(8), n=175)
    pre_t, pre_r = preprocess_batch(
        [t, r], config, [config.peak_prominence_screen, config.peak_prominence_face]
    )
    partial, segments = benchmark(lambda: _match_and_align(pre_t, pre_r, config))
    assert partial.z1 > 0 and len(segments) == config.segment_count


def test_bench_render_frame(benchmark):
    face = make_face("bench", tone="light")
    renderer = FaceRenderer(face, height=96, width=96, seed=1)
    track = ExpressionTrack(seed=2)
    pose = track.sample(1.0)
    result = benchmark(lambda: renderer.render(pose, 120.0, 50.0, 70.0))
    assert result.face_visible


def test_bench_render_frame_64(benchmark):
    """The verifier's 64x64 raster."""
    face = make_face("bench", tone="light")
    renderer = FaceRenderer(face, height=64, width=64, seed=1)
    pose = ExpressionTrack(seed=2).sample(1.0)
    result = benchmark(lambda: renderer.render(pose, 120.0, 50.0, 70.0))
    assert result.face_visible


def _radiance_96():
    renderer = FaceRenderer(make_face("bench", tone="light"), height=96, width=96, seed=1)
    return renderer.render(ExpressionTrack(seed=2).sample(1.0), 120.0, 50.0, 70.0).radiance


def test_bench_expose_frame(benchmark):
    """One noisy 96x96 exposure: the per-pixel Gaussian draw is its floor."""
    radiance = _radiance_96()
    sensor = ImageSensor(rng=np.random.default_rng(3))
    pixels = benchmark(lambda: sensor.expose(radiance, 1.0 / 250.0))
    assert pixels.shape == (96, 96, 3)


def test_bench_multi_zone_metering(benchmark):
    radiance = _radiance_96()
    meter = LightMeter(mode=MeteringMode.MULTI_ZONE)
    level = benchmark(lambda: meter.measure(radiance))
    assert level > 0


def test_bench_landmark_detection(benchmark):
    face = make_face("bench", tone="light")
    renderer = FaceRenderer(face, height=96, width=96, seed=1)
    pose = PoseState(center_x=0.5, center_y=0.48, scale=0.3, roll=0.0, blink=0.0, mouth_open=0.0)
    rendered = renderer.render(pose, 120.0, 120.0)
    pixels = ImageSensor(rng=None).expose(rendered.radiance, 1.0 / 250.0)
    detector = LandmarkDetector()
    landmarks = benchmark(lambda: detector.detect(pixels))
    assert landmarks is not None


def test_bench_landmark_detection_service_frame(benchmark):
    """The 24x24 skin patch the service load generator sends per tick."""
    pixels = _face_frame(WorkloadConfig(), 120.0, 0.0).pixels
    detector = LandmarkDetector()
    landmarks = benchmark(lambda: detector.detect(pixels))
    assert landmarks is not None


def test_bench_received_probe_service_frame(benchmark):
    """The whole received-frame probe on the 24x24 service frame:
    detect -> nasal-bridge ROI -> ROI mean luminance."""
    frame = _face_frame(WorkloadConfig(), 120.0, 0.0)
    detector = LandmarkDetector()
    value = benchmark(lambda: roi_luminance(detector, frame))
    assert value is not None


def test_bench_skin_mask_96(benchmark):
    face = make_face("bench", tone="light")
    renderer = FaceRenderer(face, height=96, width=96, seed=1)
    pose = PoseState(center_x=0.5, center_y=0.48, scale=0.3, roll=0.0, blink=0.0, mouth_open=0.0)
    rendered = renderer.render(pose, 120.0, 120.0)
    pixels = ImageSensor(rng=None).expose(rendered.radiance, 1.0 / 250.0)
    detector = LandmarkDetector()
    mask = benchmark(lambda: detector.skin_mask(pixels))
    assert mask.shape == (96, 96) and mask.any()


def test_bench_full_session_simulation(benchmark):
    """One 15-second chat simulation (the testbed's own cost, not the
    detector's)."""
    counter = iter(range(10_000))

    def session():
        return simulate_genuine_session(duration_s=15.0, seed=5000 + next(counter))

    record = benchmark.pedantic(session, rounds=3, iterations=1)
    assert len(record.transmitted) == 150
