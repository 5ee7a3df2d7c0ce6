"""Micro-benchmarks of the individual pipeline components.

Not paper figures — engineering numbers that bound the Sec. IX overhead
argument per stage and catch performance regressions.
"""

import numpy as np
import pytest

from repro.camera.camera import Camera
from repro.camera.exposure import AutoExposureController
from repro.camera.metering import LightMeter, MeteringMode
from repro.camera.sensor import ImageSensor
from repro.core import batch as batch_module
from repro.core.batch import dtw_distance_batch
from repro.core.config import DetectorConfig
from repro.core.detector import LivenessDetector
from repro.core.features import _features_from_signals_batch, _unit, pearson_correlation
from repro.core.lof import LocalOutlierFactor
from repro.core.luminance import roi_luminance
from repro.core.peaks import find_peaks
from repro.core.preprocessing import preprocess_batch
from repro.obs.instrument import NULL
from repro.experiments.simulate import simulate_genuine_session
from repro.service.loadgen import WorkloadConfig, _face_frame
from repro.video.codec import VideoCodec
from repro.video.frame import Frame
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
    peaks = benchmark(lambda: find_peaks(smoothed[None, :], config.peak_prominence_screen)[0])
    assert len(peaks) == 2


def _pair_signals(count, n, seed):
    """``count`` raw luminance signals of ``n`` samples, alternating a
    screen step signal and its dimmer, noisier face reflection."""
    rng = np.random.default_rng(seed)
    signals = []
    for _ in range(count // 2):
        t, r = _step_pair(rng, n)
        signals += [t + rng.normal(0.0, 0.5, n), r]
    return signals


@pytest.mark.parametrize("count, n", [(2, 150), (48, 175)])
def test_bench_preprocess_group(benchmark, count, n):
    """The Sec. V chain over one length group with per-signal gates: a
    clip close's transmitted/received pair, and a 48-signal batch group."""
    config = DetectorConfig()
    signals = _pair_signals(count, n, seed=count)
    gates = [config.peak_prominence_screen, config.peak_prominence_face] * (count // 2)
    results = benchmark(lambda: preprocess_batch(signals, config, gates))
    assert len(results) == count
    assert all(pre.change_count >= 1 for pre in results)


def test_bench_pearson_90(benchmark):
    """z3 of one 18 s segment pair: two unit-range 90-sample signals."""
    rng = np.random.default_rng(4)
    x = _unit(rng.normal(size=(1, 90)))[0]
    y = _unit((x + rng.normal(0, 0.2, 90))[None, :])[0]
    r = benchmark(lambda: pearson_correlation(x, y))
    assert 0.5 < r < 1.0


def test_bench_dtw_75_samples(benchmark):
    """z4 of one 15 s clip: its two 75-sample segment pairs in one call."""
    rng = np.random.default_rng(1)
    xs = [rng.normal(size=75) for _ in range(2)]
    ys = [rng.normal(size=75) for _ in range(2)]
    distances = benchmark(lambda: dtw_distance_batch(xs, ys))
    assert distances.shape == (2,) and (distances > 0).all()


def _service_dtw_calls():
    """One clip close's z4 call per service shape: two segment pairs of
    70-75 samples a side (``k = 2``, ``N = M``)."""
    rng = np.random.default_rng(9)
    return [
        ([rng.normal(size=n) for _ in range(2)], [rng.normal(size=n) for _ in range(2)])
        for n in range(70, 76)
    ]


def test_bench_dtw_service_shapes(benchmark):
    """Six clip closes, one per service shape, with their plans kept."""
    calls = _service_dtw_calls()
    distances = benchmark(lambda: [dtw_distance_batch(xs, ys) for xs, ys in calls])
    assert all(d.shape == (2,) and (d > 0).all() for d in distances)


def test_bench_dtw_cold_plan(benchmark):
    """One 73-sample clip close with the plan memo cleared before the
    call, as in an experiment sweep whose shapes rarely repeat."""
    xs, ys = _service_dtw_calls()[3]

    def cold():
        batch_module._PLANS.clear()
        return dtw_distance_batch(xs, ys)

    distances = benchmark(cold)
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


def _tail_batch(lengths, seed):
    """Preprocessed sides of one batch: a genuine pair per length, every
    third received side replaced by an unrelated (reenacted) track."""
    config = DetectorConfig()
    rng = np.random.default_rng(seed)
    pairs = [_step_pair(rng, n) for n in lengths]
    for i in range(2, len(pairs), 3):
        t, r = pairs[i]
        pairs[i] = (t, 174.0 + np.cumsum(rng.normal(0.0, 0.5, r.size)))
    n = len(pairs)
    pre = preprocess_batch(
        [t for t, _ in pairs] + [r for _, r in pairs],
        config,
        [config.peak_prominence_screen] * n + [config.peak_prominence_face] * n,
    )
    return pre[:n], pre[n:]


@pytest.mark.parametrize(
    "lengths", [(150, 175, 200) * 8, (150,)], ids=["batch-verify-24", "service-close-1"]
)
def test_bench_features_tail(benchmark, lengths):
    """The Sec. VI tail (match, delay, align, normalize, cut, correlate,
    DTW) of a 24-clip ``batch-verify``-shaped batch and of a single
    15 s service close."""
    config = DetectorConfig()
    pre_ts, pre_rs = _tail_batch(lengths, seed=8)
    results = benchmark(lambda: _features_from_signals_batch(pre_ts, pre_rs, config, NULL))
    assert len(results) == len(lengths)
    assert all(-1.0 <= fx.features.z3 <= 1.0 and fx.features.z4 >= 0 for fx in results)
    assert results[0].features.z1 > 0


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


def _radiance(size):
    renderer = FaceRenderer(make_face("bench", tone="light"), height=size, width=size, seed=1)
    return renderer.render(ExpressionTrack(seed=2).sample(1.0), 120.0, 50.0, 70.0).radiance


def test_bench_expose_frame(benchmark):
    """One noisy 96x96 exposure: gamma encoding, the per-pixel sigma and
    one 16-bit index draw per sub-pixel into the inverse-CDF noise table."""
    radiance = _radiance(96)
    sensor = ImageSensor(rng=np.random.default_rng(3))
    pixels = benchmark(lambda: sensor.expose(radiance, 1.0 / 250.0))
    assert pixels.shape == (96, 96, 3)


def test_bench_expose_frame_64(benchmark):
    """The verifier's 64x64 raster."""
    radiance = _radiance(64)
    sensor = ImageSensor(rng=np.random.default_rng(3))
    pixels = benchmark(lambda: sensor.expose(radiance, 1.0 / 250.0))
    assert pixels.shape == (64, 64, 3)


def test_bench_capture_locked_96(benchmark):
    """A locked prover camera's whole ``capture`` on a 96x96 raster: the
    exposure-locked loop skips the meter, so this is the sensor chain plus
    the frame's bookkeeping."""
    radiance = _radiance(96)
    camera = Camera(
        sensor=ImageSensor(rng=np.random.default_rng(3)),
        meter=LightMeter(mode=MeteringMode.MULTI_ZONE),
        auto_exposure=AutoExposureController(target_level=0.22),
    )
    camera.capture(radiance, timestamp=0.0)
    camera.auto_exposure.lock()
    clock = iter(range(1, 10**9))
    frame = benchmark(lambda: camera.capture(radiance, timestamp=0.1 * next(clock)))
    assert frame.pixels.shape == (96, 96, 3)
    assert "metered_level" not in frame.metadata


def test_bench_encode_frame_96(benchmark):
    """One 96x96 frame through the codec at its default quality (step 1)."""
    codec = VideoCodec()
    pixels = ImageSensor(rng=np.random.default_rng(3)).expose(_radiance(96), 1.0 / 250.0)
    frame = Frame(pixels=pixels, timestamp=0.0)
    encoded = benchmark(lambda: codec.encode(frame))
    assert codec.quant_step == 1
    assert encoded.data.dtype == np.uint8 and encoded.shape == (96, 96)


def test_bench_multi_zone_metering(benchmark):
    radiance = _radiance(96)
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


def _exposed_face_96():
    """A 96x96 rendered face through a noiseless sensor, as ``float64``."""
    face = make_face("bench", tone="light")
    renderer = FaceRenderer(face, height=96, width=96, seed=1)
    pose = PoseState(center_x=0.5, center_y=0.48, scale=0.3, roll=0.0, blink=0.0, mouth_open=0.0)
    rendered = renderer.render(pose, 120.0, 120.0)
    return ImageSensor(rng=None).expose(rendered.radiance, 1.0 / 250.0)


def _decoded_face_96():
    """The same face as the peer decodes it: the codec's ``uint8`` raster,
    which is what the verifier probes on every received frame."""
    codec = VideoCodec()
    frame = codec.decode(codec.encode(Frame(pixels=_exposed_face_96(), timestamp=0.0)))
    assert frame.pixels.dtype == np.uint8
    return frame


def test_bench_skin_mask_96(benchmark):
    pixels = _exposed_face_96()
    detector = LandmarkDetector()
    mask = benchmark(lambda: detector.skin_mask(pixels))
    assert mask.shape == (96, 96) and mask.any()


def test_bench_skin_mask_96_decoded(benchmark):
    pixels = _decoded_face_96().pixels
    detector = LandmarkDetector()
    mask = benchmark(lambda: detector.skin_mask(pixels))
    assert mask.shape == (96, 96) and mask.any()


def test_bench_received_probe_decoded_frame(benchmark):
    """The whole received-frame probe on a decoded 96x96 frame:
    detect -> nasal-bridge ROI -> ROI mean luminance."""
    frame = _decoded_face_96()
    detector = LandmarkDetector()
    value = benchmark(lambda: roi_luminance(detector, frame))
    assert value is not None


def test_bench_full_session_simulation(benchmark):
    """One 15-second chat simulation (the testbed's own cost, not the
    detector's)."""
    counter = iter(range(10_000))

    def session():
        return simulate_genuine_session(duration_s=15.0, seed=5000 + next(counter))

    record = benchmark.pedantic(session, rounds=3, iterations=1)
    assert len(record.transmitted) == 150
