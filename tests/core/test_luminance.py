"""Detector-side luminance extraction (Sec. IV)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.camera.sensor import ImageSensor
from repro.core.luminance import (
    received_luminance_signal,
    roi_luminance,
    roi_mean_luminance,
    transmitted_luminance_signal,
)
from repro.core.roi import MIN_ROI_SIDE
from repro.service.loadgen import WorkloadConfig, _face_frame, _faceless_frame
from repro.video.codec import VideoCodec
from repro.video.frame import Frame
from repro.video.luminance import frame_mean_luminance, pixel_luminance
from repro.video.stream import VideoStream
from repro.vision.expression import PoseState
from repro.vision.face_model import SKIN_TONES, make_face
from repro.vision.geometry import Rect, square_around
from repro.vision.landmarks import LandmarkDetector
from repro.vision.renderer import FaceRenderer

from ..conftest import blank_frame
from ..vision.test_landmarks import _bits as _landmark_bits
from ..vision.test_landmarks import _detect_reference


def _roi_mean_luminance_reference(frame, roi):
    """The Rect-based ROI mean ``roi_mean_luminance`` replaced: intersect
    with the frame rectangle (the arithmetic ``Rect.intersect`` had),
    slice, ``mean()``."""
    bounds = Rect(0.0, 0.0, float(frame.width), float(frame.height))
    x0, y0 = max(roi.x0, bounds.x0), max(roi.y0, bounds.y0)
    x1, y1 = min(roi.x1, bounds.x1), min(roi.y1, bounds.y1)
    if x1 <= x0 or y1 <= y0:
        return None
    rows, cols = Rect(x0, y0, x1, y1).pixel_slices()
    patch = frame.pixels[rows, cols]
    if patch.size == 0:
        return None
    return float(pixel_luminance(patch).mean())


def _probe_reference(detector, frame):
    """The three-call received-frame probe both front ends ran before
    ``roi_luminance``: the percentile detector, the ROI from eagerly
    built points, and the Rect-based mean."""
    landmarks = _detect_reference(detector, frame.pixels)
    if landmarks is None:
        return None
    anchor = landmarks.nasal_bridge[-1]
    tip_y = sum([p.y for p in landmarks.nasal_tip]) / len(landmarks.nasal_tip)
    roi = square_around(anchor.x, anchor.y, max(abs(anchor.y - tip_y), MIN_ROI_SIDE))
    return _roi_mean_luminance_reference(frame, roi)


def _bits(value):
    return None if value is None else value.hex()


def _noise_frame(seed, height, width):
    pixels = np.random.default_rng(seed).uniform(0.0, 255.0, (height, width, 3))
    return Frame(pixels=pixels, timestamp=0.0)


def _eight_bit(frame):
    """``frame`` rounded to the codec's uint8 raster."""
    return Frame(pixels=np.round(frame.pixels).astype(np.uint8), timestamp=frame.timestamp)


def _float_twin(frame):
    """The float64 frame holding the same values as a uint8 ``frame``."""
    return Frame(pixels=frame.pixels.astype(np.float64), timestamp=frame.timestamp)


class TestRoiLuminance:
    def test_uniform_patch(self):
        frame = blank_frame(20, 20, value=100.0)
        value = roi_mean_luminance(frame, Rect(5, 5, 10, 10))
        assert value == pytest.approx(100.0)

    def test_partial_overlap_clipped(self):
        frame = blank_frame(10, 10, value=50.0)
        value = roi_mean_luminance(frame, Rect(-5, -5, 3, 3))
        assert value == pytest.approx(50.0)

    def test_fully_outside_returns_none(self):
        frame = blank_frame(10, 10, value=50.0)
        assert roi_mean_luminance(frame, Rect(20, 20, 25, 25)) is None

    def test_reads_the_right_pixels(self):
        frame = blank_frame(10, 10, value=0.0)
        frame.pixels[2:4, 2:4] = 200.0
        inside = roi_mean_luminance(frame, Rect(2, 2, 4, 4))
        outside = roi_mean_luminance(frame, Rect(6, 6, 8, 8))
        assert inside == pytest.approx(200.0)
        assert outside == pytest.approx(0.0)


#: One edge coordinate relative to a frame side ``n``: its own offset, a
#: fraction of ``n`` and a fractional part, so edges land inside, on,
#: and beyond both borders, on and off the pixel grid.
_EDGES = st.tuples(st.integers(-3, 3), st.sampled_from([-1.0, 0.0, 0.5, 1.0, 1.5]), st.floats(0.0, 1.0))


def _edge(n, spec):
    offset, fraction, frac = spec
    return offset + fraction * n + frac


class TestRoiMeanMatchesRectReference:
    """``roi_mean_luminance`` equals the Rect-based mean bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(
        height=st.integers(1, 12),
        width=st.integers(1, 12),
        seed=st.integers(0, 2**16),
        x=st.tuples(_EDGES, _EDGES),
        y=st.tuples(_EDGES, _EDGES),
    )
    # Inside; straddling the left, right, top and bottom edges; fully
    # outside; zero width; fractional edges; a 1x1 frame.
    @example(height=10, width=10, seed=0, x=((2, 0.0, 0.0), (6, 0.0, 0.0)), y=((2, 0.0, 0.0), (6, 0.0, 0.0)))
    @example(height=10, width=10, seed=1, x=((-2, 0.0, 0.0), (3, 0.0, 0.0)), y=((2, 0.0, 0.0), (6, 0.0, 0.0)))
    @example(height=10, width=10, seed=2, x=((-2, 1.0, 0.0), (2, 1.0, 0.0)), y=((2, 0.0, 0.0), (6, 0.0, 0.0)))
    @example(height=10, width=10, seed=3, x=((2, 0.0, 0.0), (6, 0.0, 0.0)), y=((-3, 0.0, 0.5), (2, 0.0, 0.0)))
    @example(height=10, width=10, seed=4, x=((2, 0.0, 0.0), (6, 0.0, 0.0)), y=((-1, 1.0, 0.0), (3, 1.0, 0.0)))
    @example(height=10, width=10, seed=5, x=((1, 1.0, 0.0), (3, 1.0, 0.0)), y=((1, 1.0, 0.0), (3, 1.0, 0.0)))
    @example(height=10, width=10, seed=6, x=((3, 0.0, 0.5), (3, 0.0, 0.5)), y=((2, 0.0, 0.0), (6, 0.0, 0.0)))
    @example(height=9, width=7, seed=7, x=((1, 0.0, 0.25), (4, 0.0, 0.75)), y=((0, 0.0, 0.3), (5, 0.0, 0.9)))
    @example(height=1, width=1, seed=8, x=((0, 0.0, 0.2), (0, 0.0, 0.7)), y=((-1, 0.0, 0.0), (1, 0.0, 0.0)))
    def test_equals_reference(self, height, width, seed, x, y):
        x0, x1 = sorted(_edge(width, spec) for spec in x)
        y0, y1 = sorted(_edge(height, spec) for spec in y)
        frame = _noise_frame(seed, height, width)
        roi = Rect(x0, y0, x1, y1)
        got = roi_mean_luminance(frame, roi)
        assert _bits(got) == _bits(_roi_mean_luminance_reference(frame, roi))
        # The same case on the 8-bit raster: the reference, and its float twin.
        frame = _eight_bit(frame)
        got = roi_mean_luminance(frame, roi)
        assert _bits(got) == _bits(_roi_mean_luminance_reference(frame, roi))
        assert _bits(got) == _bits(roi_mean_luminance(_float_twin(frame), roi))

    def test_every_roi_on_a_1x1_frame(self):
        frame = _noise_frame(9, 1, 1)
        edges = (-1.5, -1.0, 0.0, 0.25, 0.5, 1.0, 1.5)
        for x0 in edges:
            for x1 in (e for e in edges if e >= x0):
                roi = Rect(x0, 0.0, x1, 1.0)
                want = _roi_mean_luminance_reference(frame, roi)
                assert _bits(roi_mean_luminance(frame, roi)) == _bits(want)


class TestFrameMeanMatchesNumpyMean:
    """``frame_mean_luminance`` is ``pixel_luminance(p).mean()`` bit for
    bit, across numpy's 8- and 128-element pairwise-summation blocks."""

    def test_square_frames_1_to_97(self):
        rng = np.random.default_rng(13)
        for side in range(1, 98):
            pixels = rng.uniform(0.0, 255.0, (side, side, 3))
            for raster in (pixels, np.round(pixels).astype(np.uint8)):
                want = float(pixel_luminance(raster).mean()).hex()
                assert frame_mean_luminance(raster).hex() == want, side
                assert frame_mean_luminance(Frame(pixels=raster, timestamp=0.0)).hex() == want

    @settings(max_examples=200, deadline=None)
    @given(
        height=st.integers(1, 97),
        width=st.integers(1, 97),
        seed=st.integers(0, 2**16),
        dtype=st.sampled_from([np.float64, np.uint8]),
    )
    def test_rectangular_frames(self, height, width, seed, dtype):
        pixels = np.random.default_rng(seed).uniform(0.0, 255.0, (height, width, 3))
        pixels = np.round(pixels).astype(dtype) if dtype is np.uint8 else pixels
        want = float(pixel_luminance(pixels).mean()).hex()
        assert frame_mean_luminance(pixels).hex() == want
        # An 8-bit raster reads exactly what its float64 twin reads.
        twin = pixels.astype(np.float64)
        assert pixel_luminance(pixels).tobytes() == pixel_luminance(twin).tobytes()
        assert frame_mean_luminance(twin).hex() == want


def _rendered_frames():
    """96x96 rendered faces through a noisy sensor: every skin tone, a
    few poses, a face partly out of frame."""
    poses = [
        PoseState(center_x=cx, center_y=0.48, scale=sc, roll=roll, blink=0.0, mouth_open=0.0)
        for cx, sc, roll in ((0.5, 0.3, 0.0), (0.38, 0.25, 0.15), (0.62, 0.35, -0.1), (0.95, 0.3, 0.0))
    ]
    frames = []
    for k, tone in enumerate(sorted(SKIN_TONES)):
        renderer = FaceRenderer(make_face(tone, tone=tone), 96, 96, seed=k)
        sensor = ImageSensor(rng=np.random.default_rng(k))
        for pose in poses:
            radiance = renderer.render(pose, 120.0, ambient_lux=120.0).radiance
            frames.append(Frame(pixels=sensor.expose(radiance, exposure=1.0 / 250.0), timestamp=0.0))
    return frames


def _service_frames():
    """24x24 load-generator frames at noisy luminance, some with pixel noise."""
    config = WorkloadConfig()
    rng = np.random.default_rng(14)
    frames = []
    for k, lum in enumerate(rng.uniform(0.0, 255.0, size=40)):
        frame = _face_frame(config, float(lum), 0.0)
        if k % 2:
            noisy = frame.pixels + rng.normal(0.0, 6.0, frame.pixels.shape)
            frame = Frame(pixels=np.clip(noisy, 0.0, 255.0), timestamp=0.0)
        frames.append(frame)
    return frames


def _faceless_frames():
    """Frames with no face: black, uniform grey, uniform noise."""
    config = WorkloadConfig()
    return [
        _faceless_frame(config, 0.0),
        blank_frame(24, 24, value=90.0),
        *(_noise_frame(seed, 24, 24) for seed in range(4)),
        _noise_frame(5, 48, 64),
    ]


class TestProbeMatchesThreeCallReference:
    """``roi_luminance`` equals the three-call chain it replaced: values
    bit for bit, misses stay ``None``, jitter generators end equal."""

    @pytest.mark.parametrize(
        "frames", [_rendered_frames, _service_frames, _faceless_frames], ids=lambda f: f.__name__
    )
    def test_equals_reference(self, frames):
        frames = frames()
        fast, slow = LandmarkDetector(seed=21), LandmarkDetector(seed=21)
        got = [_bits(roi_luminance(fast, frame)) for frame in frames]
        want = [_bits(_probe_reference(slow, frame)) for frame in frames]
        assert got == want
        assert fast._rng.bit_generator.state == slow._rng.bit_generator.state

    def test_mixed_stream_hits_and_misses(self):
        frames = _service_frames() + _faceless_frames() + _rendered_frames()
        order = np.random.default_rng(15).permutation(len(frames))
        fast, slow = LandmarkDetector(seed=22), LandmarkDetector(seed=22)
        got = [_bits(roi_luminance(fast, frames[k])) for k in order]
        want = [_bits(_probe_reference(slow, frames[k])) for k in order]
        assert got == want
        assert 0 < got.count(None) < len(got)
        assert fast._rng.bit_generator.state == slow._rng.bit_generator.state


class TestEightBitRasterMatchesFloatTwin:
    """A decoded uint8 frame reads exactly what its float64 twin reads:
    ROI means and landmark fits (with the jitter generator left in the
    same state).  Per-pixel and frame luminance are checked above."""

    def test_rois_inside_straddling_and_outside_1_to_97(self):
        rng = np.random.default_rng(16)
        for side in range(1, 98):
            height, width = side, 98 - side
            frame = Frame(pixels=rng.integers(0, 256, (height, width, 3), dtype=np.uint8), timestamp=0.0)
            twin = _float_twin(frame)
            w, h = float(width), float(height)
            rois = [
                Rect(0.25 * w, 0.25 * h, 0.75 * w, 0.75 * h),  # inside
                Rect(-0.5 * w, 0.25 * h, 0.5 * w, 0.75 * h),  # left edge
                Rect(0.5 * w, 0.25 * h, 1.5 * w, 0.75 * h),  # right edge
                Rect(0.25 * w, -0.5 * h, 0.75 * w, 0.5 * h),  # top edge
                Rect(0.25 * w, 0.5 * h, 0.75 * w, 1.5 * h),  # bottom edge
                Rect(-1.0, -1.0, w + 1.0, h + 1.0),  # every edge
                Rect(w + 1.0, 0.0, w + 3.0, h),  # outside, right
                Rect(0.0, -3.0, w, -1.0),  # outside, above
            ]
            got = [_bits(roi_mean_luminance(frame, roi)) for roi in rois]
            assert got == [_bits(roi_mean_luminance(twin, roi)) for roi in rois], side
            assert got[0] is not None and got[-1] is None and got[-2] is None

    @pytest.mark.parametrize(
        "frames", [_rendered_frames, _service_frames, _faceless_frames], ids=lambda f: f.__name__
    )
    def test_detect_on_decoded_frames(self, frames):
        codec = VideoCodec(quality=0.9)
        decoded = [codec.decode(codec.encode(frame)) for frame in frames()]
        assert {frame.pixels.dtype for frame in decoded} == {np.dtype(np.uint8)}
        self._assert_detect_matches_twin(decoded, seed=23)

    def test_detect_on_noise_1_to_97(self):
        rng = np.random.default_rng(17)
        frames = [
            Frame(pixels=rng.integers(0, 256, (side, 98 - side, 3), dtype=np.uint8), timestamp=0.0)
            for side in range(1, 98)
        ]
        self._assert_detect_matches_twin(frames, seed=24)

    @staticmethod
    def _assert_detect_matches_twin(frames, seed):
        eight, wide = LandmarkDetector(seed=seed), LandmarkDetector(seed=seed)
        got = [eight.detect(frame.pixels) for frame in frames]
        want = [wide.detect(_float_twin(frame).pixels) for frame in frames]
        assert [_landmark_bits(lm) for lm in got] == [_landmark_bits(lm) for lm in want]
        assert any(lm is not None for lm in got)
        assert eight._rng.bit_generator.state == wide._rng.bit_generator.state


class TestTransmittedSignal:
    def test_mean_luminance_per_frame(self):
        frames = [blank_frame(8, 8, value=v, timestamp=i / 10.0) for i, v in enumerate((0, 128, 255))]
        stream = VideoStream(fps=10.0, frames=frames)
        signal = transmitted_luminance_signal(stream)
        assert np.allclose(signal, [0.0, 128.0, 255.0])

    def test_empty_stream(self):
        assert transmitted_luminance_signal(VideoStream(fps=10.0)).size == 0


class TestReceivedSignal:
    def test_tracks_face_reflection(self, genuine_record):
        signal = received_luminance_signal(genuine_record.received, LandmarkDetector())
        assert signal.detection_rate > 0.95
        assert signal.luminance.size == len(genuine_record.received)
        # The reflection must actually move (Alice challenges during the clip).
        assert signal.luminance.max() - signal.luminance.min() > 3.0

    def test_faceless_stream_is_all_invalid(self):
        frames = [blank_frame(32, 32, value=30.0, timestamp=i / 10.0) for i in range(5)]
        stream = VideoStream(fps=10.0, frames=frames)
        signal = received_luminance_signal(stream, LandmarkDetector())
        assert signal.detection_rate == pytest.approx(0.0)
        assert np.allclose(signal.luminance, 0.0)

    def test_gap_holds_previous_value(self, genuine_record):
        detector = LandmarkDetector()
        frames = list(genuine_record.received.frames[:10])
        # Corrupt the middle frame so no face is found there.
        broken = frames[5].copy()
        broken.pixels[:] = 0.0
        frames[5] = broken
        stream = VideoStream(fps=10.0, frames=frames)
        signal = received_luminance_signal(stream, detector)
        assert not signal.valid[5]
        assert signal.luminance[5] == signal.luminance[4]

    def test_leading_gap_backfilled(self, genuine_record):
        detector = LandmarkDetector()
        frames = list(genuine_record.received.frames[:8])
        broken = frames[0].copy()
        broken.pixels[:] = 0.0
        frames[0] = broken
        # Timestamps must stay increasing; rebuild stream.
        stream = VideoStream(fps=10.0, frames=frames)
        signal = received_luminance_signal(stream, detector)
        assert not signal.valid[0]
        assert signal.luminance[0] == signal.luminance[1]

    def test_zero_area_frame_is_hold_filled(self, genuine_record):
        frames = list(genuine_record.received.frames[:8])
        frames[3] = Frame(pixels=np.zeros((0, 0, 3)), timestamp=frames[3].timestamp)
        stream = VideoStream(fps=10.0, frames=frames)
        signal = received_luminance_signal(stream, LandmarkDetector())
        assert not signal.valid[3]
        assert signal.valid[[0, 1, 2, 4, 5, 6, 7]].all()
        assert signal.luminance[3] == signal.luminance[2]
