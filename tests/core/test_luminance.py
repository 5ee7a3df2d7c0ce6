"""Detector-side luminance extraction (Sec. IV)."""

import numpy as np
import pytest

from repro.core.luminance import (
    received_luminance_signal,
    roi_mean_luminance,
    transmitted_luminance_signal,
)
from repro.video.frame import Frame, blank_frame
from repro.video.stream import VideoStream
from repro.vision.geometry import Rect
from repro.vision.landmarks import LandmarkDetector


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
