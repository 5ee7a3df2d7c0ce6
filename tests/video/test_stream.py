"""VideoStream: ordering, resampling, segmentation."""

import numpy as np
import pytest

from repro.video.stream import VideoStream

from ..conftest import blank_frame


def _stream(n=30, fps=10.0, start=0.0):
    frames = [
        blank_frame(4, 4, value=float(i), timestamp=start + i / fps) for i in range(n)
    ]
    return VideoStream(fps=fps, frames=frames)


class TestOrdering:
    def test_append_requires_increasing_timestamps(self):
        stream = VideoStream(fps=10.0)
        stream.append(blank_frame(2, 2, timestamp=0.0))
        with pytest.raises(ValueError):
            stream.append(blank_frame(2, 2, timestamp=0.0))

    def test_iteration_and_indexing(self):
        stream = _stream(5)
        assert len(stream) == 5
        assert stream[2].pixels[0, 0, 0] == pytest.approx(2.0)
        assert [f.timestamp for f in stream] == pytest.approx([0.0, 0.1, 0.2, 0.3, 0.4])

    def test_duration(self):
        assert _stream(11).duration_s == pytest.approx(1.0)
        assert VideoStream(fps=10.0).duration_s == pytest.approx(0.0)


class TestResampling:
    def test_downsample_10_to_5(self):
        out = _stream(20).resampled(5.0)
        assert out.fps == pytest.approx(5.0)
        # every other frame
        values = [f.pixels[0, 0, 0] for f in out]
        assert values == [0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0, 18.0]

    def test_resample_never_uses_future_frames(self):
        out = _stream(20).resampled(8.0)
        for frame in out:
            assert frame.metadata["source_timestamp"] <= frame.timestamp + 1e-9

    def test_resampled_grid_is_uniform(self):
        out = _stream(30).resampled(8.0)
        diffs = np.diff(out.timestamps)
        assert np.allclose(diffs, 1.0 / 8.0)

    def test_empty_stream(self):
        assert len(VideoStream(fps=10.0).resampled(5.0)) == 0

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            _stream(5).resampled(0.0)


class TestSegmentation:
    def test_equal_clips(self):
        clips = _stream(30).segments(1.0)  # 10 frames per clip
        assert len(clips) == 3
        assert all(len(c) == 10 for c in clips)

    def test_trailing_partial_dropped(self):
        clips = _stream(35).segments(1.0)
        assert len(clips) == 3

    def test_clips_are_consecutive(self):
        clips = _stream(30).segments(1.0)
        assert clips[1][0].timestamp == pytest.approx(1.0)

    def test_too_short_stream_gives_nothing(self):
        assert _stream(5).segments(1.0) == []

    def test_bad_duration(self):
        with pytest.raises(ValueError):
            _stream(5).segments(0.0)
