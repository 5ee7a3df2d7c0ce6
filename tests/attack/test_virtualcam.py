"""Virtual camera adapter."""

import pytest

from repro.attack.virtualcam import VirtualCamera

from ..conftest import blank_frame


def _source_factory():
    calls = []

    def source(t, displayed):
        calls.append(t)
        return blank_frame(8, 8, value=float(len(calls)), timestamp=t)

    return source, calls


class TestPassthrough:
    def test_unlimited_rate_generates_every_frame(self):
        source, calls = _source_factory()
        cam = VirtualCamera(source)
        for i in range(5):
            cam.produce_frame(i * 0.1, None)
        assert len(calls) == 5

    def test_displayed_frame_forwarded(self):
        seen = []

        def source(t, displayed):
            seen.append(displayed)
            return blank_frame(4, 4, timestamp=t)

        cam = VirtualCamera(source)
        marker = blank_frame(2, 2, value=9.0)
        cam.produce_frame(0.0, marker)
        assert seen[0] is marker


class TestRateLimit:
    def test_slow_generator_repeats_frames(self):
        source, calls = _source_factory()
        cam = VirtualCamera(source, max_generation_hz=5.0)  # one per 0.2 s
        frames = [cam.produce_frame(i * 0.1, None) for i in range(6)]
        assert len(calls) == 3  # t = 0.0, 0.2, 0.4
        repeated = [f for f in frames if f.metadata.get("repeated")]
        assert len(repeated) == 3

    def test_repeated_frame_gets_fresh_timestamp(self):
        source, _ = _source_factory()
        cam = VirtualCamera(source, max_generation_hz=1.0)
        cam.produce_frame(0.0, None)
        repeated = cam.produce_frame(0.5, None)
        assert repeated.timestamp == pytest.approx(0.5)
        assert repeated.metadata["repeated"] is True

    def test_paper_cited_rate_admits_10hz_capture(self):
        # Face2Face runs at 47.5 Hz (Sec. II-A): faster than any capture
        # tick, so no frame is ever repeated at 10 Hz.
        source, calls = _source_factory()
        cam = VirtualCamera(source, max_generation_hz=47.5)
        for i in range(20):
            cam.produce_frame(i * 0.1, None)
        assert len(calls) == 20

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            VirtualCamera(lambda t, d: None, max_generation_hz=0.0)
