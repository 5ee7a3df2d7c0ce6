"""MediaLink: the composed one-way media path."""

import numpy as np
import pytest

from repro.net.channel import NetworkChannel
from repro.net.jitterbuffer import JitterBuffer
from repro.net.link import MediaLink

from ..conftest import blank_frame


def _link(delay=0.05, playout=0.1, loss=0.0, seed=0):
    return MediaLink(
        channel=NetworkChannel(base_delay_s=delay, jitter_s=0.0, loss_rate=loss, seed=seed),
        jitter_buffer=JitterBuffer(playout_delay_s=playout),
    )


class TestRoundTrip:
    def test_frame_arrives_after_one_way_delay(self):
        link = _link()
        link.send(blank_frame(16, 16, value=80.0, timestamp=1.0))
        assert link.receive(1.05) is None
        frame = link.receive(1.11)
        assert frame is not None
        assert np.allclose(frame.pixels, 80.0)

    def test_pixels_survive_codec(self):
        link = _link()
        original = blank_frame(16, 16, value=123.0, timestamp=0.0)
        link.send(original)
        received = link.receive(1.0)
        assert np.abs(received.pixels - original.pixels).max() <= 1.0

    def test_send_returns_the_sent_raster(self):
        link = _link()
        original = blank_frame(16, 16, value=80.4, timestamp=0.5)
        original.metadata["tag"] = "x"
        sent = link.send(original)
        assert sent.pixels.dtype == np.uint8 and np.all(sent.pixels == 80)
        assert sent.timestamp == pytest.approx(0.5) and sent.metadata is original.metadata
        # The sent frame and the decoded one share the encoded raster.
        assert link.receive(1.0).pixels is sent.pixels

    def test_playout_metadata_attached(self):
        link = _link()
        link.send(blank_frame(8, 8, timestamp=0.0))
        assert link.receive(1.0).metadata["playout_time"] == pytest.approx(1.0)

    def test_one_way_delay_property(self):
        assert _link(delay=0.08, playout=0.12).one_way_delay_s == pytest.approx(0.2)


class TestStreaming:
    def test_frames_play_out_in_order(self):
        link = _link()
        for i in range(5):
            link.send(blank_frame(8, 8, value=float(i), timestamp=i * 0.1))
        values = []
        t = 0.0
        while t < 1.5:
            frame = link.receive(t)
            if frame is not None:
                values.append(frame.pixels[0, 0, 0])
            t += 0.1
        assert values == sorted(values)
        assert len(values) == 5

    def test_total_loss_delivers_nothing(self):
        link = MediaLink(
            channel=NetworkChannel(loss_rate=0.99, seed=1),
            jitter_buffer=JitterBuffer(playout_delay_s=0.05),
        )
        delivered = 0
        for i in range(30):
            link.send(blank_frame(8, 8, timestamp=i * 0.1))
            if link.receive(i * 0.1 + 0.01) is not None:
                delivered += 1
        assert delivered < 5
