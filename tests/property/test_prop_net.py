"""Property-based tests of the network substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.channel import NetworkChannel
from repro.net.jitterbuffer import JitterBuffer
from repro.net.packet import Packetizer
from repro.video.codec import VideoCodec

from ..conftest import blank_frame


@st.composite
def frame_train(draw):
    n = draw(st.integers(min_value=1, max_value=20))
    codec = VideoCodec()
    packetizer = Packetizer(mtu_bytes=draw(st.integers(min_value=64, max_value=400)))
    packets = []
    for i in range(n):
        encoded = codec.encode(blank_frame(48, 48, value=float(i % 255), timestamp=i * 0.1))
        packets.extend(packetizer.packetize(encoded, send_time=i * 0.1))
    return packets


class TestChannelProperties:
    @given(
        frame_train(),
        st.floats(min_value=0.0, max_value=0.5),
        st.floats(min_value=0.0, max_value=0.1),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_arrivals_never_precede_sends(self, packets, delay, jitter, seed):
        channel = NetworkChannel(base_delay_s=delay, jitter_s=jitter, seed=seed)
        for delivered in channel.transmit_all(packets):
            assert delivered.arrival_time >= delivered.packet.send_time + delay - 1e-12

    @given(frame_train(), st.floats(min_value=0.0, max_value=0.9), st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_delivered_is_subset_of_sent(self, packets, loss, seed):
        channel = NetworkChannel(loss_rate=loss, seed=seed)
        delivered = channel.transmit_all(packets)
        assert len(delivered) <= len(packets)
        sent_seqs = {p.sequence for p in packets}
        assert all(d.packet.sequence in sent_seqs for d in delivered)

    @given(frame_train(), st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_stats_add_up(self, packets, seed):
        channel = NetworkChannel(loss_rate=0.3, seed=seed)
        delivered = channel.transmit_all(packets)
        assert channel.stats.sent == len(packets)
        assert channel.stats.lost == len(packets) - len(delivered)


class TestBufferProperties:
    @given(frame_train(), st.floats(min_value=0.0, max_value=0.3), st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_playout_monotonic_and_no_duplicates(self, packets, jitter, seed):
        channel = NetworkChannel(base_delay_s=0.05, jitter_s=jitter, seed=seed)
        buffer = JitterBuffer(playout_delay_s=0.15)
        for delivered in channel.transmit_all(packets):
            buffer.push(delivered)
        seen = []
        for tick in range(80):
            frame = buffer.playout(tick * 0.05)
            if frame is not None:
                seen.append(frame.frame_id)
        assert seen == sorted(set(seen))

    @given(frame_train(), st.floats(min_value=0.0, max_value=0.8), st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_conservation(self, packets, loss, seed):
        """Every frame is eventually played, lost, or still pending."""
        channel = NetworkChannel(loss_rate=loss, seed=seed)
        buffer = JitterBuffer(playout_delay_s=0.1)
        total_frames = len({p.frame_id for p in packets})
        delivered = channel.transmit_all(packets)
        arrived_frames = len({d.packet.frame_id for d in delivered})
        for d in delivered:
            buffer.push(d)
        played = 0
        for tick in range(100):
            if buffer.playout(tick * 0.1) is not None:
                played += 1
        # Frames fully lost in the channel never reach the buffer at all.
        accounted = (
            played
            + buffer.stats.lost_frames
            + buffer.stats.skipped_frames
            + len(buffer._pending)
        )
        assert accounted == arrived_frames
        assert arrived_frames <= total_frames
