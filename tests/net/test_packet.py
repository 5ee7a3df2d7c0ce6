"""Packetization."""

import pytest

from repro.net.packet import Packet, Packetizer
from repro.video.codec import VideoCodec

from ..conftest import blank_frame


def _encoded(payload_hint=None, size=(96, 96)):
    codec = VideoCodec()
    return codec.encode(blank_frame(*size))


class TestPacketizer:
    def test_chunk_sizes_sum_to_payload(self):
        packetizer = Packetizer(mtu_bytes=100)
        encoded = _encoded()
        packets = packetizer.packetize(encoded, send_time=1.0)
        assert sum(p.size_bytes for p in packets) == encoded.payload_bytes

    def test_chunk_count_consistent(self):
        packetizer = Packetizer(mtu_bytes=100)
        encoded = _encoded()
        packets = packetizer.packetize(encoded, send_time=1.0)
        expected = -(-encoded.payload_bytes // 100)
        assert len(packets) == expected
        assert all(p.chunk_count == expected for p in packets)

    def test_sequence_numbers_global_and_increasing(self):
        packetizer = Packetizer(mtu_bytes=100)
        first = packetizer.packetize(_encoded(), send_time=0.0)
        second = packetizer.packetize(_encoded(), send_time=0.1)
        seqs = [p.sequence for p in first + second]
        assert seqs == list(range(len(seqs)))

    def test_small_frame_single_packet(self):
        packetizer = Packetizer(mtu_bytes=10**6)
        packets = packetizer.packetize(_encoded(), send_time=0.0)
        assert len(packets) == 1

    def test_send_time_stamped(self):
        packets = Packetizer().packetize(_encoded(), send_time=3.25)
        assert all(p.send_time == 3.25 for p in packets)

    def test_tiny_mtu_rejected(self):
        with pytest.raises(ValueError):
            Packetizer(mtu_bytes=10)


class TestPacketValidation:
    def test_chunk_index_bounds(self):
        encoded = _encoded()
        with pytest.raises(ValueError):
            Packet(
                sequence=0,
                frame_id=0,
                chunk_index=2,
                chunk_count=2,
                size_bytes=10,
                send_time=0.0,
                frame=encoded,
            )

    def test_positive_size(self):
        encoded = _encoded()
        with pytest.raises(ValueError):
            Packet(
                sequence=0,
                frame_id=0,
                chunk_index=0,
                chunk_count=1,
                size_bytes=0,
                send_time=0.0,
                frame=encoded,
            )
