"""Jitter buffer: reassembly, playout deadlines, loss accounting."""

import pytest

from repro.net.channel import DeliveredPacket
from repro.net.jitterbuffer import JitterBuffer
from repro.net.packet import Packetizer
from repro.video.codec import VideoCodec

from ..conftest import blank_frame


# One codec/packetizer per stream: frame ids must be unique per sender,
# exactly as MediaLink guarantees in production.
_CODEC = VideoCodec()
_PACKETIZER = Packetizer(mtu_bytes=150)


def _frame_packets(timestamp):
    # 96x96 frames compress to ~500 bytes -> several 150-byte chunks.
    encoded = _CODEC.encode(blank_frame(96, 96, timestamp=timestamp))
    return _PACKETIZER.packetize(encoded, send_time=timestamp)


def _deliver(buffer, packets, delay=0.05):
    for p in packets:
        buffer.push(DeliveredPacket(packet=p, arrival_time=p.send_time + delay))


class TestPlayout:
    def test_frame_released_at_deadline(self):
        buffer = JitterBuffer(playout_delay_s=0.15)
        _deliver(buffer, _frame_packets(1.0))
        assert buffer.playout(1.1) is None  # before deadline
        frame = buffer.playout(1.16)
        assert frame is not None
        assert frame.timestamp == pytest.approx(1.0)

    def test_frame_released_once(self):
        buffer = JitterBuffer(playout_delay_s=0.1)
        _deliver(buffer, _frame_packets(1.0))
        assert buffer.playout(1.2) is not None
        assert buffer.playout(1.3) is None

    def test_newest_frame_wins_when_multiple_due(self):
        buffer = JitterBuffer(playout_delay_s=0.1)
        _deliver(buffer, _frame_packets(1.0))
        _deliver(buffer, _frame_packets(1.1))
        frame = buffer.playout(1.5)
        assert frame.timestamp == pytest.approx(1.1)
        assert buffer.stats.played == 1

    def test_early_packets_not_visible(self):
        buffer = JitterBuffer(playout_delay_s=0.05)
        packets = _frame_packets(1.0)
        # Packet physically arrives late (after its own deadline).
        for p in packets:
            buffer.push(DeliveredPacket(packet=p, arrival_time=1.5))
        assert buffer.playout(1.1) is None  # deadline passed, incomplete
        assert buffer.stats.lost_frames == 1


class TestLossHandling:
    def test_missing_chunk_means_lost_frame(self):
        buffer = JitterBuffer(playout_delay_s=0.1)
        packets = _frame_packets(1.0)
        assert len(packets) > 1
        _deliver(buffer, packets[:-1])  # drop last chunk
        assert buffer.playout(2.0) is None
        assert buffer.stats.lost_frames == 1

    def test_late_packet_for_released_frame_counted(self):
        buffer = JitterBuffer(playout_delay_s=0.1)
        packets = _frame_packets(1.0)
        _deliver(buffer, packets)
        buffer.playout(1.5)
        buffer.push(DeliveredPacket(packet=packets[0], arrival_time=2.0))
        assert buffer.stats.late_packets == 1

    def test_loss_then_recovery(self):
        buffer = JitterBuffer(playout_delay_s=0.1)
        _deliver(buffer, _frame_packets(1.0)[:-1])  # lost
        _deliver(buffer, _frame_packets(1.1))  # complete
        frame = buffer.playout(1.5)
        assert frame is not None
        assert frame.timestamp == pytest.approx(1.1)
        assert buffer.stats.lost_frames == 1


class TestDuplicatesAndLateArrivals:
    def test_late_duplicate_does_not_unfinish_a_complete_frame(self):
        """A retransmit arriving after the deadline must not overwrite the
        original arrival time and flip a decodable frame to lost."""
        buffer = JitterBuffer(playout_delay_s=0.1)
        packets = _frame_packets(1.0)
        _deliver(buffer, packets, delay=0.02)  # all chunks well in time
        # The same chunk shows up again, far past the playout deadline.
        buffer.push(DeliveredPacket(packet=packets[0], arrival_time=5.0))
        frame = buffer.playout(1.2)
        assert frame is not None
        assert buffer.stats.lost_frames == 0
        assert buffer.stats.duplicate_packets == 1
        assert buffer.stats.late_packets == 0

    def test_earlier_duplicate_copy_wins(self):
        """When the duplicate is the *earlier* copy, the frame becomes
        playable at the earlier time."""
        buffer = JitterBuffer(playout_delay_s=0.1)
        packets = _frame_packets(1.0)
        # First copies arrive very late, duplicates arrive in time.
        for p in packets:
            buffer.push(DeliveredPacket(packet=p, arrival_time=5.0))
        for p in packets:
            buffer.push(DeliveredPacket(packet=p, arrival_time=1.05))
        assert buffer.playout(1.2) is not None
        assert buffer.stats.duplicate_packets == len(packets)

    def test_duplicate_chunk_cannot_stand_in_for_missing_one(self):
        """len(chunks) == chunks_needed must not fake completeness when a
        duplicate index is doing the counting."""
        buffer = JitterBuffer(playout_delay_s=0.1)
        packets = _frame_packets(1.0)
        assert len(packets) > 1
        _deliver(buffer, packets[:-1])  # last chunk never arrives
        # Re-deliver the first chunk: the pending map holds as many
        # entries as chunks_needed, but index coverage is incomplete.
        _deliver(buffer, packets[:1])
        assert buffer.playout(2.0) is None
        assert buffer.stats.lost_frames == 1
        assert buffer.stats.duplicate_packets == 1

    def test_late_packet_after_lost_flush_does_not_resurrect(self):
        """A packet for a frame already flushed as lost is dropped and
        counted once as late — it must not re-open the frame or perturb
        later playout ordering."""
        buffer = JitterBuffer(playout_delay_s=0.1)
        first = _frame_packets(1.0)
        _deliver(buffer, first[:-1])  # incomplete -> lost at deadline
        assert buffer.playout(1.5) is None
        assert buffer.stats.lost_frames == 1
        # The straggler chunk finally shows up.
        buffer.push(DeliveredPacket(packet=first[-1], arrival_time=1.6))
        assert buffer.stats.late_packets == 1
        assert buffer.stats.duplicate_packets == 0
        assert len(buffer._pending) == 0
        # A newer frame still flows through normally.
        second = _frame_packets(2.0)
        _deliver(buffer, second)
        frame = buffer.playout(2.5)
        assert frame is not None
        assert frame.timestamp == pytest.approx(2.0)

    def test_duplicate_of_released_frame_counts_late_not_duplicate(self):
        buffer = JitterBuffer(playout_delay_s=0.1)
        packets = _frame_packets(1.0)
        _deliver(buffer, packets)
        assert buffer.playout(1.5) is not None
        buffer.push(DeliveredPacket(packet=packets[0], arrival_time=2.0))
        buffer.push(DeliveredPacket(packet=packets[0], arrival_time=2.1))
        assert buffer.stats.late_packets == 2
        assert buffer.stats.duplicate_packets == 0


class TestAccounting:
    def test_pending_count(self):
        buffer = JitterBuffer(playout_delay_s=1.0)
        _deliver(buffer, _frame_packets(1.0))
        _deliver(buffer, _frame_packets(1.1))
        assert len(buffer._pending) == 2
        buffer.playout(5.0)
        assert len(buffer._pending) == 0

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            JitterBuffer(playout_delay_s=-0.1)
