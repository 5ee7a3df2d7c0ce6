"""Receive-side jitter buffer with playout scheduling and loss handling.

Collects packets (possibly reordered by jitter), reassembles frames, and
releases each frame at its playout deadline ``send_time + playout_delay``.
A frame whose packets have not *all arrived* by its deadline is declared
lost; the consumer conceals the loss by holding the previous frame —
which is what freezes the luminance signal during loss bursts, a noise
source the detector's preprocessing has to ride out.

Packets may be pushed as soon as the channel computes their arrival time;
the buffer honours that time and never exposes a packet early.
"""

from __future__ import annotations

import dataclasses

from ..video.codec import EncodedFrame
from .channel import DeliveredPacket

__all__ = ["JitterBuffer", "PlayoutStats"]


@dataclasses.dataclass
class PlayoutStats:
    """Running playout statistics."""

    played: int = 0
    lost_frames: int = 0
    skipped_frames: int = 0  # complete but superseded by a newer frame
    late_packets: int = 0  # packets for frames already flushed
    duplicate_packets: int = 0  # retransmits of chunks already held


@dataclasses.dataclass
class _PendingFrame:
    frame: EncodedFrame
    chunks_needed: int
    playout_time: float
    chunk_arrivals: dict[int, float] = dataclasses.field(default_factory=dict)

    def complete_at(self, now: float) -> bool:
        """Every required chunk index present and physically arrived by
        ``now``.  Counting ``len(chunk_arrivals)`` would let a duplicate
        or corrupt chunk index stand in for a missing one."""
        if any(i not in self.chunk_arrivals for i in range(self.chunks_needed)):
            return False
        return max(self.chunk_arrivals.values()) <= now


class JitterBuffer:
    """Packet reassembly + playout scheduling for one incoming stream."""

    def __init__(self, playout_delay_s: float = 0.15) -> None:
        if playout_delay_s < 0:
            raise ValueError("playout_delay_s must be non-negative")
        self.playout_delay_s = playout_delay_s
        self._pending: dict[int, _PendingFrame] = {}
        self._last_released_id = -1
        self.stats = PlayoutStats()

    def push(self, delivered: DeliveredPacket) -> None:
        """Accept one delivered packet (effective at its arrival time)."""
        packet = delivered.packet
        if packet.frame_id <= self._last_released_id:
            self.stats.late_packets += 1
            return
        pending = self._pending.get(packet.frame_id)
        if pending is None:
            pending = _PendingFrame(
                frame=packet.frame,
                chunks_needed=packet.chunk_count,
                playout_time=packet.send_time + self.playout_delay_s,
            )
            self._pending[packet.frame_id] = pending
        held = pending.chunk_arrivals.get(packet.chunk_index)
        if held is not None:
            # Duplicate sequence number (retransmit or path duplication):
            # keep the *earliest* arrival — the frame was decodable from
            # the first copy, so a late duplicate must not push the frame
            # past its deadline — and account it separately from late
            # packets so neither metric double-counts.
            self.stats.duplicate_packets += 1
            if delivered.arrival_time < held:
                pending.chunk_arrivals[packet.chunk_index] = delivered.arrival_time
            return
        pending.chunk_arrivals[packet.chunk_index] = delivered.arrival_time

    def playout(self, now: float) -> EncodedFrame | None:
        """Return the newest frame whose deadline has passed, or ``None``.

        Due frames that are incomplete (or whose packets arrived after
        the deadline check) are counted lost and discarded.  Older
        complete frames skipped by a newer one are not surfaced —
        real-time playout always jumps to the freshest frame.
        """
        due = [fid for fid, p in self._pending.items() if p.playout_time <= now]
        if not due:
            return None
        newest_complete: _PendingFrame | None = None
        for fid in sorted(due):
            pending = self._pending.pop(fid)
            if pending.complete_at(now):
                if newest_complete is not None:
                    self.stats.skipped_frames += 1
                newest_complete = pending
            else:
                self.stats.lost_frames += 1
            self._last_released_id = max(self._last_released_id, fid)
        if newest_complete is None:
            return None
        self.stats.played += 1
        return newest_complete.frame
