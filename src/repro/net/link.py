"""A one-way media link: codec -> packetizer -> channel -> jitter buffer.

Bundles the four network-path stages into the object the chat session
wires between two endpoints.  ``send`` pushes a frame in at time ``t``
and returns it as sent (the codec's 8-bit raster); ``receive`` pulls the
newest displayable frame out at time ``now`` (or ``None`` while nothing
new is due — the consumer then freezes the last frame, as video chat
software does).
"""

from __future__ import annotations

from ..video.codec import VideoCodec
from ..video.frame import Frame
from .channel import NetworkChannel
from .jitterbuffer import JitterBuffer
from .packet import Packetizer

__all__ = ["MediaLink"]


class MediaLink:
    """One direction of the video-chat media path."""

    def __init__(
        self,
        codec: VideoCodec | None = None,
        packetizer: Packetizer | None = None,
        channel: NetworkChannel | None = None,
        jitter_buffer: JitterBuffer | None = None,
    ) -> None:
        self.codec = codec or VideoCodec()
        self.packetizer = packetizer or Packetizer()
        self.channel = channel or NetworkChannel()
        self.jitter_buffer = jitter_buffer or JitterBuffer()

    def send(self, frame: Frame) -> Frame:
        """Encode, packetize and transmit one frame at its timestamp.

        Returns the frame as it went out: the encoded ``uint8`` raster
        itself (no copy; the codec made it read-only, since the jitter
        buffer and the peer's decoded frame share it) with the input's
        timestamp and metadata.
        """
        encoded = self.codec.encode(frame)
        packets = self.packetizer.packetize(encoded, send_time=frame.timestamp)
        for delivered in self.channel.transmit_all(packets):
            self.jitter_buffer.push(delivered)
        return Frame(pixels=encoded.data, timestamp=frame.timestamp, metadata=frame.metadata)

    def receive(self, now: float) -> Frame | None:
        """Newest frame due for playout at ``now``, decoded; else ``None``."""
        encoded = self.jitter_buffer.playout(now)
        if encoded is None:
            return None
        frame = self.codec.decode(encoded)
        frame.metadata["playout_time"] = now
        return frame

    @property
    def one_way_delay_s(self) -> float:
        """Nominal sender-to-display latency of this link."""
        return self.channel.base_delay_s + self.jitter_buffer.playout_delay_s
