"""Video codec simulation.

Video chat streams are compressed; compression quantizes pixel values and
bounds the bitrate.  For the paper's signal chain the relevant effects
are (a) the quantization noise added to the luminance signals and (b) the
per-frame payload size that the packetizer splits across the network.

The model is a uniform quantizer with a quality-driven step plus a simple
bitrate estimate — deliberately *not* a DCT codec, because the detector
only reads spatial means over ROIs, where quantization step is the
first-order effect.  Encoding rounds float pixels to the ``uint8`` grid
into one read-only raster; the sender's record of the frame, the packets
in flight and the decoded frame all share it.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .frame import Frame

__all__ = ["EncodedFrame", "VideoCodec"]


@dataclasses.dataclass(frozen=True)
class EncodedFrame:
    """Compressed representation of one frame."""

    frame_id: int
    timestamp: float
    data: np.ndarray  # quantized uint8 pixels
    payload_bytes: int
    metadata: dict = dataclasses.field(default_factory=dict)

    @property
    def shape(self) -> tuple[int, int]:
        return (int(self.data.shape[0]), int(self.data.shape[1]))


class VideoCodec:
    """Quality-parameterized quantizing codec.

    Parameters
    ----------
    quality:
        In (0, 1]; 1.0 means plain 8-bit quantization, lower values use a
        coarser step (step = round(1/quality)) and a smaller payload.
    base_compression:
        Compression ratio at quality 1.0 (H.264-ish interframe coding
        easily reaches ~50:1 on talking-head content).
    """

    def __init__(self, quality: float = 0.9, base_compression: float = 50.0) -> None:
        if not 0.0 < quality <= 1.0:
            raise ValueError("quality must lie in (0, 1]")
        if base_compression < 1.0:
            raise ValueError("base_compression must be >= 1")
        self.quality = quality
        self.base_compression = base_compression
        self._next_id = 0

    @property
    def quant_step(self) -> int:
        """Quantization step in 8-bit pixel units."""
        return max(1, int(round(1.0 / self.quality)))

    def encode(self, frame: Frame) -> EncodedFrame:
        """Quantize a frame and estimate its payload size."""
        step = self.quant_step
        levels = np.clip(frame.pixels, 0.0, 255.0)
        if step == 1:
            # Dividing and multiplying by 1 are exact no-ops, and a rounded
            # value in [0, 255] stays in range.
            np.round(levels, out=levels)
        else:
            levels /= step
            np.round(levels, out=levels)
            levels *= step
            # Re-clip after scaling: values near 255 can round up to the
            # next step (e.g. 254 -> 256 at step 4), which would wrap in uint8.
            np.clip(levels, 0.0, 255.0, out=levels)
        quantized = levels.astype(np.uint8)
        # One raster is shared by the sent frame, the jitter buffer and
        # the decoded frame; a write to any of them would change them all.
        quantized.flags.writeable = False
        raw_bytes = quantized.size
        compression = self.base_compression / self.quality
        payload = max(int(raw_bytes / compression), 64)
        encoded = EncodedFrame(
            frame_id=self._next_id,
            timestamp=frame.timestamp,
            data=quantized,
            payload_bytes=payload,
            metadata=dict(frame.metadata),
        )
        self._next_id += 1
        return encoded

    def decode(self, encoded: EncodedFrame) -> Frame:
        """Reconstruct the (quantized) frame around the encoded ``uint8``
        raster itself, as a chat client's decoder hands 8-bit frames on:
        no float copy, so a received stream costs the bytes it carries."""
        return Frame(
            pixels=encoded.data,
            timestamp=encoded.timestamp,
            metadata=dict(encoded.metadata, frame_id=encoded.frame_id),
        )
