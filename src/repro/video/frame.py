"""Video frame representation.

A :class:`Frame` is the atom that flows through the whole system: the
renderer produces frames, the camera sensor degrades them, the codec
quantizes them, the network transports them, and the detector finally
consumes them.  A frame is an RGB raster plus a capture timestamp and a
small, open-ended metadata dictionary (used e.g. by the renderer to attach
ground-truth landmark positions so tests can measure detector error).

Pixel convention
----------------
Pixels are display-referred values in ``[0, 255]`` (i.e. already
gamma-encoded, like the 8-bit values a webcam delivers), stored either as
``float64`` or as the codec's ``uint8`` raster.  In the chat loop, float
storage is used only inside the sender's pipeline (renderer, sensor, the
frame handed to the codec), where it avoids repeated quantization.  The codec is the one
place that deliberately rounds to the 8-bit grid, exactly like a real
video chat stack: the frame a link sends and the frame the peer decodes
share that read-only raster, at an eighth of the float bytes, and every
recorded stream (transmitted and received) holds it.  Readers that need
arithmetic (``pixel_luminance``, the landmark detector's skin mask)
convert to ``float64`` on entry, so both storages read the same values.
"""

from __future__ import annotations

import dataclasses
from typing import Any

import numpy as np

__all__ = ["Frame", "blank_frame"]

#: Pixel dtypes a frame stores unchanged: the float64 working form and
#: the codec's 8-bit raster.  Any other input is converted to float64.
_STORED_DTYPES = (np.dtype(np.float64), np.dtype(np.uint8))


@dataclasses.dataclass
class Frame:
    """A single RGB video frame.

    Parameters
    ----------
    pixels:
        Array of shape ``(height, width, 3)`` with values in ``[0, 255]``;
        a ``uint8`` array is kept as is, anything else becomes ``float64``.
    timestamp:
        Capture time in seconds (sender clock).
    metadata:
        Free-form side information.  The renderer attaches
        ``"landmarks"`` (ground truth) and ``"illuminance"`` here; the
        network layer attaches ``"arrival_time"``.
    """

    pixels: np.ndarray
    timestamp: float
    metadata: dict[str, Any] = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        pixels = self.pixels
        if type(pixels) is not np.ndarray or pixels.dtype not in _STORED_DTYPES:
            pixels = np.asarray(pixels, dtype=np.float64)
        if pixels.ndim != 3 or pixels.shape[2] != 3:
            raise ValueError(
                f"frame pixels must have shape (h, w, 3), got {pixels.shape}"
            )
        self.pixels = pixels

    @property
    def height(self) -> int:
        """Frame height in pixels."""
        return int(self.pixels.shape[0])

    @property
    def width(self) -> int:
        """Frame width in pixels."""
        return int(self.pixels.shape[1])

    @property
    def shape(self) -> tuple[int, int]:
        """(height, width) of the raster."""
        return (self.height, self.width)

    def copy(self) -> "Frame":
        """Deep copy (pixels and metadata are duplicated)."""
        return Frame(
            pixels=self.pixels.copy(),
            timestamp=self.timestamp,
            metadata=dict(self.metadata),
        )


def blank_frame(
    height: int,
    width: int,
    value: float = 0.0,
    timestamp: float = 0.0,
) -> Frame:
    """Create a uniform frame (useful as a test fixture and codec seed)."""
    if height <= 0 or width <= 0:
        raise ValueError("frame dimensions must be positive")
    pixels = np.full((height, width, 3), float(value), dtype=np.float64)
    return Frame(pixels=pixels, timestamp=timestamp)
