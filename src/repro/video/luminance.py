"""Relative luminance of pixels and frames (ITU-R BT.709).

The paper's Eq. (3) defines pixel luminance as
``C = 0.2126 R + 0.7152 G + 0.0722 B`` — the standard BT.709 weights
matching human brightness perception.  (The paper's text prints the blue
coefficient as 0.722, an obvious typo: the weights must sum to 1.)

These helpers operate on display-referred [0, 255] pixel data and are
shared by the screen model (what a displayed frame emits) and the
detector's luminance-extraction stage.
"""

from __future__ import annotations

import numpy as np

from .frame import Frame

__all__ = ["BT709_WEIGHTS", "pixel_luminance", "frame_mean_luminance"]

#: BT.709 luma weights for (R, G, B).
BT709_WEIGHTS = np.array([0.2126, 0.7152, 0.0722], dtype=np.float64)


def pixel_luminance(pixels: np.ndarray) -> np.ndarray:
    """Per-pixel luminance of an ``(..., 3)`` RGB array."""
    pixels = np.asarray(pixels, dtype=np.float64)
    if pixels.shape[-1] != 3:
        raise ValueError(f"last axis must be RGB, got shape {pixels.shape}")
    return pixels @ BT709_WEIGHTS


def frame_mean_luminance(frame: Frame | np.ndarray) -> float:
    """Mean luminance of a whole frame.

    This is the paper's "compress each frame into a single pixel" step
    (Sec. IV) used for the transmitted video: only the overall luminance
    of the displayed content matters to the screen-light signal.
    """
    pixels = frame.pixels if isinstance(frame, Frame) else np.asarray(frame)
    lum = pixel_luminance(pixels)
    # ``lum.mean()`` is this same pairwise ``add.reduce`` over every
    # element divided by the count; calling it directly skips the
    # Python-level wrappers of ``np.mean``, bit for bit the same value.
    return float(np.add.reduce(lum, axis=None) / lum.size)
