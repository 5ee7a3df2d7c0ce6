"""Luminance extraction from video streams (Sec. IV).

Two different probes, one per direction:

* **transmitted video** — each frame is compressed into a single pixel:
  the spatial mean of the BT.709 luminance.  Only the overall luminance
  matters because it is what drives the prover's screen emission.
* **received video** — the mean luminance of the nasal-bridge ROI located
  by landmark detection in every sampled frame.  Frames where no face is
  found (occlusion, loss concealment artifacts) *hold the previous
  value*: real systems cannot conjure the measurement, and a hold is
  spectrally quiet, so it does not fake a luminance change.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..video.frame import Frame
from ..video.luminance import frame_mean_luminance, pixel_luminance
from ..video.stream import VideoStream
from ..vision.geometry import Rect
from ..vision.landmarks import LandmarkDetector
from .roi import nasal_bridge_roi

__all__ = [
    "clip_signals",
    "roi_luminance",
    "roi_mean_luminance",
    "transmitted_luminance_signal",
    "ReceivedSignal",
    "received_luminance_signal",
]


def roi_mean_luminance(frame: Frame, roi: Rect) -> float | None:
    """Mean luminance inside ``roi``; ``None`` when the ROI misses the
    frame entirely."""
    clipped = roi.clipped_to(frame.width, frame.height)
    if clipped is None:
        return None
    rows, cols = clipped.pixel_slices()
    patch = frame.pixels[rows, cols]
    if patch.size == 0:
        return None
    lum = pixel_luminance(patch)
    # Exactly what ``lum.mean()`` computes, without its Python wrappers
    # (see ``frame_mean_luminance``).
    return float(np.add.reduce(lum, axis=None) / lum.size)


def roi_luminance(detector: LandmarkDetector, frame: Frame) -> float | None:
    """The received-frame probe of both front ends: landmarks, then the
    nasal-bridge ROI's mean luminance.  ``None`` when no face is found or
    the ROI misses the frame; each hit advances ``detector``'s jitter."""
    landmarks = detector.detect(frame.pixels)
    if landmarks is None:
        return None
    return roi_mean_luminance(frame, nasal_bridge_roi(landmarks))


def transmitted_luminance_signal(stream: VideoStream) -> np.ndarray:
    """Per-frame mean luminance of the transmitted video, shape ``(n,)``."""
    return np.array([frame_mean_luminance(f) for f in stream], dtype=np.float64)


@dataclasses.dataclass(frozen=True)
class ReceivedSignal:
    """ROI luminance signal plus per-frame validity bookkeeping."""

    luminance: np.ndarray
    valid: np.ndarray  # bool per frame: landmarks found and ROI inside frame

    @property
    def detection_rate(self) -> float:
        """Fraction of frames with a usable face detection."""
        return float(self.valid.mean()) if self.valid.size else 0.0


def received_luminance_signal(
    stream: VideoStream,
    detector: LandmarkDetector | None = None,
) -> ReceivedSignal:
    """Nasal-bridge ROI luminance for every frame of the received video.

    Invalid frames (no face / ROI outside frame) hold the previous valid
    value; leading invalid frames take the first valid value.  A stream
    with no valid frame at all yields an all-zero signal — downstream the
    flat signal produces no significant changes and the clip is rejected,
    which is the right failure direction for a liveness check.
    """
    detector = detector or LandmarkDetector()
    n = len(stream)
    luminance = np.zeros(n, dtype=np.float64)
    valid = np.zeros(n, dtype=bool)
    for i, frame in enumerate(stream):
        value = roi_luminance(detector, frame)
        if value is None:
            continue
        luminance[i] = value
        valid[i] = True

    if not valid.any():
        return ReceivedSignal(luminance=luminance, valid=valid)

    # Hold-last fill for the gaps; leading misses are backfilled with the
    # first valid value (never a hard 0.0, which would inject a phantom
    # luminance step at clip start).  StreamingVerifier._push_received
    # holds and backfills the same way within a call, but it carries its
    # last value across clip boundaries: a clip that opens with misses
    # holds the previous clip's last value there, not this clip's first
    # hit (tests/core/test_front_end_agreement.py pins both).
    first_valid = int(np.argmax(valid))
    luminance[:first_valid] = luminance[first_valid]
    last = luminance[first_valid]
    for i in range(first_valid, n):
        if valid[i]:
            last = luminance[i]
        else:
            luminance[i] = last
    return ReceivedSignal(luminance=luminance, valid=valid)


def clip_signals(
    transmitted: VideoStream,
    received: VideoStream,
    rate_hz: float,
    detector: LandmarkDetector,
) -> tuple[np.ndarray, np.ndarray]:
    """The two raw luminance signals of one clip pair.

    Both streams are resampled to ``rate_hz``; the transmitted mean and
    the received ROI probe (through ``detector``) are taken and trimmed
    to a common length.
    """
    if transmitted.fps != rate_hz:
        transmitted = transmitted.resampled(rate_hz)
    if received.fps != rate_hz:
        received = received.resampled(rate_hz)
    t_lum = transmitted_luminance_signal(transmitted)
    r_lum = received_luminance_signal(received, detector).luminance
    n = min(t_lum.size, r_lum.size)
    return t_lum[:n], r_lum[:n]
