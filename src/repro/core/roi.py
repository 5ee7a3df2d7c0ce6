"""Region-of-interest geometry on the nasal bridge (Sec. IV, Fig. 5).

The lower part of the nasal bridge is the paper's measurement site: it is
robustly located by landmark detection, rarely occluded (unlike eyes that
blink and mouths that talk), and catches the screen light nearly head-on.

Given the landmark API's output, the ROI is the square of side
``l = |b1 - b2|`` centered on the lower nasal-bridge point ``(a1, b1)``,
where ``(a2, b2)`` is the nasal tip — sizing the patch by the
bridge-to-tip distance makes it scale-invariant across cameras and
viewing distances.
"""

from __future__ import annotations

from ..vision.geometry import Rect, square_around
from ..vision.landmarks import FaceLandmarks

__all__ = ["nasal_bridge_roi"]

#: The ROI never collapses below this side length (pixels) even when the
#: face is tiny in the frame; a 1-pixel patch would be all sensor noise.
MIN_ROI_SIDE = 2.0


def nasal_bridge_roi(landmarks: FaceLandmarks) -> Rect:
    """The luminance-measurement square from one frame's landmarks."""
    a1, b1, b2 = landmarks.roi_coordinates()
    return square_around(a1, b1, max(abs(b1 - b2), MIN_ROI_SIDE))
