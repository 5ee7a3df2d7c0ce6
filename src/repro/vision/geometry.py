"""Small 2-D geometry helpers shared by the vision stack.

Coordinates follow image convention: ``x`` grows rightwards (columns),
``y`` grows downwards (rows).  All helpers are pure and numpy-friendly.
"""

from __future__ import annotations

import dataclasses
import math

__all__ = ["Point", "Rect", "square_around"]


@dataclasses.dataclass(frozen=True)
class Point:
    """An (x, y) location in image coordinates (pixels, float)."""

    x: float
    y: float

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to another point."""
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclasses.dataclass(frozen=True)
class Rect:
    """An axis-aligned rectangle ``[x0, x1) x [y0, y1)``."""

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self) -> None:
        if self.x1 < self.x0 or self.y1 < self.y0:
            raise ValueError(f"degenerate rectangle: {self}")

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0

    def clipped_to(self, width: float, height: float) -> "Rect | None":
        """The part inside an image of the given size; ``None`` if fully outside."""
        x0 = max(self.x0, 0.0)
        y0 = max(self.y0, 0.0)
        x1 = min(self.x1, float(width))
        y1 = min(self.y1, float(height))
        if x1 <= x0 or y1 <= y0:
            return None
        return Rect(x0, y0, x1, y1)

    def pixel_slices(self) -> tuple[slice, slice]:
        """Integer (row, column) slices covering the rectangle.

        The rectangle is rounded outward-inward to the nearest pixel grid:
        start coordinates round down, end coordinates round up, so a
        rectangle always covers at least the pixels it geometrically
        overlaps.  Callers must clip to the image first.
        """
        row = slice(int(math.floor(self.y0)), max(int(math.ceil(self.y1)), int(math.floor(self.y0)) + 1))
        col = slice(int(math.floor(self.x0)), max(int(math.ceil(self.x1)), int(math.floor(self.x0)) + 1))
        return row, col


def square_around(x: float, y: float, side: float) -> Rect:
    """Axis-aligned square of the given ``side`` centered on ``(x, y)``.

    This is the ROI shape the paper extracts on the lower nasal bridge
    (Sec. IV, Fig. 5): side ``l = |b1 - b2|`` centered on the bridge point.
    """
    if side < 0:
        raise ValueError("square side must be non-negative")
    half = side / 2.0
    return Rect(x - half, y - half, x + half, y + half)
