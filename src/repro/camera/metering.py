"""Light metering (Sec. II-B).

Digital cameras predict how much light hits the subject and set exposure
accordingly.  The paper leans on the two common modes:

* **spot metering** — measure a small window; by *touching the screen*
  the legitimate user moves that window between bright and dark parts of
  the scene, which swings the auto-exposure and therefore the overall
  luminance of the transmitted video.  This is the paper's challenge
  mechanism, and it preserves the scene content (no flashing frames).
* **multi-zone metering** — a center-weighted grid average, the default
  mode when the user is not interacting.

Metering operates on *linear scene radiance* (what the sensor sees before
gamma), matching real metering hardware.
"""

from __future__ import annotations

import dataclasses
import enum

import numpy as np

__all__ = ["MeteringMode", "LightMeter"]


class MeteringMode(enum.Enum):
    """Supported metering modes."""

    SPOT = "spot"
    MULTI_ZONE = "multi_zone"


def _window(radiance: np.ndarray, cx: float, cy: float, size: float) -> np.ndarray:
    """Extract the metering window around a normalized center."""
    height, width = radiance.shape[:2]
    half_h = max(int(size * height / 2.0), 1)
    half_w = max(int(size * width / 2.0), 1)
    row = int(cy * height)
    col = int(cx * width)
    r0 = min(max(row - half_h, 0), height - 1)
    r1 = min(max(row + half_h, r0 + 1), height)
    c0 = min(max(col - half_w, 0), width - 1)
    c1 = min(max(col + half_w, c0 + 1), width)
    return radiance[r0:r1, c0:c1]


@dataclasses.dataclass
class LightMeter:
    """Measures scene radiance for the auto-exposure loop.

    Attributes
    ----------
    mode:
        Current metering mode.
    spot_x, spot_y:
        Normalized [0, 1] center of the spot window (mutable: the user
        re-points it by touching the screen).
    spot_size:
        Side of the spot window as a fraction of the frame.
    grid:
        Zone grid for multi-zone mode.
    center_weight:
        Extra weight on the central zones in multi-zone mode.
    """

    mode: MeteringMode = MeteringMode.MULTI_ZONE
    spot_x: float = 0.5
    spot_y: float = 0.5
    spot_size: float = 0.12
    grid: tuple[int, int] = (3, 3)
    center_weight: float = 2.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.spot_x <= 1.0 or not 0.0 <= self.spot_y <= 1.0:
            raise ValueError("spot center must lie in [0, 1] x [0, 1]")
        if not 0.0 < self.spot_size <= 1.0:
            raise ValueError("spot_size must lie in (0, 1]")
        if self.grid[0] < 1 or self.grid[1] < 1:
            raise ValueError("grid must have at least one zone per axis")
        if self.center_weight < 1.0:
            raise ValueError("center_weight must be >= 1")

    def point_spot(self, x: float, y: float) -> None:
        """Move the spot window (the user's screen touch)."""
        if not 0.0 <= x <= 1.0 or not 0.0 <= y <= 1.0:
            raise ValueError("spot center must lie in [0, 1] x [0, 1]")
        self.mode = MeteringMode.SPOT
        self.spot_x = x
        self.spot_y = y

    def measure(self, radiance: np.ndarray) -> float:
        """Measured scene level (linear radiance units, channel-averaged)."""
        radiance = np.asarray(radiance, dtype=np.float64)
        if radiance.ndim != 3 or radiance.shape[2] != 3:
            raise ValueError("radiance must have shape (h, w, 3)")
        if self.mode is MeteringMode.SPOT:
            window = _window(radiance, self.spot_x, self.spot_y, self.spot_size)
            return float(window.mean())
        return self._multi_zone(radiance)

    def _multi_zone(self, radiance: np.ndarray) -> float:
        rows, cols = self.grid
        height, width = radiance.shape[:2]
        luma = (radiance[..., 0] + radiance[..., 1] + radiance[..., 2]) / 3.0
        total = 0.0
        weight_sum = 0.0
        for i in range(rows):
            for j in range(cols):
                r0 = i * height // rows
                r1 = (i + 1) * height // rows
                c0 = j * width // cols
                c1 = (j + 1) * width // cols
                zone_mean = float(luma[r0:r1, c0:c1].mean())
                is_center = (i == rows // 2) and (j == cols // 2)
                weight = self.center_weight if is_center else 1.0
                total += weight * zone_mean
                weight_sum += weight
        return total / weight_sum
