"""Nasal-bridge ROI geometry (Fig. 5)."""

import pytest

from repro.core.roi import MIN_ROI_SIDE, nasal_bridge_roi
from repro.vision.geometry import Point
from repro.vision.landmarks import FaceLandmarks


def _landmarks(bridge_y=40.0, tip_y=48.0, x=50.0) -> FaceLandmarks:
    bridge = tuple(Point(x, bridge_y - 10 + i * (10.0 / 3)) for i in range(3)) + (
        Point(x, bridge_y),
    )
    tip = tuple(Point(x + dx, tip_y) for dx in (-4, -2, 0, 2, 4))
    return FaceLandmarks(
        nasal_bridge=bridge,
        nasal_tip=tip,
        left_eye=Point(x - 15, bridge_y - 12),
        right_eye=Point(x + 15, bridge_y - 12),
        mouth=Point(x, tip_y + 20),
    )


class TestRoiGeometry:
    def test_square_side_is_bridge_to_tip_distance(self):
        roi = nasal_bridge_roi(_landmarks(bridge_y=40.0, tip_y=48.0))
        assert roi.width == pytest.approx(8.0)
        assert roi.height == pytest.approx(8.0)

    def test_centered_on_lower_bridge(self):
        roi = nasal_bridge_roi(_landmarks(bridge_y=40.0, tip_y=48.0, x=50.0))
        assert (roi.x0 + roi.x1) / 2.0 == pytest.approx(50.0)
        assert (roi.y0 + roi.y1) / 2.0 == pytest.approx(40.0)

    def test_scales_with_face_size(self):
        small = nasal_bridge_roi(_landmarks(bridge_y=40.0, tip_y=44.0))
        large = nasal_bridge_roi(_landmarks(bridge_y=40.0, tip_y=56.0))
        assert large.width * large.height > small.width * small.height

    def test_minimum_side_enforced(self):
        tiny = nasal_bridge_roi(_landmarks(bridge_y=40.0, tip_y=40.5))
        assert tiny.width == pytest.approx(MIN_ROI_SIDE)

    def test_absolute_value_of_vertical_distance(self):
        # Tip above bridge (upside-down camera) still yields a valid square.
        roi = nasal_bridge_roi(_landmarks(bridge_y=48.0, tip_y=40.0))
        assert roi.width == pytest.approx(8.0)
