"""Geometry primitives."""

import pytest

from repro.vision.geometry import Point, Rect, square_around


class TestPoint:
    def test_distance(self):
        assert Point(0, 0).distance_to(Point(3, 4)) == pytest.approx(5.0)


class TestRect:
    def test_dimensions(self):
        r = Rect(1, 2, 4, 8)
        assert r.width == 3
        assert r.height == 6

    def test_degenerate_raises(self):
        with pytest.raises(ValueError):
            Rect(4, 0, 1, 1)

    def test_clip_to_image(self):
        r = Rect(-2, -2, 3, 3).clipped_to(10, 10)
        assert r == Rect(0, 0, 3, 3)

    def test_clip_fully_outside(self):
        assert Rect(20, 20, 30, 30).clipped_to(10, 10) is None

    def test_pixel_slices_cover_geometry(self):
        rows, cols = Rect(1.2, 2.7, 3.8, 4.1).pixel_slices()
        assert rows == slice(2, 5)
        assert cols == slice(1, 4)

    def test_pixel_slices_never_empty(self):
        rows, cols = Rect(3.0, 3.0, 3.0, 3.0).pixel_slices()
        assert rows.stop > rows.start
        assert cols.stop > cols.start


class TestSquareAround:
    def test_centered_square(self):
        sq = square_around(10, 20, 4.0)
        assert sq == Rect(8, 18, 12, 22)

    def test_negative_side_raises(self):
        with pytest.raises(ValueError):
            square_around(0, 0, -1.0)

    def test_zero_side_allowed(self):
        sq = square_around(5, 5, 0.0)
        assert (sq.width, sq.height) == (0.0, 0.0)
