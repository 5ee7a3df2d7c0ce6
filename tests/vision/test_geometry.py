"""Geometry primitives."""

import math

import pytest

from repro.vision.geometry import Point, Rect, clamp, square_around


class TestClamp:
    def test_inside(self):
        assert clamp(0.5, 0.0, 1.0) == pytest.approx(0.5)

    def test_below_and_above(self):
        assert clamp(-1.0, 0.0, 1.0) == pytest.approx(0.0)
        assert clamp(2.0, 0.0, 1.0) == pytest.approx(1.0)

    def test_empty_interval_raises(self):
        with pytest.raises(ValueError):
            clamp(0.5, 1.0, 0.0)


class TestPoint:
    def test_distance(self):
        assert Point(0, 0).distance_to(Point(3, 4)) == pytest.approx(5.0)

    def test_translate(self):
        p = Point(1, 2).translated(3, -1)
        assert (p.x, p.y) == (4, 1)

    def test_scale_about_origin(self):
        p = Point(2, 4).scaled(0.5)
        assert (p.x, p.y) == (1, 2)

    def test_scale_about_point(self):
        p = Point(3, 3).scaled(2.0, origin=Point(1, 1))
        assert (p.x, p.y) == (5, 5)

    def test_as_array(self):
        arr = Point(1.5, 2.5).as_array()
        assert list(arr) == [1.5, 2.5]


class TestRect:
    def test_dimensions(self):
        r = Rect(1, 2, 4, 8)
        assert r.width == 3
        assert r.height == 6
        assert (r.center.x, r.center.y) == (2.5, 5.0)

    def test_degenerate_raises(self):
        with pytest.raises(ValueError):
            Rect(4, 0, 1, 1)

    def test_intersect(self):
        a = Rect(0, 0, 4, 4)
        b = Rect(2, 2, 6, 6)
        inter = a.intersect(b)
        assert inter == Rect(2, 2, 4, 4)

    def test_disjoint_intersect_none(self):
        assert Rect(0, 0, 1, 1).intersect(Rect(5, 5, 6, 6)) is None

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
        sq = square_around(Point(10, 20), 4.0)
        assert sq == Rect(8, 18, 12, 22)
        assert sq.center.x == pytest.approx(10)

    def test_negative_side_raises(self):
        with pytest.raises(ValueError):
            square_around(Point(0, 0), -1.0)

    def test_zero_side_allowed(self):
        sq = square_around(Point(5, 5), 0.0)
        assert (sq.width, sq.height) == (0.0, 0.0)
