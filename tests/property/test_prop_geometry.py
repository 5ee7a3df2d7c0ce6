"""Property-based tests of geometry and luminance primitives."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.screen.illumination import screen_illuminance
from repro.video.luminance import pixel_luminance
from repro.vision.geometry import Rect, square_around

coord = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False)


class TestRectProperties:
    @given(coord, coord, st.floats(min_value=0.0, max_value=100.0), st.floats(min_value=0.0, max_value=100.0))
    @settings(max_examples=60, deadline=None)
    def test_intersection_contained_in_both(self, x0, y0, w, h):
        """``clipped_to`` is the rectangle's intersection with the image."""
        a = Rect(x0, y0, x0 + w, y0 + h)
        image = Rect(0.0, 0.0, abs(x0) + w / 2, abs(y0) + h / 2)
        inter = a.clipped_to(image.width, image.height)
        if inter is not None:
            assert inter.x0 >= a.x0 and inter.x1 <= a.x1
            assert inter.y0 >= a.y0 and inter.y1 <= a.y1
            assert inter.x0 >= image.x0 and inter.x1 <= image.x1
            assert inter.y0 >= image.y0 and inter.y1 <= image.y1

    @given(coord, coord, st.floats(min_value=0.0, max_value=50.0))
    @settings(max_examples=60, deadline=None)
    def test_square_around_is_centered(self, x, y, side):
        sq = square_around(x, y, side)
        assert np.isclose((sq.x0 + sq.x1) / 2.0, x)
        assert np.isclose((sq.y0 + sq.y1) / 2.0, y)
        assert np.isclose(sq.width, side)
        assert np.isclose(sq.height, side)


class TestIlluminationProperties:
    @given(
        st.floats(min_value=0.0, max_value=1e4),
        st.floats(min_value=1e-4, max_value=2.0),
        st.floats(min_value=0.0, max_value=5.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_illuminance_monotone_in_luminance(self, lum, area, dist):
        a = screen_illuminance(lum, area, dist)
        b = screen_illuminance(lum * 2, area, dist)
        assert b >= a

    @given(
        st.floats(min_value=1.0, max_value=1e4),
        st.floats(min_value=1e-4, max_value=2.0),
        st.floats(min_value=0.01, max_value=5.0),
        st.floats(min_value=0.01, max_value=5.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_illuminance_decreases_with_distance(self, lum, area, d1, d2):
        near, far = sorted((d1, d2))
        assert screen_illuminance(lum, area, near) >= screen_illuminance(lum, area, far)


class TestLuminanceProperties:
    @given(
        st.tuples(
            st.floats(min_value=0.0, max_value=255.0),
            st.floats(min_value=0.0, max_value=255.0),
            st.floats(min_value=0.0, max_value=255.0),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_luminance_bounded_by_channel_extremes(self, rgb):
        value = pixel_luminance(np.array(rgb))
        assert min(rgb) - 1e-9 <= value <= max(rgb) + 1e-9

    @given(
        st.tuples(
            st.floats(min_value=0.0, max_value=255.0),
            st.floats(min_value=0.0, max_value=255.0),
            st.floats(min_value=0.0, max_value=255.0),
        ),
        st.floats(min_value=0.0, max_value=2.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_luminance_is_linear(self, rgb, factor):
        base = pixel_luminance(np.array(rgb))
        scaled = pixel_luminance(np.array(rgb) * factor)
        assert np.isclose(scaled, base * factor, rtol=1e-9, atol=1e-9)
