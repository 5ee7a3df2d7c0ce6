"""Frame container."""

import numpy as np
import pytest

from repro.video.frame import Frame

from ..conftest import blank_frame


class TestConstruction:
    def test_shape_properties(self):
        frame = blank_frame(12, 20, value=5.0)
        assert frame.height == 12
        assert frame.width == 20
        assert frame.shape == (12, 20)

    def test_pixels_coerced_to_float(self):
        """The codec's uint8 raster and float64 are stored as given;
        every other input becomes float64."""
        for dtype in (np.uint8, np.float64):
            pixels = np.zeros((4, 4, 3), dtype=dtype)
            assert Frame(pixels=pixels, timestamp=0.0).pixels is pixels
        for pixels in (
            np.zeros((4, 4, 3), dtype=np.int16),
            np.zeros((4, 4, 3), dtype=np.float32),
            np.zeros((4, 4, 3), dtype=">f8"),
            [[[1, 2, 3]]],
        ):
            assert Frame(pixels=pixels, timestamp=0.0).pixels.dtype == np.float64

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            Frame(pixels=np.zeros((4, 4)), timestamp=0.0)
        with pytest.raises(ValueError):
            Frame(pixels=np.zeros((4, 4, 4)), timestamp=0.0)

    def test_blank_frame_validation(self):
        with pytest.raises(ValueError):
            blank_frame(0, 5)


class TestOperations:
    def test_copy_is_deep(self):
        frame = blank_frame(4, 4, value=1.0)
        frame.metadata["k"] = 1
        dup = frame.copy()
        dup.pixels[0, 0, 0] = 99.0
        dup.metadata["k"] = 2
        assert frame.pixels[0, 0, 0] == pytest.approx(1.0)
        assert frame.metadata["k"] == 1

    def test_copy_keeps_the_uint8_raster(self):
        pixels = np.arange(48, dtype=np.uint8).reshape(4, 4, 3)
        dup = Frame(pixels=pixels, timestamp=0.0).copy()
        assert dup.pixels.dtype == np.uint8
        assert dup.pixels is not pixels
        assert np.array_equal(dup.pixels, pixels)
