"""BT.709 luminance helpers."""

import numpy as np
import pytest

from repro.video.luminance import BT709_WEIGHTS, frame_mean_luminance, pixel_luminance

from ..conftest import blank_frame


class TestWeights:
    def test_weights_sum_to_one(self):
        # This is the paper's Eq. 3 with the blue-coefficient typo fixed.
        assert BT709_WEIGHTS.sum() == pytest.approx(1.0)

    def test_green_dominates(self):
        r, g, b = BT709_WEIGHTS
        assert g > r > b


class TestPixelLuminance:
    def test_white_is_255(self):
        assert pixel_luminance(np.array([255.0, 255.0, 255.0])) == pytest.approx(255.0)

    def test_pure_channels(self):
        assert pixel_luminance(np.array([255.0, 0.0, 0.0])) == pytest.approx(255 * 0.2126)
        assert pixel_luminance(np.array([0.0, 255.0, 0.0])) == pytest.approx(255 * 0.7152)
        assert pixel_luminance(np.array([0.0, 0.0, 255.0])) == pytest.approx(255 * 0.0722)

    def test_batched_shapes(self):
        img = np.zeros((4, 5, 3))
        assert pixel_luminance(img).shape == (4, 5)

    def test_rejects_non_rgb(self):
        with pytest.raises(ValueError):
            pixel_luminance(np.zeros((4, 4)))


class TestFrameMean:
    def test_uniform_frame(self):
        assert frame_mean_luminance(blank_frame(6, 6, value=80.0)) == pytest.approx(80.0)

    def test_accepts_raw_array(self):
        assert frame_mean_luminance(np.full((3, 3, 3), 10.0)) == pytest.approx(10.0)

    def test_spatial_mean(self):
        frame = blank_frame(2, 2, value=0.0)
        frame.pixels[0, 0] = [255.0, 255.0, 255.0]
        assert frame_mean_luminance(frame) == pytest.approx(255.0 / 4)
