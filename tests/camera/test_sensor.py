"""Image sensor: exposure scaling, gamma, noise, clipping."""

import numpy as np
import pytest

from repro.camera.sensor import ImageSensor


def _radiance(value, shape=(8, 8, 3)):
    return np.full(shape, float(value))


class TestNoiselessPath:
    def test_full_scale_maps_to_255(self):
        sensor = ImageSensor(rng=None)
        out = sensor.expose(_radiance(100.0), exposure=0.01)
        assert np.allclose(out, 255.0)

    def test_gamma_encoding(self):
        sensor = ImageSensor(gamma=2.2, rng=None)
        out = sensor.expose(_radiance(50.0), exposure=0.01)  # linear 0.5
        assert np.allclose(out, 255.0 * 0.5 ** (1 / 2.2))

    def test_clips_above_full_scale(self):
        sensor = ImageSensor(rng=None)
        out = sensor.expose(_radiance(1000.0), exposure=0.01)
        assert np.allclose(out, 255.0)

    def test_zero_radiance_is_black(self):
        sensor = ImageSensor(rng=None)
        assert np.allclose(sensor.expose(_radiance(0.0), 1.0), 0.0)

    def test_exposure_scales_linear_signal(self):
        sensor = ImageSensor(gamma=1.0, rng=None)
        half = sensor.expose(_radiance(50.0), exposure=0.005)
        full = sensor.expose(_radiance(50.0), exposure=0.01)
        assert np.allclose(full, 2 * half)


class TestNoise:
    def test_noise_has_expected_scale(self):
        sensor = ImageSensor(read_noise=1.0, shot_noise_scale=0.0, rng=np.random.default_rng(0))
        out = sensor.expose(_radiance(25.0, (100, 100, 3)), exposure=0.01)
        clean = ImageSensor(rng=None).expose(_radiance(25.0, (100, 100, 3)), exposure=0.01)
        residual = out - clean
        assert residual.std() == pytest.approx(1.0, rel=0.1)

    def test_shot_noise_grows_with_signal(self):
        rng = np.random.default_rng(1)
        sensor = ImageSensor(read_noise=0.0, shot_noise_scale=2.0, rng=rng)
        dim = sensor.expose(_radiance(5.0, (80, 80, 3)), exposure=0.002)
        bright = sensor.expose(_radiance(60.0, (80, 80, 3)), exposure=0.002)
        clean_dim = ImageSensor(rng=None).expose(_radiance(5.0, (80, 80, 3)), 0.002)
        clean_bright = ImageSensor(rng=None).expose(_radiance(60.0, (80, 80, 3)), 0.002)
        assert (bright - clean_bright).std() > (dim - clean_dim).std()

    def test_output_stays_in_range_despite_noise(self):
        sensor = ImageSensor(read_noise=5.0, rng=np.random.default_rng(2))
        out = sensor.expose(_radiance(100.0, (50, 50, 3)), exposure=0.01)
        assert out.min() >= 0.0
        assert out.max() <= 255.0

    def test_deterministic_given_rng(self):
        a = ImageSensor(rng=np.random.default_rng(7)).expose(_radiance(30.0), 0.01)
        b = ImageSensor(rng=np.random.default_rng(7)).expose(_radiance(30.0), 0.01)
        assert np.array_equal(a, b)


class TestValidation:
    def test_rejects_bad_exposure(self):
        with pytest.raises(ValueError):
            ImageSensor(rng=None).expose(_radiance(1.0), 0.0)

    @pytest.mark.parametrize("exposure", [float("nan"), float("inf")])
    def test_rejects_non_finite_exposure(self, exposure):
        with pytest.raises(ValueError):
            ImageSensor(rng=None).expose(_radiance(1.0), exposure)

    def test_rejects_2d_input(self):
        with pytest.raises(ValueError):
            ImageSensor(rng=None).expose(np.zeros((4, 4)), 1.0)

    def test_rejects_negative_noise(self):
        with pytest.raises(ValueError):
            ImageSensor(read_noise=-1.0)
