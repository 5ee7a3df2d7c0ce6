"""Image sensor: exposure scaling, gamma, noise, clipping."""

import hashlib
import subprocess
import sys
from statistics import NormalDist

import numpy as np
import pytest

from repro.camera.sensor import ImageSensor, standard_normal_table, table_normal

#: sha256 of the noise table's little-endian float64 bytes.  A platform
#: whose ``NormalDist.inv_cdf`` differs fails here, not in moved goldens.
TABLE_SHA256 = "4c2f5f42f122b6bd035838527b999a2a71644434978501f302767ff79fd4dada"


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


class TestNoiseTable:
    def test_exactly_antisymmetric_and_strictly_increasing(self):
        table = standard_normal_table()
        assert table.shape == (1 << 16,)
        assert np.array_equal(table, -table[::-1])
        assert np.all(np.diff(table) > 0)

    def test_moments_and_cut(self):
        table = standard_normal_table()
        assert abs(table.mean()) < 1e-12
        assert abs(table.std() - 1.0) < 2e-5
        assert table[-1] == pytest.approx(4.3249, abs=1e-4)
        assert table[0] == -table[-1]

    def test_ks_distance_to_the_normal_cdf(self):
        table = standard_normal_table()
        size = len(table)
        cdf = np.array([NormalDist().cdf(float(x)) for x in table])
        rank = np.arange(size)
        # The table's law steps from i/size to (i+1)/size at entry i.
        ks = max(np.abs(cdf - rank / size).max(), np.abs(cdf - (rank + 1) / size).max())
        assert ks <= 1.0 / size

    def test_bytes_are_pinned(self):
        table = standard_normal_table()
        assert hashlib.sha256(table.astype("<f8").tobytes()).hexdigest() == TABLE_SHA256

    def test_read_only_and_built_once(self):
        table = standard_normal_table()
        assert standard_normal_table() is table
        with pytest.raises(ValueError):
            table[0] = 0.0

    def test_table_normal_looks_up_uint16_indices(self):
        got = table_normal(np.random.default_rng(5), (7, 9))
        indices = np.random.default_rng(5).integers(0, 1 << 16, (7, 9), dtype=np.uint16)
        np.testing.assert_array_equal(got, standard_normal_table()[indices])

    def test_built_lazily_on_first_noisy_exposure(self):
        script = (
            "import numpy as np\n"
            "import repro.api\n"
            "from repro.camera.sensor import ImageSensor, standard_normal_table\n"
            "radiance = np.full((4, 4, 3), 30.0)\n"
            "ImageSensor(rng=None).expose(radiance, 0.01)\n"
            "assert standard_normal_table.cache_info().currsize == 0\n"
            "ImageSensor(rng=np.random.default_rng(0)).expose(radiance, 0.01)\n"
            "assert standard_normal_table.cache_info().currsize == 1\n"
        )
        subprocess.run([sys.executable, "-c", script], check=True)

    @pytest.mark.parametrize("level", [40.0, 128.0, 200.0])
    def test_expose_residuals_keep_sigma(self, level):
        sensor = ImageSensor(rng=np.random.default_rng(3))
        radiance = np.full((200, 200, 3), 100.0)
        exposure = (level / 255.0) ** sensor.gamma / 100.0
        clean = ImageSensor(rng=None).expose(radiance, exposure)
        residual = sensor.expose(radiance, exposure) - clean
        sigma = np.sqrt(sensor.read_noise**2 + sensor.shot_noise_scale**2 * level / 255.0)
        assert abs(residual.mean()) < 0.01
        assert residual.std() == pytest.approx(sigma, rel=0.01)
        assert np.abs(residual).max() <= standard_normal_table()[-1] * sigma * (1 + 1e-12)


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
