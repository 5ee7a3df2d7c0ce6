"""The composed camera."""

import numpy as np
import pytest

from repro.camera.camera import Camera
from repro.camera.exposure import AutoExposureController
from repro.camera.metering import LightMeter, MeteringMode
from repro.camera.sensor import ImageSensor


def _camera(**kwargs):
    defaults = dict(
        sensor=ImageSensor(rng=None),
        meter=LightMeter(mode=MeteringMode.MULTI_ZONE),
        auto_exposure=AutoExposureController(target_level=0.3),
    )
    defaults.update(kwargs)
    return Camera(**defaults)


class TestCapture:
    def test_frame_carries_timestamp_and_metadata(self):
        camera = _camera()
        frame = camera.capture(np.full((16, 16, 3), 50.0), timestamp=1.0)
        assert frame.timestamp == pytest.approx(1.0)
        assert "exposure" in frame.metadata
        assert "metered_level" in frame.metadata

    def test_auto_exposure_reaches_target(self):
        camera = _camera()
        radiance = np.full((16, 16, 3), 50.0)
        frame = None
        for i in range(30):
            frame = camera.capture(radiance, timestamp=i * 0.1)
        # Metered level times exposure should be the 0.3 target -> mean
        # pixel = 255 * 0.3**(1/2.2).
        expected = 255.0 * 0.3 ** (1 / 2.2)
        assert frame.pixels.mean() == pytest.approx(expected, rel=0.02)

    def test_exposure_adapts_to_scene_change(self):
        camera = _camera()
        for i in range(20):
            camera.capture(np.full((16, 16, 3), 50.0), timestamp=i * 0.1)
        exposure_before = camera.auto_exposure.exposure
        for i in range(20, 60):
            camera.capture(np.full((16, 16, 3), 200.0), timestamp=i * 0.1)
        assert camera.auto_exposure.exposure < exposure_before

    def test_extra_metadata_merged(self):
        camera = _camera()
        frame = camera.capture(
            np.full((8, 8, 3), 10.0), timestamp=0.5, metadata={"tag": 7}
        )
        assert frame.metadata["tag"] == 7


class TestClock:
    def test_timestamps_must_increase(self):
        camera = _camera()
        camera.capture(np.full((8, 8, 3), 10.0), timestamp=1.0)
        with pytest.raises(ValueError):
            camera.capture(np.full((8, 8, 3), 10.0), timestamp=1.0)

    def test_rejects_bad_fps(self):
        with pytest.raises(ValueError):
            Camera(fps=0.0)
