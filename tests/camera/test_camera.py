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


class _SpyMeter(LightMeter):
    """A multi-zone meter that counts its readings."""

    def __init__(self):
        super().__init__(mode=MeteringMode.MULTI_ZONE)
        self.calls = 0

    def measure(self, radiance):
        self.calls += 1
        return super().measure(radiance)


def _scene(rng, tick):
    """A 24x24 radiance raster whose level moves from frame to frame."""
    return rng.uniform(20.0, 80.0, size=(24, 24, 3)) * (1.0 + 0.3 * np.sin(tick))


class TestLockedMetering:
    def test_locked_camera_never_meters(self):
        meter = _SpyMeter()
        camera = _camera(
            meter=meter,
            auto_exposure=AutoExposureController(initial_exposure=0.004, locked=True),
        )
        rng = np.random.default_rng(0)
        for tick in range(10):
            frame = camera.capture(_scene(rng, tick), timestamp=0.1 * tick)
            assert frame.metadata["exposure"] == pytest.approx(0.004)
            assert "metered_level" not in frame.metadata
        assert meter.calls == 0

    def test_locked_at_construction_meters_the_first_frame_only(self):
        meter = _SpyMeter()
        camera = _camera(meter=meter, auto_exposure=AutoExposureController(locked=True))
        rng = np.random.default_rng(1)
        first = camera.capture(_scene(rng, 0), timestamp=0.0)
        assert "metered_level" in first.metadata
        for tick in range(1, 10):
            frame = camera.capture(_scene(rng, tick), timestamp=0.1 * tick)
            assert frame.metadata["exposure"] == first.metadata["exposure"]
        assert meter.calls == 1

    def test_locked_frames_equal_a_twin_that_still_meters(self):
        """The prover's loop: live auto-exposure, then a lock.  Every frame
        equals a twin camera's that meters each frame and feeds the
        reading to its (ignoring) locked controller, with the same sensor
        seed."""
        meter = _SpyMeter()
        camera = _camera(
            sensor=ImageSensor(rng=np.random.default_rng(5)),
            meter=meter,
            auto_exposure=AutoExposureController(target_level=0.22),
        )
        twin_sensor = ImageSensor(rng=np.random.default_rng(5))
        twin_meter = LightMeter(mode=MeteringMode.MULTI_ZONE)
        twin_ae = AutoExposureController(target_level=0.22)
        rng = np.random.default_rng(2)
        previous = -1.0 / camera.fps
        for tick in range(30):
            radiance = _scene(rng, tick)
            timestamp = 0.1 * tick
            frame = camera.capture(radiance, timestamp=timestamp)
            exposure = twin_ae.update(twin_meter.measure(radiance), timestamp - previous)
            previous = timestamp
            assert frame.metadata["exposure"] == exposure
            np.testing.assert_array_equal(frame.pixels, twin_sensor.expose(radiance, exposure))
            if tick == 14:
                camera.auto_exposure.lock()
                twin_ae.lock()
        assert meter.calls == 15
        assert camera.sensor.rng.bit_generator.state == twin_sensor.rng.bit_generator.state

    def test_live_camera_meters_every_frame(self):
        meter = _SpyMeter()
        camera = _camera(meter=meter)
        for tick in range(5):
            frame = camera.capture(np.full((8, 8, 3), 40.0), timestamp=0.1 * tick)
            assert "metered_level" in frame.metadata
        assert meter.calls == 5


class TestClock:
    def test_timestamps_must_increase(self):
        camera = _camera()
        camera.capture(np.full((8, 8, 3), 10.0), timestamp=1.0)
        with pytest.raises(ValueError):
            camera.capture(np.full((8, 8, 3), 10.0), timestamp=1.0)

    def test_rejects_bad_fps(self):
        with pytest.raises(ValueError):
            Camera(fps=0.0)
