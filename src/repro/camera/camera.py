"""The composed camera: meter -> auto-exposure -> sensor.

A :class:`Camera` turns the renderer's linear radiance rasters into
:class:`~repro.video.frame.Frame` objects at a fixed frame rate, running
the metering/AE loop exactly as a phone camera would.  The verifier's
camera (Alice) runs live auto-exposure — her metering touches are the
luminance challenge; the prover's camera (Bob) typically locks exposure
after convergence so the face-reflected screen light is not compensated
away.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..video.frame import Frame
from .exposure import AutoExposureController
from .metering import LightMeter
from .sensor import ImageSensor

__all__ = ["Camera"]


class Camera:
    """A video camera over the synthetic scene.

    Parameters
    ----------
    sensor:
        Pixel-formation model.
    meter:
        Light meter feeding the AE loop.
    auto_exposure:
        Exposure controller.
    fps:
        Capture rate; :meth:`capture` enforces monotonically increasing
        timestamps but does not resample — callers drive the clock.
    """

    def __init__(
        self,
        sensor: ImageSensor | None = None,
        meter: LightMeter | None = None,
        auto_exposure: AutoExposureController | None = None,
        fps: float = 10.0,
    ) -> None:
        if fps <= 0:
            raise ValueError("fps must be positive")
        self.sensor = sensor or ImageSensor()
        self.meter = meter or LightMeter()
        self.auto_exposure = auto_exposure or AutoExposureController()
        self.fps = fps
        self._last_timestamp: float | None = None

    def capture(
        self,
        radiance: np.ndarray,
        timestamp: float,
        metadata: dict[str, Any] | None = None,
    ) -> Frame:
        """Capture one frame from a radiance raster.

        The AE loop advances by the wall-clock gap since the previous
        capture, then the sensor exposes the raster.  A locked loop that
        already holds an exposure skips the meter, and its frames carry no
        ``metered_level``.
        """
        if self._last_timestamp is not None and timestamp <= self._last_timestamp:
            raise ValueError(
                f"timestamps must increase: {timestamp} after {self._last_timestamp}"
            )
        dt = (
            1.0 / self.fps
            if self._last_timestamp is None
            else timestamp - self._last_timestamp
        )
        self._last_timestamp = timestamp

        frame_metadata: dict[str, Any]
        if self.auto_exposure.needs_metering:
            measured = self.meter.measure(radiance)
            exposure = self.auto_exposure.update(measured, dt)
            frame_metadata = {"exposure": exposure, "metered_level": measured}
        else:
            # A locked loop ignores the reading, so the frame is not metered.
            exposure = self.auto_exposure.exposure
            frame_metadata = {"exposure": exposure}
        pixels = self.sensor.expose(radiance, exposure)
        if metadata:
            frame_metadata.update(metadata)
        return Frame(pixels=pixels, timestamp=timestamp, metadata=frame_metadata)
