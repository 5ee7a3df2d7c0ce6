"""Illumination: screen light arriving at the face, plus ambient light.

This module carries the paper's physical chain from the panel to the skin:

* :func:`screen_illuminance` — how many lux a panel of a given luminance
  and area delivers to a face at a given distance (the knob behind the
  screen-size and viewing-distance experiments, Sec. VIII-E).
* :class:`AmbientLight` — the competing environmental light (Sec. VIII-I):
  a base level, slow drift, and occasional step events (a lamp toggled, a
  cloud passing).  Ambient events are the main source of *coincidental*
  luminance changes in both legitimate and attack videos.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

__all__ = [
    "screen_illuminance",
    "AmbientLight",
    "AmbientEvent",
]


def screen_illuminance(luminance_nits: float, area_m2: float, distance_m: float) -> float:
    """Illuminance (lux) delivered by a Lambertian panel to an on-axis face.

    Uses the standard disc-source interpolation

    ``E = pi * L * A / (A + pi * d^2)``

    which recovers both limits: ``E -> pi * L`` as the face approaches an
    effectively infinite panel (``d -> 0``) and the inverse-square
    point-source law ``E -> L * A / d^2`` for ``d`` large relative to the
    panel.  This is why a 6-inch phone can only drive the defense at
    ~10 cm (Sec. VIII-E): its area term vanishes at arm's length.
    """
    if luminance_nits < 0:
        raise ValueError("luminance must be non-negative")
    if area_m2 <= 0:
        raise ValueError("panel area must be positive")
    if distance_m < 0:
        raise ValueError("distance must be non-negative")
    return math.pi * luminance_nits * area_m2 / (area_m2 + math.pi * distance_m**2)


@dataclasses.dataclass(frozen=True)
class AmbientEvent:
    """One step change in ambient light (e.g. a lamp switched on)."""

    start_s: float
    duration_s: float
    delta_lux: float

    def contribution(self, t: float) -> float:
        """Added lux at time ``t`` (smooth 100 ms ramps)."""
        ramp = 0.1
        rise = min(max((t - self.start_s) / ramp, 0.0), 1.0)
        fall = min(max((t - self.start_s - self.duration_s) / ramp, 0.0), 1.0)
        return self.delta_lux * (rise - fall)


@dataclasses.dataclass
class AmbientLight:
    """Stochastic ambient-light process.

    Parameters
    ----------
    base_lux:
        Mean ambient illuminance on the face.  The paper's stable indoor
        setting sits near 50 lux; Sec. VIII-I raises it to 240 lux to
        show the screen signal drowning.
    drift_lux:
        Amplitude of a slow sinusoidal drift (flicker of daylight, etc.).
    drift_period_s:
        Period of the drift component.
    event_rate_hz:
        Poisson rate of step events.  Events inject luminance changes
        that are *uncorrelated* with the screen — the main confounder the
        detector's matching features must survive.
    event_lux_range:
        (low, high) magnitude range of an event's step, sign-symmetric.
    event_duration_range_s:
        (low, high) range of event durations.
    rng:
        Numpy generator; required when ``event_rate_hz > 0``.
    """

    base_lux: float = 50.0
    drift_lux: float = 2.0
    drift_period_s: float = 20.0
    event_rate_hz: float = 0.0
    event_lux_range: tuple[float, float] = (8.0, 30.0)
    event_duration_range_s: tuple[float, float] = (1.0, 6.0)
    rng: np.random.Generator | None = None
    _events: list[AmbientEvent] = dataclasses.field(default_factory=list, init=False)
    _drift_phase: float = dataclasses.field(default=0.0, init=False)
    _horizon_s: float = dataclasses.field(default=0.0, init=False)

    def __post_init__(self) -> None:
        if self.base_lux < 0:
            raise ValueError("base_lux must be non-negative")
        if self.drift_lux < 0 or self.drift_period_s <= 0:
            raise ValueError("invalid drift parameters")
        if self.event_rate_hz < 0:
            raise ValueError("event_rate_hz must be non-negative")
        if self.event_rate_hz > 0 and self.rng is None:
            raise ValueError("an rng is required when events are enabled")
        if self.rng is not None:
            self._drift_phase = float(self.rng.uniform(0.0, 2.0 * math.pi))

    @property
    def events(self) -> tuple[AmbientEvent, ...]:
        """Events materialized so far (grows as the horizon extends)."""
        return tuple(self._events)

    def _extend_horizon(self, until_s: float) -> None:
        """Lazily draw Poisson events up to ``until_s``."""
        if self.event_rate_hz <= 0 or until_s <= self._horizon_s:
            return
        assert self.rng is not None
        t = self._horizon_s
        while True:
            t += float(self.rng.exponential(1.0 / self.event_rate_hz))
            if t >= until_s:
                break
            low, high = self.event_lux_range
            magnitude = float(self.rng.uniform(low, high))
            sign = 1.0 if self.rng.random() < 0.5 else -1.0
            dlow, dhigh = self.event_duration_range_s
            self._events.append(
                AmbientEvent(
                    start_s=t,
                    duration_s=float(self.rng.uniform(dlow, dhigh)),
                    delta_lux=sign * magnitude,
                )
            )
        self._horizon_s = until_s

    def sample(self, t: float) -> float:
        """Ambient illuminance (lux) at time ``t``, never negative.

        The drift uses ``np.sin`` rather than ``math.sin``: NumPy's sine
        kernel, not the platform's libm, sets its bits.
        """
        t = float(t)
        if not math.isfinite(t) or t < 0:
            raise ValueError("time must be finite and non-negative")
        self._extend_horizon(t + 1e-9)
        lux = float(self.base_lux)
        if self.drift_lux > 0:
            lux += self.drift_lux * float(
                np.sin(2.0 * math.pi * t / self.drift_period_s + self._drift_phase)
            )
        for event in self._events:
            lux += event.contribution(t)
        return max(lux, 0.0)
