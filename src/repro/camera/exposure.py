"""Auto-exposure control.

The camera adjusts shutter/aperture so that the metered region lands on a
target level (Sec. II-B).  We model the combined effect as a single
multiplicative *exposure factor* with first-order (log-domain) convergence
— real AE loops ramp over a few hundred milliseconds rather than snapping,
which is what gives the transmitted-video luminance its smooth rising and
falling edges (Fig. 7a).

The receiving side of the paper's pipeline assumes the *prover's* camera
does not cancel the screen-light reflection; consumer cameras converge far
too slowly (and meter the whole scene, not the nose) to track a sub-second
reflection change, which the ``time_constant_s`` captures.  ``locked``
freezes exposure entirely (the common video-call behaviour after initial
convergence).
"""

from __future__ import annotations

import math

__all__ = ["AutoExposureController"]


class AutoExposureController:
    """First-order auto-exposure loop in the log-exposure domain.

    Parameters
    ----------
    target_level:
        Desired metered level after exposure (linear, on the sensor's
        0..1 working scale — the classic 18 % gray target by default).
    time_constant_s:
        Time for ~63 % convergence toward the ideal exposure.
    min_exposure, max_exposure:
        Clamp on the exposure factor (sensor gain/shutter limits).
    initial_exposure:
        Starting factor; ``None`` snaps to the ideal value on the first
        update (camera pre-converged before the call starts).
    locked:
        When true, :meth:`update` keeps returning the current factor.
    """

    def __init__(
        self,
        target_level: float = 0.18,
        time_constant_s: float = 0.35,
        min_exposure: float = 1e-6,
        max_exposure: float = 1e3,
        initial_exposure: float | None = None,
        locked: bool = False,
    ) -> None:
        if target_level <= 0:
            raise ValueError("target_level must be positive")
        if time_constant_s <= 0:
            raise ValueError("time_constant_s must be positive")
        if min_exposure <= 0 or max_exposure <= min_exposure:
            raise ValueError("exposure bounds must satisfy 0 < min < max")
        if initial_exposure is not None and initial_exposure <= 0:
            raise ValueError("initial_exposure must be positive")
        self.target_level = target_level
        self.time_constant_s = time_constant_s
        self.min_exposure = min_exposure
        self.max_exposure = max_exposure
        self.locked = locked
        self._exposure = initial_exposure

    @property
    def exposure(self) -> float:
        """Current exposure factor (before the first update: the ideal
        factor has not been observed yet, so this raises)."""
        if self._exposure is None:
            raise RuntimeError("exposure is undefined before the first update")
        return self._exposure

    def _ideal(self, measured_level: float) -> float:
        ideal = self.target_level / max(measured_level, 1e-12)
        return min(max(ideal, self.min_exposure), self.max_exposure)

    def update(self, measured_level: float, dt: float) -> float:
        """Advance the loop by ``dt`` seconds given a metered level.

        Returns the exposure factor to apply to the current frame.
        """
        if not math.isfinite(measured_level) or measured_level < 0:
            raise ValueError("measured_level must be finite and non-negative")
        if not math.isfinite(dt) or dt < 0:
            raise ValueError("dt must be finite and non-negative")
        if self._exposure is None:
            self._exposure = self._ideal(measured_level)
            return self._exposure
        if self.locked:
            return self._exposure
        ideal = self._ideal(measured_level)
        alpha = 1.0 - math.exp(-dt / self.time_constant_s)
        log_now = math.log(self._exposure)
        log_ideal = math.log(ideal)
        self._exposure = math.exp(log_now + alpha * (log_ideal - log_now))
        return self._exposure

    def lock(self) -> None:
        """Freeze the current exposure (video-call steady state)."""
        if self._exposure is None:
            raise RuntimeError("cannot lock before the first update")
        self.locked = True
