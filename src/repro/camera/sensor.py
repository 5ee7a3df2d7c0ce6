"""Image sensor model: exposure scaling, gamma encoding, noise, clipping.

Converts linear scene radiance (from the renderer) into display-referred
pixels (what the codec and the detector see).  The noise terms are the
standard pair:

* **shot noise** — photon arrival statistics, standard deviation growing
  with the square root of the signal;
* **read noise** — additive electronics noise, constant per pixel.

Both contribute the broadband high-frequency floor visible in the paper's
Fig. 6 spectrum, which the 1 Hz low-pass stage removes.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["ImageSensor"]

#: Raster rows per noise block in :meth:`ImageSensor.expose`.
_NOISE_BLOCK_ROWS = 16


class ImageSensor:
    """Radiance -> pixel conversion with a realistic noise model.

    Parameters
    ----------
    gamma:
        Encoding gamma (pixels = 255 * linear**(1/gamma)).
    read_noise:
        Standard deviation of additive noise, in 8-bit pixel units.
    shot_noise_scale:
        Shot-noise standard deviation at full scale, in pixel units
        (scales with sqrt of the pixel level).
    rng:
        Generator for the noise draws; ``None`` disables noise (useful
        for exact-numerics tests).
    """

    def __init__(
        self,
        gamma: float = 2.2,
        read_noise: float = 0.7,
        shot_noise_scale: float = 1.2,
        rng: np.random.Generator | None = None,
    ) -> None:
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        if read_noise < 0 or shot_noise_scale < 0:
            raise ValueError("noise levels must be non-negative")
        self.gamma = gamma
        self.read_noise = read_noise
        self.shot_noise_scale = shot_noise_scale
        self.rng = rng

    def expose(self, radiance: np.ndarray, exposure: float) -> np.ndarray:
        """Convert a radiance raster into display-referred pixels.

        ``radiance * exposure`` is the sensor's linear working signal;
        1.0 maps to full scale (255 after encoding), values above clip.
        """
        radiance = np.asarray(radiance, dtype=np.float64)
        if radiance.ndim != 3 or radiance.shape[2] != 3:
            raise ValueError("radiance must have shape (h, w, 3)")
        if not math.isfinite(exposure) or exposure <= 0:
            raise ValueError("exposure must be finite and positive")
        # The chain runs in place on this one fresh buffer, so the
        # caller's radiance is never written.
        pixels = np.multiply(radiance, exposure)
        np.clip(pixels, 0.0, 1.0, out=pixels)
        pixels **= 1.0 / self.gamma
        pixels *= 255.0
        if self.rng is not None:
            # Row blocks draw the same stream as one whole-frame draw (C
            # order), and keep the sigma and noise temporaries in cache.
            for start in range(0, pixels.shape[0], _NOISE_BLOCK_ROWS):
                block = pixels[start : start + _NOISE_BLOCK_ROWS]
                noise_sigma = block / 255.0
                noise_sigma *= self.shot_noise_scale**2
                noise_sigma += self.read_noise**2
                np.sqrt(noise_sigma, out=noise_sigma)
                noise = self.rng.standard_normal(block.shape)
                noise *= noise_sigma
                block += noise
        return np.clip(pixels, 0.0, 255.0, out=pixels)
