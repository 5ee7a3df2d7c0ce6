"""Image sensor model: exposure scaling, gamma encoding, noise, clipping.

Converts linear scene radiance (from the renderer) into display-referred
pixels (what the codec and the detector see).  The noise terms are the
standard pair:

* **shot noise** — photon arrival statistics, standard deviation growing
  with the square root of the signal;
* **read noise** — additive electronics noise, constant per pixel.

Both contribute the broadband high-frequency floor visible in the paper's
Fig. 6 spectrum, which the 1 Hz low-pass stage removes.

The unit-variance noise is drawn by table lookup: a uniform 16-bit index
into the standard normal's inverse CDF at the 65536 midpoints
``(i + 0.5) / 65536`` (:func:`standard_normal_table`).  That law is
exactly symmetric, has standard deviation 0.99999 and is cut at
±4.32σ — at this sensor's σ ≤ 1.39 px a ±6 px cut, on a signal the codec
rounds to whole pixels anyway.
"""

from __future__ import annotations

import functools
import math
import statistics

import numpy as np

__all__ = ["ImageSensor", "standard_normal_table", "table_normal"]

#: Raster rows per noise block in :meth:`ImageSensor.expose`.
_NOISE_BLOCK_ROWS = 16

#: Entries of the inverse-CDF noise table: one per 16-bit index.
_TABLE_SIZE = 1 << 16


@functools.cache
def standard_normal_table() -> np.ndarray:
    """The standard normal's inverse CDF at ``(i + 0.5) / 65536``.

    Built on first use (about 15 ms) and read-only, so processes that
    never expose a noisy frame never build it.  Entry ``i`` equals
    ``-entry[65535 - i]`` exactly; the extremes are ±4.3249.
    """
    inv_cdf = statistics.NormalDist().inv_cdf
    table = np.array([inv_cdf((i + 0.5) / _TABLE_SIZE) for i in range(_TABLE_SIZE)])
    table.flags.writeable = False
    return table


def _table_indices(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Uniform 16-bit table indices (``integers``, so byte order never matters)."""
    return rng.integers(0, _TABLE_SIZE, shape, dtype=np.uint16)


def table_normal(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Fresh unit-variance noise of ``shape`` from :func:`standard_normal_table`."""
    return standard_normal_table().take(_table_indices(rng, shape))


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
            # One index draw per frame; row blocks keep the sigma and
            # noise temporaries in cache.
            table = standard_normal_table()
            indices = _table_indices(self.rng, pixels.shape)
            for start in range(0, pixels.shape[0], _NOISE_BLOCK_ROWS):
                rows = slice(start, start + _NOISE_BLOCK_ROWS)
                block = pixels[rows]
                noise_sigma = block / 255.0
                noise_sigma *= self.shot_noise_scale**2
                noise_sigma += self.read_noise**2
                np.sqrt(noise_sigma, out=noise_sigma)
                noise = table.take(indices[rows])
                noise *= noise_sigma
                block += noise
        return np.clip(pixels, 0.0, 255.0, out=pixels)
