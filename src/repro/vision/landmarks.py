"""Facial landmark detection over rendered frames.

Stand-in for the facial-recognition API the paper uses (its ref. [19],
dlib under the hood): given a display-referred RGB frame, report the four
nasal-bridge points and five nasal-tip points of Fig. 5 (plus eyes and
mouth), or ``None`` when no face is found.

The detector is a genuine pixel-level algorithm, not a metadata lookup:

1. **Skin segmentation** — skin chromaticity (red-dominant, blue-poor) is
   illumination-invariant under the Von Kries model, so thresholding the
   r/b chromaticities finds skin regardless of screen/ambient level.
   The codec's ``uint8`` raster (every received frame) is thresholded in
   ``uint16`` integer arithmetic that gives exactly the float64 result,
   so it is never converted to float.
2. **Ellipse fit** — face width from robust x-percentiles of the skin
   mask, vertical anchor on the chin (the hairline is unreliable), a
   population-prior aspect ratio for face height.  The percentiles are
   histogram order statistics: the mask's per-column and per-row skin
   counts, summed cumulatively, locate the two neighbouring order
   statistics of each quantile by bisection, and numpy's
   ``method="linear"`` interpolation rule is applied to them exactly,
   so no coordinate list is ever built or partitioned.
3. **Landmark regression** — the canonical layout mapped through the
   fitted ellipse, with a small seeded jitter modelling the residual
   error real landmark detectors exhibit frame to frame.  The fit is
   kept as 24 floats; :class:`~repro.vision.geometry.Point` objects are
   built only for the landmarks a caller reads (the ROI reads three
   coordinates and builds none).

Failure modes mirror the real API: too-dark frames, heavy occlusion or
the face leaving the frame produce ``None`` (the luminance extractor
must cope, Sec. IV).
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Sequence

import numpy as np

from .face_model import LANDMARK_LAYOUT
from .geometry import Point

__all__ = ["FaceLandmarks", "LandmarkDetector", "mean_landmark_error"]

#: The 12 layout points ``(u, v)`` in jitter-draw order: bridge x4,
#: tip x5, left eye, right eye, mouth.
_LAYOUT_UV: tuple[tuple[float, float], ...] = tuple(
    uv
    for group in ("nasal_bridge", "nasal_tip", "left_eye", "right_eye", "mouth")
    for uv in LANDMARK_LAYOUT[group]
)


def _linear_quantiles(cumulative: list[int], quantiles: Sequence[float]) -> list[float]:
    """``np.quantile(sample, q, method="linear")`` for each ``q``, from a histogram.

    ``cumulative`` is the cumulative count of an integer sample over the
    bins ``0..len - 1`` (its last entry is the sample size ``n >= 1``).
    The order statistic of rank ``k`` is the first bin whose cumulative
    count exceeds ``k`` (``bisect_right``, as ``searchsorted`` with
    ``side="right"``).  Both neighbours of every quantile are found that
    way (clamped to rank ``n - 1`` at the top, as numpy does) and
    combined with numpy's own interpolation rule, so the result equals
    ``np.quantile`` bit for bit.
    """
    n = cumulative[-1]
    out = []
    for q in quantiles:
        virtual = (n - 1) * q
        lo = math.floor(virtual)
        t = virtual - lo
        a = bisect.bisect_right(cumulative, min(lo, n - 1))
        b = bisect.bisect_right(cumulative, min(lo + 1, n - 1))
        diff = b - a
        out.append(b - diff * (1 - t) if t >= 0.5 else a + diff * t)
    return out


#: Coordinate offsets into a fit's flat ``(x0, y0, x1, y1, ...)`` tuple,
#: in :data:`_LAYOUT_UV` order.
_BRIDGE, _TIP, _LEFT_EYE, _RIGHT_EYE, _MOUTH = 0, 8, 18, 20, 22


def _skin_mask_8bit(pixels: np.ndarray) -> np.ndarray:
    """:meth:`LandmarkDetector.skin_mask` on a ``uint8`` raster, in integers.

    For an integer total ``T = r + g + b`` in 46..765, the float64 test
    ``r / T > 0.355`` holds exactly when ``200 r > 71 T``, and
    ``b / T < 0.32`` exactly when ``25 b < 8 T``.  A quotient other than
    71/200 (or 8/25) lies at least ``1 / (200 * 765)`` from it, far more
    than a rounding step, so rounding never moves it across the constant;
    at the ratio itself the rounded quotient equals the rounded constant,
    and both forms reject it.  Every product fits in ``uint16``
    (``71 * 765 = 54315``).
    """
    r, g, b = pixels[:, :, 0], pixels[:, :, 1], pixels[:, :, 2]
    total = np.add(r, g, dtype=np.uint16)
    total += b
    lhs = np.multiply(r, 200, dtype=np.uint16)
    rhs = np.multiply(total, 71, dtype=np.uint16)
    mask = np.greater(lhs, rhs)
    np.multiply(b, 25, out=lhs, dtype=np.uint16)
    np.multiply(total, 8, out=rhs, dtype=np.uint16)
    mask &= np.less(lhs, rhs)
    mask &= np.greater(total, 45)
    return mask


class FaceLandmarks:
    """The landmark set the paper's pipeline consumes (Fig. 5).

    Immutable.  The 12 points are held as one flat tuple of coordinates
    in layout order (bridge x4, tip x5, left eye, right eye, mouth);
    every accessor builds its :class:`Point` objects when it is read.
    """

    __slots__ = ("_xy",)

    def __init__(
        self,
        nasal_bridge: Sequence[Point],
        nasal_tip: Sequence[Point],
        left_eye: Point,
        right_eye: Point,
        mouth: Point,
    ) -> None:
        if len(nasal_bridge) != 4:
            raise ValueError("nasal_bridge must contain 4 points")
        if len(nasal_tip) != 5:
            raise ValueError("nasal_tip must contain 5 points")
        points = (*nasal_bridge, *nasal_tip, left_eye, right_eye, mouth)
        object.__setattr__(self, "_xy", tuple(c for p in points for c in (p.x, p.y)))

    @classmethod
    def _fitted(cls, xy: tuple[float, ...]) -> "FaceLandmarks":
        """Wrap a detector fit: 24 coordinates in layout order, unchecked."""
        landmarks = object.__new__(cls)
        object.__setattr__(landmarks, "_xy", xy)
        return landmarks

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaceLandmarks):
            return NotImplemented
        return self._xy == other._xy

    def __hash__(self) -> int:
        return hash(self._xy)

    def __repr__(self) -> str:
        return (
            f"FaceLandmarks(nasal_bridge={self.nasal_bridge!r}, nasal_tip={self.nasal_tip!r}, "
            f"left_eye={self.left_eye!r}, right_eye={self.right_eye!r}, mouth={self.mouth!r})"
        )

    def __reduce__(self):
        return (FaceLandmarks._fitted, (self._xy,))

    def _point(self, i: int) -> Point:
        return Point(self._xy[i], self._xy[i + 1])

    @property
    def nasal_bridge(self) -> tuple[Point, ...]:
        return tuple(self._point(i) for i in range(_BRIDGE, _TIP, 2))

    @property
    def nasal_tip(self) -> tuple[Point, ...]:
        return tuple(self._point(i) for i in range(_TIP, _LEFT_EYE, 2))

    @property
    def left_eye(self) -> Point:
        return self._point(_LEFT_EYE)

    @property
    def right_eye(self) -> Point:
        return self._point(_RIGHT_EYE)

    @property
    def mouth(self) -> Point:
        return self._point(_MOUTH)

    def roi_coordinates(self) -> tuple[float, float, float]:
        """``(a1, b1, b2)`` of the Sec. IV ROI: the lowest nasal-bridge
        point ``(a1, b1)`` and the mean ``y`` of the nasal-tip arc ``b2``,
        read from the fit without building points."""
        tip_ys = self._xy[_TIP + 1 : _LEFT_EYE : 2]
        return self._xy[_TIP - 2], self._xy[_TIP - 1], sum(tip_ys) / len(tip_ys)

    def as_dict(self) -> dict[str, list[Point]]:
        """Same structure as the renderer's ground-truth dictionary."""
        return {
            "nasal_bridge": list(self.nasal_bridge),
            "nasal_tip": list(self.nasal_tip),
            "left_eye": [self.left_eye],
            "right_eye": [self.right_eye],
            "mouth": [self.mouth],
        }


class LandmarkDetector:
    """Skin-segmentation landmark detector.

    Parameters
    ----------
    jitter_fraction:
        Standard deviation of per-landmark jitter as a fraction of the
        estimated face half-width (residual model error).
    min_face_fraction:
        Minimum fraction of frame pixels that must be skin for a
        detection to be reported.
    assumed_aspect:
        Population-prior face height/width ratio used by the regression.
    seed:
        Seed of the jitter generator (detections are deterministic for a
        fixed frame sequence).
    """

    def __init__(
        self,
        jitter_fraction: float = 0.02,
        min_face_fraction: float = 0.015,
        assumed_aspect: float = 1.32,
        seed: int = 0,
    ) -> None:
        if jitter_fraction < 0:
            raise ValueError("jitter_fraction must be non-negative")
        if not 0 < min_face_fraction < 1:
            raise ValueError("min_face_fraction must lie in (0, 1)")
        if assumed_aspect <= 0:
            raise ValueError("assumed_aspect must be positive")
        self.jitter_fraction = jitter_fraction
        self.min_face_fraction = min_face_fraction
        self.assumed_aspect = assumed_aspect
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    def reset(self) -> None:
        """Rewind the jitter generator to its initial seeded state.

        The generator advances with every detection, so a detector that
        served one call is *not* bit-identical to a fresh one.  Session
        recycling (``StreamingVerifier.reset``) calls this so a reused
        detector replays exactly the jitter sequence a new instance
        would produce.
        """
        self._rng = np.random.default_rng(self.seed)

    def skin_mask(self, pixels: np.ndarray) -> np.ndarray:
        """Boolean skin mask from illumination-invariant chromaticity.

        A pixel is skin when its channel total ``r + g + b`` exceeds 45
        and its chromaticities satisfy ``r / total > 0.355`` and
        ``b / total < 0.32`` in float64.  The codec's ``uint8`` raster is
        tested in integers (:func:`_skin_mask_8bit`), with the same result;
        any other input is read as ``float64``.
        """
        pixels = np.asarray(pixels)
        if pixels.ndim != 3 or pixels.shape[2] != 3:
            raise ValueError("pixels must have shape (h, w, 3)")
        if pixels.dtype == np.uint8:
            return _skin_mask_8bit(pixels)
        pixels = pixels.astype(np.float64, copy=False)
        r, g, b = pixels[:, :, 0], pixels[:, :, 1], pixels[:, :, 2]
        total = r + g + b
        # Only bright pixels (total > 45) can be skin, and for those the
        # floor is a no-op, so dark pixels never divide by zero.
        safe_total = np.maximum(total, 45.0)
        return (total > 45.0) & (r / safe_total > 0.355) & (b / safe_total < 0.32)

    def detect(self, pixels: np.ndarray) -> FaceLandmarks | None:
        """Detect landmarks in one frame; ``None`` when no face is found."""
        mask = self.skin_mask(pixels)
        height, width = mask.shape
        if not width:
            return None
        # Skin counts per column and per row: exact integers, summed by
        # the ufunc itself rather than through ``ndarray.sum``'s wrapper.
        columns = np.add.reduce(mask, 0, np.intp).cumsum().tolist()
        count = columns[-1]
        if count == 0 or count < self.min_face_fraction * height * width:
            return None

        x_lo, x_hi = _linear_quantiles(columns, (0.02, 0.98))
        rows = np.add.reduce(mask, 1, np.intp).cumsum().tolist()
        (chin_y,) = _linear_quantiles(rows, (0.99,))
        half_width = max((x_hi - x_lo) / 2.0, 2.0)
        center_x = (x_lo + x_hi) / 2.0
        half_height = half_width * self.assumed_aspect
        center_y = chin_y - half_height

        # One draw for every point; row k is (jx, jy) of layout point k,
        # the order in which drawing each coordinate in turn takes them.
        sigma = self.jitter_fraction * half_width
        jitter = self._rng.normal(0.0, sigma, size=(len(_LAYOUT_UV), 2))
        xy: list[float] = []
        for (u, v), (jx, jy) in zip(_LAYOUT_UV, jitter.tolist()):
            xy += (center_x + u * half_width + jx, center_y + v * half_height + jy)
        return FaceLandmarks._fitted(tuple(xy))


def mean_landmark_error(  # reprolint: disable=R009 -- accuracy probe for tests
    detected: FaceLandmarks, truth: dict[str, list[Point]]
) -> float:
    """Mean Euclidean error (pixels) between a detection and ground truth.

    Test/benchmark helper: quantifies the jitter the ROI extraction must
    absorb, one of the noise sources the paper's preprocessing targets.
    """
    errors: list[float] = []
    detected_dict = detected.as_dict()
    for name, truth_points in truth.items():
        if name not in detected_dict:
            continue
        for det_point, truth_point in zip(detected_dict[name], truth_points):
            errors.append(det_point.distance_to(truth_point))
    if not errors:
        raise ValueError("no comparable landmarks between detection and truth")
    return float(np.mean(errors))
