"""Raster renderer: face + background under time-varying illumination.

Produces *linear scene radiance* maps (reflectance times illuminance, per
channel — the Von Kries model of Sec. II-C) that the camera substrate then
exposes, gamma-encodes and degrades into display-referred frames.  Each
raster's ground-truth landmark positions are computed on request, so tests
can quantify the landmark detector's error.

The renderer is deliberately simple (an ellipse head with shaded skin,
hair, eyes, nose, mouth, optional glasses over a structured wall), but it
is a *real* image: the landmark detector downstream runs actual
segmentation on these pixels, and the liveness detector reads actual pixel
luminance out of the rendered nasal ROI.
"""

from __future__ import annotations

import math

import numpy as np

from ..vision.expression import PoseState
from ..vision.face_model import FaceModel
from ..vision.geometry import Point

__all__ = ["BackgroundModel", "FaceRenderer", "RenderResult"]


class BackgroundModel:
    """A static wall behind the user.

    The wall has a reflectance gradient and a darker furniture region, so
    Alice's auto-exposure (metering different zones) produces genuinely
    different frame luminances — the mechanism behind the paper's
    "change the metering area by touching the smartphone screen".

    ``screen_coupling`` is the fraction of screen illuminance that also
    reaches the wall (the wall is further from the screen than the face).
    """

    def __init__(
        self,
        height: int,
        width: int,
        seed: int = 0,
        base_reflectance: float = 0.38,
        dark_reflectance: float = 0.10,
        bright_reflectance: float = 0.75,
        screen_coupling: float = 0.2,
    ) -> None:
        if height <= 0 or width <= 0:
            raise ValueError("background dimensions must be positive")
        if not 0 <= screen_coupling <= 1:
            raise ValueError("screen_coupling must lie in [0, 1]")
        self.height = height
        self.width = width
        self.screen_coupling = screen_coupling
        rng = np.random.default_rng(seed)

        xs = np.linspace(0.0, 1.0, width)[None, :]
        ys = np.linspace(0.0, 1.0, height)[:, None]
        gradient = base_reflectance * (0.85 + 0.3 * xs + 0.0 * ys)
        reflectance = np.repeat(gradient[:, :, None], 3, axis=2)
        # Slight cool tint so the wall is chromatically distinct from skin.
        reflectance[:, :, 2] *= 1.08
        reflectance[:, :, 0] *= 0.95

        # A dark region (furniture / doorway) on one side...
        dark_w = int(width * rng.uniform(0.15, 0.25))
        dark_side = rng.random() < 0.5
        if dark_side:
            reflectance[:, :dark_w, :] = dark_reflectance
        else:
            reflectance[:, width - dark_w :, :] = dark_reflectance
        # ...and a bright region (window / lamp spill) on the other.
        bright_w = int(width * rng.uniform(0.12, 0.2))
        y0 = int(height * rng.uniform(0.0, 0.3))
        y1 = y0 + int(height * rng.uniform(0.3, 0.5))
        if dark_side:
            reflectance[y0:y1, width - bright_w :, :] = bright_reflectance
        else:
            reflectance[y0:y1, :bright_w, :] = bright_reflectance

        self.reflectance = np.clip(reflectance, 0.02, 0.95)
        # Normalized locations of the dark and bright zones (metering targets).
        if dark_side:
            self.dark_spot = (dark_w / (2.0 * width), 0.5)
            self.bright_spot = (1.0 - bright_w / (2.0 * width), (y0 + y1) / (2.0 * height))
        else:
            self.dark_spot = (1.0 - dark_w / (2.0 * width), 0.5)
            self.bright_spot = (bright_w / (2.0 * width), (y0 + y1) / (2.0 * height))

    def radiance(self, ambient_lux: float, screen_lux: float = 0.0) -> np.ndarray:
        """Linear radiance of the wall under the given illumination.

        Always a fresh array: :meth:`FaceRenderer.render` paints the face
        into it.
        """
        illum = ambient_lux + self.screen_coupling * screen_lux
        return self.reflectance * illum


class RenderResult:
    """One rendered raster plus its ground truth.

    The ground-truth landmarks are computed from the pose on first read:
    the capture rig never reads them, the landmark-accuracy tests do.
    """

    __slots__ = ("radiance", "face_visible", "_renderer", "_pose", "_landmarks")

    def __init__(
        self,
        radiance: np.ndarray,
        face_visible: bool,
        renderer: FaceRenderer,
        pose: PoseState,
    ) -> None:
        self.radiance = radiance
        self.face_visible = face_visible
        self._renderer = renderer
        self._pose = pose
        self._landmarks: dict[str, list[Point]] | None = None

    @property
    def landmarks(self) -> dict[str, list[Point]]:
        """Ground-truth pixel coordinates of every canonical landmark."""
        if self._landmarks is None:
            self._landmarks = self._renderer.landmark_positions(self._pose)
        return self._landmarks


class FaceRenderer:
    """Render a :class:`FaceModel` over a :class:`BackgroundModel`.

    Parameters
    ----------
    face:
        The person to render.
    height, width:
        Raster size in pixels.
    background:
        Wall model; a default one is built when omitted.
    seed:
        Seed for per-frame stochastic effects (glasses glints).
    """

    def __init__(
        self,
        face: FaceModel,
        height: int = 96,
        width: int = 96,
        background: BackgroundModel | None = None,
        seed: int = 0,
    ) -> None:
        if height <= 0 or width <= 0:
            raise ValueError("raster dimensions must be positive")
        self.face = face
        self.height = height
        self.width = width
        self.background = background or BackgroundModel(height, width, seed=seed)
        if self.background.height != height or self.background.width != width:
            raise ValueError("background raster size must match renderer size")
        self._rng = np.random.default_rng(seed + 0x5EED)
        # Pixel-centre coordinates along each axis.
        self._xs = np.arange(width, dtype=np.float64) + 0.5
        self._ys = np.arange(height, dtype=np.float64) + 0.5

    def _pose_params(self, pose: PoseState) -> tuple[float, float, float, float]:
        """(center_x, center_y, half_width, half_height) in pixels."""
        cx = pose.center_x * self.width
        cy = pose.center_y * self.height
        ax = max(pose.scale * self.width, 1.0)
        ay = ax * self.face.face_aspect
        return cx, cy, ax, ay

    def _face_window(self, pose: PoseState) -> tuple[slice, slice]:
        """Raster rows and columns that can hold face pixels.

        The bounding box of the rolled ellipse, padded by one pixel and
        clamped to the raster (empty when the face is fully off-frame).
        """
        cx, cy, ax, ay = self._pose_params(pose)
        cos_r = math.cos(pose.roll)
        sin_r = math.sin(pose.roll)
        half_w = math.hypot(ax * cos_r, ay * sin_r) + 1.0
        half_h = math.hypot(ax * sin_r, ay * cos_r) + 1.0
        r0 = min(max(math.floor(cy - half_h), 0), self.height)
        r1 = max(min(math.ceil(cy + half_h), self.height), r0)
        c0 = min(max(math.floor(cx - half_w), 0), self.width)
        c1 = max(min(math.ceil(cx + half_w), self.width), c0)
        return slice(r0, r1), slice(c0, c1)

    def _face_local(
        self, pose: PoseState, rows: slice, cols: slice
    ) -> tuple[np.ndarray, np.ndarray]:
        """Face-local (u, v) coordinates of the pixels in ``rows x cols``."""
        cx, cy, ax, ay = self._pose_params(pose)
        cos_r = math.cos(pose.roll)
        sin_r = math.sin(pose.roll)
        dx = self._xs[None, cols] - cx
        dy = self._ys[rows, None] - cy
        u = (cos_r * dx + sin_r * dy) / ax
        v = (-sin_r * dx + cos_r * dy) / ay
        return u, v

    def landmark_positions(self, pose: PoseState) -> dict[str, list[Point]]:
        """Ground-truth pixel coordinates of every canonical landmark."""
        cx, cy, ax, ay = self._pose_params(pose)
        cos_r = math.cos(pose.roll)
        sin_r = math.sin(pose.roll)
        out: dict[str, list[Point]] = {}
        for name, coords in self.face.landmark_layout().items():
            points = []
            for u, v in coords:
                px = u * ax
                py = v * ay
                points.append(Point(cx + cos_r * px - sin_r * py, cy + sin_r * px + cos_r * py))
            out[name] = points
        return out

    def render(
        self,
        pose: PoseState,
        face_illuminance_lux: float,
        ambient_lux: float,
        screen_lux: float = 0.0,
    ) -> RenderResult:
        """Render one raster.

        ``face_illuminance_lux`` is the total light on the face (ambient
        plus screen contribution, already combined by the caller);
        ``ambient_lux``/``screen_lux`` drive the background separately.
        """
        for lux in (face_illuminance_lux, ambient_lux, screen_lux):
            if not math.isfinite(lux) or lux < 0:
                raise ValueError("illuminance values must be finite and non-negative")
        radiance = self.background.radiance(ambient_lux, screen_lux)
        rows, cols = self._face_window(pose)
        u, v = self._face_local(pose, rows, cols)
        mask = u * u + v * v <= 1.0
        face_visible = bool(np.count_nonzero(mask) >= 16)

        if face_visible:
            face = self.face
            # Per-channel reflectance planes, shape (3, h, w).  Materials
            # override each other in order; pixels outside ``mask`` never
            # reach the raster, so the materials need no ``& mask``.
            # Lambertian-ish shading: cheeks fall off, forehead catches light.
            shade = np.clip(1.0 - 0.25 * u * u - 0.12 * np.maximum(v, 0.0) ** 2, 0.55, 1.0)
            planes = np.multiply.outer(face.skin_reflectance, shade)

            # Nose: boosted reflectance (it faces the screen nearly head-on).
            nose = (np.abs(u) < 0.15) & (v > -0.33) & (v < 0.26)
            np.multiply(face.nose_reflectance[:, None, None], shade, out=planes, where=nose)

            # Hair occludes the top of the ellipse.
            if face.hair_fraction > 0:
                np.copyto(planes, 0.06, where=v < -(1.0 - 2.0 * face.hair_fraction))

            # Eyes (closed eyes revert to skin, which is the point of
            # measuring the nose instead).
            openness = 1.0 - pose.blink
            if openness > 0.1:
                for ex in (-0.42, 0.42):
                    du = (u - ex) / 0.13
                    dv = (v + 0.22) / max(0.065 * openness, 1e-3)
                    np.copyto(planes, face.eye_reflectance, where=du * du + dv * dv <= 1.0)

            # Mouth opens while talking.
            mouth_h = 0.03 + 0.09 * pose.mouth_open
            du = u / 0.22
            dv = (v - 0.55) / mouth_h
            np.copyto(planes, face.mouth_reflectance, where=du * du + dv * dv <= 1.0)

            planes *= face_illuminance_lux

            # Glasses: dark frames plus stochastic specular glints that
            # track the *ambient* sources (a noise term for the detector).
            if face.has_glasses:
                ring = np.abs(np.sqrt((u / 0.19) ** 2 + ((v + 0.22) / 0.12) ** 2) - 1.0)
                frames = (ring < 0.12) & ((np.abs(u) > 0.2) & (np.abs(u) < 0.62))
                np.copyto(planes, 0.04 * face_illuminance_lux, where=frames)
                if self._rng.random() < 0.3:
                    gx = float(self._rng.uniform(-0.5, 0.5))
                    glint = ((u - gx) ** 2 + (v + 0.22) ** 2) < 0.004
                    np.copyto(planes, ambient_lux * 2.5, where=glint)

            window = radiance[rows, cols]
            for channel, plane in enumerate(planes):
                np.copyto(window[..., channel], plane, where=mask)

        return RenderResult(radiance, face_visible, self, pose)
