"""Renderer: Von Kries reflection, landmark ground truth, occlusions."""

import numpy as np
import pytest

from repro.vision.expression import PoseState
from repro.vision.face_model import make_face
from repro.vision.renderer import BackgroundModel, FaceRenderer


def _pose(**kwargs):
    defaults = dict(center_x=0.5, center_y=0.48, scale=0.3, roll=0.0, blink=0.0, mouth_open=0.0)
    defaults.update(kwargs)
    return PoseState(**defaults)


class TestBackground:
    def test_has_bright_and_dark_zones(self):
        bg = BackgroundModel(64, 64, seed=1)
        radiance = bg.radiance(ambient_lux=100.0)
        bx, by = bg.bright_spot
        dx, dy = bg.dark_spot
        bright = radiance[int(by * 64), int(bx * 64)].mean()
        dark = radiance[int(dy * 64), int(dx * 64)].mean()
        assert bright > 3 * dark

    def test_screen_coupling(self):
        bg = BackgroundModel(32, 32, seed=2, screen_coupling=0.5)
        without = bg.radiance(50.0, screen_lux=0.0)
        with_screen = bg.radiance(50.0, screen_lux=100.0)
        assert with_screen.mean() == pytest.approx(without.mean() * 2.0)

    def test_radiance_scales_with_ambient(self):
        bg = BackgroundModel(32, 32, seed=3)
        assert bg.radiance(200.0).mean() == pytest.approx(2 * bg.radiance(100.0).mean())


class TestFaceRendering:
    def test_von_kries_proportionality(self, renderer, neutral_pose):
        """Doubling face illuminance doubles face radiance (Eq. 2)."""
        dim = renderer.render(neutral_pose, 50.0, ambient_lux=50.0)
        bright = renderer.render(neutral_pose, 100.0, ambient_lux=50.0)
        lm = dim.landmarks["nasal_bridge"][-1]
        y, x = int(lm.y), int(lm.x)
        ratio = bright.radiance[y, x] / dim.radiance[y, x]
        assert np.allclose(ratio, 2.0, rtol=1e-6)

    def test_face_visible_flag(self, renderer, neutral_pose):
        assert renderer.render(neutral_pose, 50.0, 50.0).face_visible
        gone = _pose(center_x=-0.5, center_y=-0.5)
        assert not renderer.render(gone, 50.0, 50.0).face_visible

    def test_nose_brighter_than_cheek(self, renderer, neutral_pose):
        result = renderer.render(neutral_pose, 80.0, 80.0)
        nose = result.landmarks["nasal_bridge"][-1]
        nose_val = result.radiance[int(nose.y), int(nose.x)].sum()
        # A cheek point: halfway between nose and face edge.
        cheek_x = int(nose.x + 0.5 * neutral_pose.scale * renderer.width)
        cheek_val = result.radiance[int(nose.y), cheek_x].sum()
        assert nose_val > cheek_val

    def test_skin_is_red_dominant(self, renderer, neutral_pose):
        result = renderer.render(neutral_pose, 80.0, 80.0)
        nose = result.landmarks["nasal_bridge"][-1]
        r, g, b = result.radiance[int(nose.y), int(nose.x)]
        assert r > g > b

    def test_eyes_darker_than_skin_when_open(self, renderer, neutral_pose):
        result = renderer.render(neutral_pose, 80.0, 80.0)
        eye = result.landmarks["left_eye"][0]
        nose = result.landmarks["nasal_bridge"][-1]
        assert (
            result.radiance[int(eye.y), int(eye.x)].sum()
            < result.radiance[int(nose.y), int(nose.x)].sum()
        )

    def test_blink_restores_skin_at_eye(self, renderer):
        open_eye = renderer.render(_pose(blink=0.0), 80.0, 80.0)
        closed = renderer.render(_pose(blink=1.0), 80.0, 80.0)
        eye = open_eye.landmarks["left_eye"][0]
        y, x = int(eye.y), int(eye.x)
        assert closed.radiance[y, x].sum() > open_eye.radiance[y, x].sum()

    def test_negative_illuminance_rejected(self, renderer, neutral_pose):
        with pytest.raises(ValueError):
            renderer.render(neutral_pose, -1.0, 50.0)

    @pytest.mark.parametrize("lux", [(float("nan"), 50.0, 0.0), (50.0, float("nan"), 0.0),
                                     (50.0, 50.0, float("nan")), (float("inf"), 50.0, 0.0)])
    def test_non_finite_illuminance_rejected(self, renderer, neutral_pose, lux):
        """NaN lux used to slip past the ``< 0`` check into NaN radiance."""
        with pytest.raises(ValueError):
            renderer.render(neutral_pose, *lux)


class TestLandmarkGroundTruth:
    def test_landmarks_track_translation(self, renderer):
        left = renderer.render(_pose(center_x=0.4), 50.0, 50.0).landmarks
        right = renderer.render(_pose(center_x=0.6), 50.0, 50.0).landmarks
        shift = right["nasal_bridge"][0].x - left["nasal_bridge"][0].x
        assert shift == pytest.approx(0.2 * renderer.width, abs=1e-6)

    def test_landmarks_scale_with_face(self, renderer):
        small = renderer.render(_pose(scale=0.25), 50.0, 50.0).landmarks
        large = renderer.render(_pose(scale=0.35), 50.0, 50.0).landmarks

        def bridge_to_tip(lms):
            return abs(lms["nasal_bridge"][-1].y - lms["nasal_tip"][2].y)

        assert bridge_to_tip(large) > bridge_to_tip(small)

    def test_roll_rotates_landmarks(self, renderer):
        straight = renderer.render(_pose(roll=0.0), 50.0, 50.0).landmarks
        rolled = renderer.render(_pose(roll=0.1), 50.0, 50.0).landmarks
        # Eyes are off-axis, so roll moves them vertically.
        assert rolled["left_eye"][0].y != pytest.approx(straight["left_eye"][0].y)

    def test_bridge_point_lies_on_rendered_nose(self, renderer, neutral_pose):
        result = renderer.render(neutral_pose, 80.0, 80.0)
        face = renderer.face
        nose = result.landmarks["nasal_bridge"][-1]
        pixel = result.radiance[int(nose.y), int(nose.x)]
        # The nose pixel uses the boosted reflectance under full illum:
        # reflectance ratio R/G should match the face's nose reflectance.
        expected_ratio = face.nose_reflectance[0] / face.nose_reflectance[1]
        assert pixel[0] / pixel[1] == pytest.approx(expected_ratio, rel=0.01)


class TestGlassesAndHair:
    def test_hair_darkens_forehead(self):
        face = make_face("hairy", tone="light")
        renderer = FaceRenderer(face, 72, 72, seed=1)
        result = renderer.render(_pose(), 80.0, 80.0)
        cx = renderer.width // 2
        # Topmost face rows are hair (reflectance 0.06, chromatically flat).
        top_face_y = int(0.48 * 72 - 0.3 * 72 * face.face_aspect) + 2
        hair_pixel = result.radiance[top_face_y, cx]
        assert hair_pixel.max() < 0.1 * 80.0

    def test_glasses_frames_rendered(self):
        face = make_face("specs", tone="light", has_glasses=True)
        renderer = FaceRenderer(face, 72, 72, seed=1)
        plain = make_face("plain", tone="light", has_glasses=False)
        renderer_plain = FaceRenderer(plain, 72, 72, seed=1)
        a = renderer.render(_pose(), 80.0, 80.0).radiance
        b = renderer_plain.render(_pose(), 80.0, 80.0).radiance
        assert not np.allclose(a, b)

    def test_size_mismatch_with_background_rejected(self):
        face = make_face("x")
        bg = BackgroundModel(32, 32)
        with pytest.raises(ValueError):
            FaceRenderer(face, 64, 64, background=bg)
