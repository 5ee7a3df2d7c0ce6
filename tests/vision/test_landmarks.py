"""Landmark detector: accuracy against rendered ground truth, and exact
agreement with the ``np.percentile`` reference it replaced."""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.camera.sensor import ImageSensor
from repro.service.loadgen import WorkloadConfig, _face_frame
from repro.vision.expression import PoseState
from repro.vision.face_model import LANDMARK_LAYOUT, SKIN_TONES, make_face
from repro.vision.landmarks import (
    FaceLandmarks,
    LandmarkDetector,
    _linear_quantiles,
    mean_landmark_error,
)
from repro.vision.geometry import Point
from repro.vision.renderer import FaceRenderer


def _skin_mask_reference(pixels):
    pixels = np.asarray(pixels, dtype=np.float64)
    total = pixels.sum(axis=2)
    bright = total > 45.0
    safe_total = np.where(total > 1e-9, total, 1.0)
    r = pixels[:, :, 0] / safe_total
    b = pixels[:, :, 2] / safe_total
    return bright & (r > 0.355) & (b < 0.32)


@dataclasses.dataclass(frozen=True)
class _EagerLandmarks:
    """The landmark set as a frozen dataclass of built points, the shape
    ``FaceLandmarks`` had before it kept its fit as floats."""

    nasal_bridge: tuple[Point, ...]
    nasal_tip: tuple[Point, ...]
    left_eye: Point
    right_eye: Point
    mouth: Point

    @property
    def lower_bridge(self):
        return self.nasal_bridge[-1]

    @property
    def nose_tip_center(self):
        xs = [p.x for p in self.nasal_tip]
        ys = [p.y for p in self.nasal_tip]
        return Point(sum(xs) / len(xs), sum(ys) / len(ys))

    def as_dict(self):
        return {
            "nasal_bridge": list(self.nasal_bridge),
            "nasal_tip": list(self.nasal_tip),
            "left_eye": [self.left_eye],
            "right_eye": [self.right_eye],
            "mouth": [self.mouth],
        }


def _detect_reference(detector, pixels, build=FaceLandmarks):
    """The percentile-and-scalar-draw detector, advancing ``detector``'s
    jitter generator exactly as it did: 24 draws per hit, none per miss.
    ``build`` makes the landmark set from the five point groups."""
    mask = _skin_mask_reference(pixels)
    height, width = mask.shape
    count = int(mask.sum())
    if count < detector.min_face_fraction * height * width:
        return None
    ys, xs = np.nonzero(mask)
    x_lo, x_hi = np.percentile(xs, [2.0, 98.0])
    half_width = max((x_hi - x_lo) / 2.0, 2.0)
    center_x = (x_lo + x_hi) / 2.0
    chin_y = float(np.percentile(ys, 99.0))
    half_height = half_width * detector.assumed_aspect
    center_y = chin_y - half_height
    jitter_sigma = detector.jitter_fraction * half_width

    def _map(u, v):
        jx = float(detector._rng.normal(0.0, jitter_sigma))
        jy = float(detector._rng.normal(0.0, jitter_sigma))
        return Point(center_x + u * half_width + jx, center_y + v * half_height + jy)

    return build(
        nasal_bridge=tuple(_map(u, v) for u, v in LANDMARK_LAYOUT["nasal_bridge"]),
        nasal_tip=tuple(_map(u, v) for u, v in LANDMARK_LAYOUT["nasal_tip"]),
        left_eye=_map(*LANDMARK_LAYOUT["left_eye"][0]),
        right_eye=_map(*LANDMARK_LAYOUT["right_eye"][0]),
        mouth=_map(*LANDMARK_LAYOUT["mouth"][0]),
    )


def _bits(landmarks):
    """Every coordinate as its exact float bits, in layout order."""
    if landmarks is None:
        return None
    return [
        (float(p.x).hex(), float(p.y).hex())
        for group in landmarks.as_dict().values()
        for p in group
    ]


def _assert_matches_reference(frames, seed=0):
    """``detect`` equals the reference on every frame, and both jitter
    generators end in the same state."""
    fast, slow = LandmarkDetector(seed=seed), LandmarkDetector(seed=seed)
    hits = 0
    for pixels in frames:
        assert np.array_equal(fast.skin_mask(pixels), _skin_mask_reference(pixels))
        want = _bits(_detect_reference(slow, pixels))
        assert _bits(fast.detect(pixels)) == want
        hits += want is not None
    assert fast._rng.bit_generator.state == slow._rng.bit_generator.state
    return hits


def _frame_pixels(renderer, pose, illum=120.0):
    result = renderer.render(pose, illum, ambient_lux=illum)
    sensor = ImageSensor(rng=None)  # noiseless for exactness
    pixels = sensor.expose(result.radiance, exposure=1.0 / 250.0)
    return pixels, result


def _pose(**kwargs):
    defaults = dict(center_x=0.5, center_y=0.48, scale=0.3, roll=0.0, blink=0.0, mouth_open=0.0)
    defaults.update(kwargs)
    return PoseState(**defaults)


class TestDetection:
    @pytest.mark.parametrize("tone", ["light", "medium", "dark"])
    def test_detects_every_skin_tone(self, tone):
        face = make_face(tone, tone=tone)
        renderer = FaceRenderer(face, 96, 96, seed=2)
        pixels, _ = _frame_pixels(renderer, _pose())
        detector = LandmarkDetector(jitter_fraction=0.0)
        assert detector.detect(pixels) is not None

    def test_accuracy_within_tolerance(self, renderer, neutral_pose):
        pixels, result = _frame_pixels(renderer, neutral_pose)
        detector = LandmarkDetector(jitter_fraction=0.0)
        landmarks = detector.detect(pixels)
        assert landmarks is not None
        error = mean_landmark_error(landmarks, result.landmarks)
        # Within ~15% of the face half-width.
        assert error < 0.15 * neutral_pose.scale * 72 * 1.5

    def test_tracks_face_translation(self, renderer):
        detector = LandmarkDetector(jitter_fraction=0.0)
        pixels_l, _ = _frame_pixels(renderer, _pose(center_x=0.42))
        pixels_r, _ = _frame_pixels(renderer, _pose(center_x=0.58))
        left = detector.detect(pixels_l)
        right = detector.detect(pixels_r)
        assert right.nasal_bridge[-1].x - left.nasal_bridge[-1].x > 0.1 * 72

    def test_no_face_returns_none(self):
        rng = np.random.default_rng(0)
        gray = np.full((64, 64, 3), 90.0) + rng.normal(0, 2, (64, 64, 3))
        assert LandmarkDetector().detect(gray) is None

    def test_dark_frame_returns_none(self):
        assert LandmarkDetector().detect(np.zeros((64, 64, 3))) is None

    def test_face_out_of_frame_returns_none(self, renderer):
        pixels, _ = _frame_pixels(renderer, _pose(center_x=-0.6, center_y=-0.6))
        assert LandmarkDetector().detect(pixels) is None


class TestJitterModel:
    def test_jitter_varies_between_calls(self, renderer, neutral_pose):
        pixels, _ = _frame_pixels(renderer, neutral_pose)
        detector = LandmarkDetector(jitter_fraction=0.05, seed=1)
        a = detector.detect(pixels)
        b = detector.detect(pixels)
        assert a.nasal_bridge[-1] != b.nasal_bridge[-1]

    def test_zero_jitter_is_deterministic(self, renderer, neutral_pose):
        pixels, _ = _frame_pixels(renderer, neutral_pose)
        detector = LandmarkDetector(jitter_fraction=0.0)
        a = detector.detect(pixels)
        b = detector.detect(pixels)
        assert a.nasal_bridge[-1] == b.nasal_bridge[-1]


class TestFaceLandmarksType:
    def test_shape_validation(self):
        p = Point(0, 0)
        with pytest.raises(ValueError):
            FaceLandmarks(nasal_bridge=(p,), nasal_tip=(p,) * 5, left_eye=p, right_eye=p, mouth=p)
        with pytest.raises(ValueError):
            FaceLandmarks(nasal_bridge=(p,) * 4, nasal_tip=(p,) * 3, left_eye=p, right_eye=p, mouth=p)

    def test_nose_tip_center_is_mean(self):
        tips = tuple(Point(float(x), 8.0 + x) for x in range(5))
        lm = FaceLandmarks(
            nasal_bridge=(Point(2, 5),) * 4,
            nasal_tip=tips,
            left_eye=Point(0, 0),
            right_eye=Point(4, 0),
            mouth=Point(2, 15),
        )
        assert lm.roi_coordinates() == pytest.approx((2.0, 5.0, 10.0))

    def test_mean_error_requires_overlap(self):
        p = Point(0, 0)
        lm = FaceLandmarks(
            nasal_bridge=(p,) * 4, nasal_tip=(p,) * 5, left_eye=p, right_eye=p, mouth=p
        )
        with pytest.raises(ValueError):
            mean_landmark_error(lm, {"unknown_group": [p]})


class TestSkinMask:
    def test_mask_concentrated_on_face(self, renderer, neutral_pose):
        pixels, result = _frame_pixels(renderer, neutral_pose)
        detector = LandmarkDetector()
        mask = detector.skin_mask(pixels)
        nose = result.landmarks["nasal_bridge"][-1]
        assert mask[int(nose.y), int(nose.x)]
        assert not mask[2, 2]  # background corner

    def test_mask_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            LandmarkDetector().skin_mask(np.zeros((5, 5)))
        with pytest.raises(ValueError):
            LandmarkDetector().skin_mask(np.zeros((5, 5, 4), dtype=np.uint8))


def _assert_mask_matches_float_twin(pixels):
    """The integer mask of a ``uint8`` raster equals the float mask of
    the same pixels as ``float64``."""
    assert pixels.dtype == np.uint8
    detector = LandmarkDetector()
    got = detector.skin_mask(pixels)
    want = detector.skin_mask(pixels.astype(np.float64))
    assert got.dtype == want.dtype == np.dtype(bool)
    assert got.shape == want.shape == pixels.shape[:2]
    assert np.array_equal(got, want)
    return got


class TestEightBitSkinMask:
    """The ``uint8`` raster's integer mask against the float64 mask."""

    def test_every_colour(self):
        # One 256x256 chunk per green level: red down the rows, blue
        # across the columns, so all 2^24 colours are checked.
        ramp = np.arange(256, dtype=np.uint8)
        pixels = np.empty((256, 256, 3), dtype=np.uint8)
        pixels[:, :, 0] = ramp[:, None]
        pixels[:, :, 2] = ramp[None, :]
        skin = 0
        for green in range(256):
            pixels[:, :, 1] = green
            skin += int(np.count_nonzero(_assert_mask_matches_float_twin(pixels)))
        assert 0 < skin < 1 << 24

    def test_ratio_boundaries(self):
        # r / T == 71 / 200 and b / T == 8 / 25 exactly are not skin, one
        # step further in is; a total of 45 is too dark, 46 is not.
        pixels = np.array(
            [
                [(71, 129, 0), (72, 128, 0), (120, 16, 64)],
                [(120, 17, 63), (30, 15, 0), (30, 16, 0)],
            ],
            dtype=np.uint8,
        )
        mask = _assert_mask_matches_float_twin(pixels)
        assert mask.tolist() == [[False, True, False], [True, False, True]]

    def test_memory_layouts(self):
        rng = np.random.default_rng(31)
        face, _ = _frame_pixels(FaceRenderer(make_face("m", tone="medium"), 72, 72, seed=3), _pose())
        base = np.clip(np.round(face + rng.normal(0.0, 20.0, face.shape)), 0, 255).astype(np.uint8)
        want = _assert_mask_matches_float_twin(np.ascontiguousarray(base))
        planar = np.ascontiguousarray(base.transpose(2, 0, 1)).transpose(1, 2, 0)
        for pixels in (np.asfortranarray(base), planar):
            assert np.array_equal(_assert_mask_matches_float_twin(pixels), want)
        big = np.zeros((3 * 72, 2 * 72, 5), dtype=np.uint8)
        big[1::3, ::2, 1:4] = base
        view = big[1::3, ::2, 1:4]
        assert not view.flags.c_contiguous and not view.flags.f_contiguous
        assert np.array_equal(_assert_mask_matches_float_twin(view), want)
        assert np.array_equal(_assert_mask_matches_float_twin(base[::-1, ::-1]), want[::-1, ::-1])
        assert want.any() and not want.all()

    @pytest.mark.parametrize("shape", [(0, 0, 3), (0, 9, 3), (9, 0, 3)])
    def test_empty_frames(self, shape):
        pixels = np.zeros(shape, dtype=np.uint8)
        _assert_mask_matches_float_twin(pixels)
        assert LandmarkDetector().detect(pixels) is None


def _random_box_frames(seed, count):
    """Skin boxes of random size and place on 4-100 px frames, including
    single-pixel faces and full-frame masks."""
    rng = np.random.default_rng(seed)
    skin = (200.0, 120.0, 90.0)
    frames = []
    for k in range(count):
        h, w = (int(v) for v in rng.integers(4, 101, size=2))
        pixels = np.zeros((h, w, 3))
        if k % 4 == 0:
            pixels[int(rng.integers(h)), int(rng.integers(w))] = skin
        elif k % 4 == 1:
            pixels[:] = skin
        else:
            y0, y1 = sorted(int(v) for v in rng.integers(0, h + 1, size=2))
            x0, x1 = sorted(int(v) for v in rng.integers(0, w + 1, size=2))
            pixels[y0:y1, x0:x1] = skin
        frames.append(pixels)
    return frames


class TestMatchesPercentileReference:
    """``detect`` reproduces the ``np.percentile`` + 24-scalar-draw
    detector bit for bit: points, misses and jitter generator state."""

    @pytest.mark.parametrize("tone", sorted(SKIN_TONES))
    def test_every_skin_tone(self, tone):
        renderer = FaceRenderer(make_face(tone, tone=tone), 96, 96, seed=2)
        pixels, _ = _frame_pixels(renderer, _pose())
        assert _assert_matches_reference([pixels, pixels]) == 2

    def test_service_face_frame(self):
        config = WorkloadConfig()
        frames = [_face_frame(config, lum, 0.0).pixels for lum in (0.5, 40.0, 120.0, 230.0)]
        assert frames[0].shape == (config.frame_height, config.frame_width, 3)
        # The darkest patch falls below the brightness floor: a miss.
        assert _assert_matches_reference(frames, seed=3) == len(frames) - 1

    def test_random_skin_boxes(self):
        frames = _random_box_frames(seed=11, count=400)
        hits = _assert_matches_reference(frames, seed=4)
        assert 0 < hits < len(frames)

    def test_single_skin_pixel_and_full_frame(self):
        one = np.zeros((4, 4, 3))
        one[1, 2] = (200.0, 120.0, 90.0)
        full = np.full((7, 5, 3), (200.0, 120.0, 90.0))
        assert _assert_matches_reference([one, full]) == 2

    def test_upper_interpolation_branch(self):
        # Skin rows {6, 9}: the chin quantile has weight 0.99, where
        # numpy's ``b - diff * (1 - t)`` and ``a + diff * t`` differ.
        two = np.zeros((10, 10, 3))
        two[[6, 9], 4] = (200.0, 120.0, 90.0)
        assert _assert_matches_reference([two]) == 1

    def test_noisy_frames(self, renderer, neutral_pose):
        rng = np.random.default_rng(5)
        face, _ = _frame_pixels(renderer, neutral_pose)
        frames = [face + rng.normal(0.0, sigma, face.shape) for sigma in (1.0, 10.0, 40.0)]
        frames += [rng.uniform(0.0, 255.0, (48, 64, 3)) for _ in range(3)]
        assert _assert_matches_reference(frames, seed=6) >= 3

    def test_generator_state_after_500_frames(self, renderer):
        rng = np.random.default_rng(8)
        poses = [
            _pose(center_x=float(cx), center_y=float(cy))
            for cx, cy in rng.uniform(-0.3, 1.3, size=(25, 2))
        ]
        rendered = [_frame_pixels(renderer, pose)[0] for pose in poses]
        frames = [rendered[int(k)] for k in rng.integers(0, len(rendered), size=500)]
        hits = _assert_matches_reference(frames, seed=9)
        assert 0 < hits < 500


class TestPointsBuiltOnRead:
    """A detection keeps its fit as floats; every accessor reads the same
    points an eagerly built landmark set holds."""

    def _pairs(self, renderer):
        rng = np.random.default_rng(12)
        frames = [
            _frame_pixels(renderer, _pose(center_x=float(cx), roll=float(roll)))[0]
            for cx, roll in rng.uniform((0.3, -0.2), (0.7, 0.2), size=(6, 2))
        ]
        frames.append(_face_frame(WorkloadConfig(), 120.0, 0.0).pixels)
        fast, slow = LandmarkDetector(seed=7), LandmarkDetector(seed=7)
        for pixels in frames:
            yield fast.detect(pixels), _detect_reference(slow, pixels, build=_EagerLandmarks)

    def test_accessors_equal_eager_points(self, renderer):
        for lazy, eager in self._pairs(renderer):
            assert lazy.as_dict() == eager.as_dict()
            anchor, tip = eager.lower_bridge, eager.nose_tip_center
            assert lazy.roi_coordinates() == (anchor.x, anchor.y, tip.y)
            assert (lazy.nasal_bridge, lazy.nasal_tip) == (eager.nasal_bridge, eager.nasal_tip)
            assert (lazy.left_eye, lazy.right_eye, lazy.mouth) == (
                eager.left_eye,
                eager.right_eye,
                eager.mouth,
            )

    def test_value_semantics(self, renderer):
        for lazy, eager in self._pairs(renderer):
            groups = {f.name: getattr(eager, f.name) for f in dataclasses.fields(eager)}
            rebuilt = FaceLandmarks(**groups)
            assert rebuilt == lazy and hash(rebuilt) == hash(lazy)
            plain = _EagerLandmarks(**{name: getattr(lazy, name) for name in groups})
            assert repr(lazy) == repr(plain).replace("_EagerLandmarks", "FaceLandmarks")
            assert pickle.loads(pickle.dumps(lazy)) == lazy
            with pytest.raises(AttributeError):
                lazy.mouth = Point(0.0, 0.0)


class TestEdgeFrames:
    def test_zero_area_frame_returns_none(self):
        assert LandmarkDetector().detect(np.zeros((0, 0, 3))) is None
        assert LandmarkDetector().detect(np.zeros((0, 8, 3))) is None
        assert LandmarkDetector().detect(np.zeros((8, 0, 3))) is None

    def test_coordinates_are_plain_floats(self, renderer, neutral_pose):
        pixels, _ = _frame_pixels(renderer, neutral_pose)
        landmarks = LandmarkDetector().detect(pixels)
        for group in landmarks.as_dict().values():
            for p in group:
                assert type(p.x) is type(p.y) is float


@st.composite
def _histograms(draw):
    counts = draw(st.lists(st.integers(0, 6), min_size=1, max_size=40))
    if not any(counts):
        counts[draw(st.integers(0, len(counts) - 1))] = 1
    return counts


class TestLinearQuantiles:
    @settings(max_examples=200, deadline=None)
    @given(
        counts=_histograms(),
        quantiles=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
    )
    # Both arms of numpy's lerp, where they round differently.
    @example(counts=[0] * 6 + [1, 0, 0, 1], quantiles=[0.99])
    @example(counts=[1] + [0] * 6 + [30], quantiles=[0.02, 0.98])
    def test_equals_numpy_linear_quantile(self, counts, quantiles):
        sample = np.repeat(np.arange(len(counts)), counts)
        got = _linear_quantiles(np.cumsum(counts).tolist(), quantiles)
        want = np.quantile(sample, quantiles, method="linear")
        assert [v.hex() for v in got] == [float(v).hex() for v in want]
