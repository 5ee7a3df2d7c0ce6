"""Capture-rig kernels against their reference implementations.

The renderer, sensor, multi-zone meter and codec compute on face windows,
channel planes and single in-place buffers, and the ambient light is
sampled as one scalar per tick.  Each must stay bit-identical to the
straightforward whole-raster (or whole-array) kernel it replaced, kept
here as ``_*_reference``: same pixels, same ``face_visible``, the same
generator draws, and no writes into the caller's arrays.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro.attack.reenactment import ReenactmentAttacker
from repro.attack.target import TargetRecording
from repro.camera.metering import LightMeter
from repro.camera.sensor import ImageSensor, standard_normal_table
from repro.screen.illumination import AmbientLight
from repro.video.codec import VideoCodec
from repro.video.frame import Frame
from repro.vision.expression import PoseState
from repro.vision.face_model import SKIN_TONES, make_face
from repro.vision.renderer import FaceRenderer


def _render_reference(renderer, pose, face_illuminance_lux, ambient_lux, screen_lux=0.0):
    """Whole-raster renderer: every material over every pixel, per channel."""
    radiance = renderer.background.radiance(ambient_lux, screen_lux).copy()
    cx, cy, ax, ay = renderer._pose_params(pose)
    cos_r = math.cos(pose.roll)
    sin_r = math.sin(pose.roll)
    ys, xs = np.mgrid[0 : renderer.height, 0 : renderer.width]
    dx = (xs.astype(np.float64) + 0.5) - cx
    dy = (ys.astype(np.float64) + 0.5) - cy
    u = (cos_r * dx + sin_r * dy) / ax
    v = (-sin_r * dx + cos_r * dy) / ay
    r2 = u * u + v * v
    mask = r2 <= 1.0
    face_visible = bool(mask.sum() >= 16)

    if face_visible:
        face = renderer.face
        shade = np.clip(1.0 - 0.25 * u * u - 0.12 * np.maximum(v, 0.0) ** 2, 0.55, 1.0)
        skin = np.multiply.outer(shade, face.skin_reflectance)
        nose = (np.abs(u) < 0.15) & (v > -0.33) & (v < 0.26)
        skin[nose] = np.multiply.outer(shade[nose], face.nose_reflectance)
        if face.hair_fraction > 0:
            hair = v < -(1.0 - 2.0 * face.hair_fraction)
            skin[hair] = 0.06
        openness = 1.0 - pose.blink
        if openness > 0.1:
            for ex in (-0.42, 0.42):
                du = (u - ex) / 0.13
                dv = (v + 0.22) / max(0.065 * openness, 1e-3)
                eye = (du * du + dv * dv <= 1.0) & mask
                skin[eye] = face.eye_reflectance
        mouth_h = 0.03 + 0.09 * pose.mouth_open
        du = u / 0.22
        dv = (v - 0.55) / mouth_h
        mouth = (du * du + dv * dv <= 1.0) & mask
        skin[mouth] = face.mouth_reflectance
        face_radiance = skin * face_illuminance_lux
        if face.has_glasses:
            ring = np.abs(np.sqrt((u / 0.19) ** 2 + ((v + 0.22) / 0.12) ** 2) - 1.0)
            frames = (ring < 0.12) & ((np.abs(u) > 0.2) & (np.abs(u) < 0.62))
            face_radiance[frames & mask] = 0.04 * face_illuminance_lux
            if renderer._rng.random() < 0.3:
                gx = float(renderer._rng.uniform(-0.5, 0.5))
                glint = ((u - gx) ** 2 + (v + 0.22) ** 2) < 0.004
                face_radiance[glint & mask] = ambient_lux * 2.5
        radiance[mask] = face_radiance[mask]
    return radiance, face_visible


def _table_noise_reference(rng, shape):
    """One whole-raster draw of 16-bit indices into the inverse-CDF table."""
    indices = rng.integers(0, 1 << 16, shape, dtype=np.uint16)
    return standard_normal_table()[indices]


def _expose_reference(sensor, radiance, exposure):
    """Out-of-place whole-frame sensor chain with table-lookup noise."""
    radiance = np.asarray(radiance, dtype=np.float64)
    linear = np.clip(radiance * exposure, 0.0, 1.0)
    pixels = 255.0 * linear ** (1.0 / sensor.gamma)
    if sensor.rng is not None:
        noise_sigma = np.sqrt(
            sensor.read_noise**2 + (sensor.shot_noise_scale**2) * (pixels / 255.0)
        )
        pixels = pixels + _table_noise_reference(sensor.rng, pixels.shape) * noise_sigma
    return np.clip(pixels, 0.0, 255.0)


def _multi_zone_reference(meter, radiance):
    """Center-weighted zone average over ``radiance.mean(axis=2)``."""
    rows, cols = meter.grid
    height, width = radiance.shape[:2]
    luma = radiance.mean(axis=2)
    total = 0.0
    weight_sum = 0.0
    for i in range(rows):
        for j in range(cols):
            r0 = i * height // rows
            r1 = (i + 1) * height // rows
            c0 = j * width // cols
            c1 = (j + 1) * width // cols
            zone_mean = float(luma[r0:r1, c0:c1].mean())
            is_center = (i == rows // 2) and (j == cols // 2)
            weight = meter.center_weight if is_center else 1.0
            total += weight * zone_mean
            weight_sum += weight
    return total / weight_sum


def _encode_reference(step, pixels):
    """Out-of-place quantizer."""
    clipped = np.clip(pixels, 0.0, 255.0)
    return np.clip(np.round(clipped / step) * step, 0.0, 255.0).astype(np.uint8)


def _contribution_reference(event, times):
    """An ambient event's added lux at each time, with 100 ms ramps."""
    ramp = 0.1
    rise = np.clip((times - event.start_s) / ramp, 0.0, 1.0)
    fall = np.clip((times - event.start_s - event.duration_s) / ramp, 0.0, 1.0)
    return event.delta_lux * (rise - fall)


def _ambient_reference(light, t):
    """The array-form ambient sampler, at one time (as the frame
    producers called it): a ``(1,)`` array of lux."""
    times = np.atleast_1d(np.asarray(t, dtype=np.float64))
    if times.size and np.any(times < 0):
        raise ValueError("time must be non-negative")
    if times.size:
        light._extend_horizon(float(times.max()) + 1e-9)
    lux = np.full_like(times, light.base_lux)
    if light.drift_lux > 0:
        lux += light.drift_lux * np.sin(
            2.0 * math.pi * times / light.drift_period_s + light._drift_phase
        )
    for event in light._events:
        lux += _contribution_reference(event, times)
    return np.maximum(lux, 0.0)


def _random_pose(rng):
    return PoseState(
        center_x=float(rng.uniform(-0.3, 1.3)),
        center_y=float(rng.uniform(-0.3, 1.3)),
        scale=float(rng.uniform(0.001, 0.8)),
        roll=float(rng.uniform(-1.6, 1.6)),
        blink=float(rng.uniform(0.0, 1.0)),
        mouth_open=float(rng.uniform(0.0, 1.0)),
    )


def _renderer_pair(tone, glasses, hair, size, seed):
    face = dataclasses.replace(
        make_face("oracle", tone=tone, has_glasses=glasses), hair_fraction=hair
    )
    return [FaceRenderer(face, height=size[0], width=size[1], seed=seed) for _ in range(2)]


def _radiance_field(rng, shape):
    """Radiance spanning black, mid-scale and clipping levels."""
    radiance = rng.uniform(0.0, 300.0, size=shape)
    radiance[rng.random(shape[:2]) < 0.1] = 0.0
    return radiance


@pytest.mark.parametrize("tone", sorted(SKIN_TONES))
@pytest.mark.parametrize("glasses", [False, True])
@pytest.mark.parametrize("hair", [0.0, 0.08, 0.3])
def test_render_matches_reference(tone, glasses, hair):
    rng = np.random.default_rng([sorted(SKIN_TONES).index(tone), glasses, int(hair * 100)])
    for case in range(12):
        size = tuple(int(n) for n in rng.integers(5, 111, size=2))
        new, ref = _renderer_pair(tone, glasses, hair, size, seed=case)
        background_before = new.background.reflectance.copy()
        for _ in range(4):
            pose = _random_pose(rng)
            face_lux, ambient, screen = (float(x) for x in rng.uniform(0.0, 400.0, size=3))
            got = new.render(pose, face_lux, ambient, screen)
            want, want_visible = _render_reference(ref, pose, face_lux, ambient, screen)
            assert got.face_visible == want_visible
            np.testing.assert_array_equal(got.radiance, want)
            assert new._rng.bit_generator.state == ref._rng.bit_generator.state
        np.testing.assert_array_equal(new.background.reflectance, background_before)


def test_render_window_covers_rolled_faces_at_raster_edges():
    """Large rolled faces centred on and beyond the border, glints on."""
    for roll in np.linspace(-1.6, 1.6, 17):
        for center in (-0.3, 0.0, 0.5, 1.0, 1.3):
            new, ref = _renderer_pair("medium", True, 0.08, (37, 53), seed=3)
            pose = PoseState(center, 1.0 - center, 0.8, float(roll), 0.0, 1.0)
            got = new.render(pose, 90.0, 40.0, 20.0)
            want, want_visible = _render_reference(ref, pose, 90.0, 40.0, 20.0)
            assert got.face_visible == want_visible
            np.testing.assert_array_equal(got.radiance, want)
            assert new._rng.bit_generator.state == ref._rng.bit_generator.state


@pytest.mark.parametrize("noisy", [False, True])
def test_expose_matches_reference(noisy):
    rng = np.random.default_rng(11)
    for case in range(40):
        shape = (int(rng.integers(5, 111)), int(rng.integers(5, 111)), 3)
        radiance = _radiance_field(rng, shape)
        before = radiance.copy()
        exposure = float(10.0 ** rng.uniform(-4.0, -1.0))
        kwargs = dict(
            gamma=float(rng.choice([1.0, 2.0, 2.2, 2.4])),
            read_noise=float(rng.uniform(0.0, 3.0)),
            shot_noise_scale=float(rng.uniform(0.0, 3.0)),
        )
        new = ImageSensor(rng=np.random.default_rng(case) if noisy else None, **kwargs)
        ref = ImageSensor(rng=np.random.default_rng(case) if noisy else None, **kwargs)
        np.testing.assert_array_equal(
            new.expose(radiance, exposure), _expose_reference(ref, radiance, exposure)
        )
        np.testing.assert_array_equal(radiance, before)
        if noisy:
            assert new.rng.bit_generator.state == ref.rng.bit_generator.state


def test_multi_zone_matches_reference():
    rng = np.random.default_rng(12)
    for _ in range(60):
        shape = (int(rng.integers(5, 111)), int(rng.integers(5, 111)), 3)
        radiance = _radiance_field(rng, shape)
        before = radiance.copy()
        meter = LightMeter(
            grid=(int(rng.integers(1, 6)), int(rng.integers(1, 6))),
            center_weight=float(rng.uniform(1.0, 4.0)),
        )
        assert meter.measure(radiance) == _multi_zone_reference(meter, radiance)
        np.testing.assert_array_equal(radiance, before)


def test_encode_matches_reference():
    rng = np.random.default_rng(13)
    for _ in range(40):
        shape = (int(rng.integers(5, 111)), int(rng.integers(5, 111)), 3)
        pixels = rng.uniform(-20.0, 275.0, size=shape)
        pixels[rng.random(shape[:2]) < 0.05] = 254.6
        frame = Frame(pixels=pixels, timestamp=0.0)
        before = frame.pixels.copy()
        codec = VideoCodec(quality=float(rng.uniform(0.05, 1.0)))
        encoded = codec.encode(frame)
        np.testing.assert_array_equal(encoded.data, _encode_reference(codec.quant_step, before))
        assert encoded.data.dtype == np.uint8
        np.testing.assert_array_equal(frame.pixels, before)


def test_reenactment_gain_matches_broadcast_reference():
    """The per-channel artifact gain equals one broadcast multiply."""
    target = TargetRecording(make_face("victim", tone="dark"), seed=4)
    new, ref = (ReenactmentAttacker(target, frame_size=(48, 40), seed=9) for _ in range(2))
    for tick in range(8):
        t = 0.1 * tick
        got = new.produce_frame(t, None)
        pose = ref.driving.sample(t)
        lux = ref.target.illuminance_at(t)
        radiance = ref.renderer.render(pose, lux, lux).radiance
        flicker = 1.0 + ref._rng.normal(0.0, ref.artifact_level)
        spatial = _table_noise_reference(ref._rng, radiance.shape[:2]) * (ref.artifact_level * 0.5)
        radiance = radiance * np.clip(flicker + spatial, 0.8, 1.2)[..., None]
        want = ref.camera.capture(radiance, timestamp=t)
        if tick == 0:
            ref.camera.auto_exposure.lock()
        np.testing.assert_array_equal(got.pixels, want.pixels)


@pytest.mark.parametrize("quality", [1.0, 0.9, 0.67])
def test_encode_step_one_pins_rounding_at_the_range_ends(quality):
    """At step 1 the quantizer is clip, round, cast: a value just below 0
    or around 255 lands where the divide/multiply/re-clip chain put it."""
    codec = VideoCodec(quality=quality)
    assert codec.quant_step == 1
    values = np.array([-0.4, 254.6, 255.4])
    pixels = np.broadcast_to(values[:, None, None], (3, 4, 3)).copy()
    encoded = codec.encode(Frame(pixels=pixels, timestamp=0.0))
    np.testing.assert_array_equal(encoded.data, _encode_reference(1, pixels))
    np.testing.assert_array_equal(encoded.data[:, 0, 0], [0, 255, 255])


def _ambient_pair(drift, rate, seed):
    def build():
        return AmbientLight(
            base_lux=20.0,
            drift_lux=drift,
            event_rate_hz=rate,
            event_lux_range=(8.0, 40.0),
            rng=np.random.default_rng(seed),
        )

    return build(), build()


def _assert_ambient_matches(new, ref, times):
    got = np.array([new.sample(t) for t in times])
    want = np.array([_ambient_reference(ref, t)[0] for t in times])
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    assert new.events == tuple(ref._events)
    assert new.rng.bit_generator.state == ref.rng.bit_generator.state


@pytest.mark.parametrize("drift", [0.0, 3.0])
@pytest.mark.parametrize("rate", [0.0, 0.3, 1.0])
def test_ambient_sample_matches_reference_per_tick(drift, rate):
    """0.1 s ticks to 120 s: bit-equal lux, the same events and the same
    generator state as the array-form sampler."""
    new, ref = _ambient_pair(drift, rate, seed=int(drift * 10 + rate * 100))
    _assert_ambient_matches(new, ref, [0.1 * tick for tick in range(1201)])
    if rate > 0:
        assert len(new.events) > 10


@pytest.mark.parametrize("drift", [0.0, 3.0])
@pytest.mark.parametrize("rate", [0.0, 0.3, 1.0])
def test_ambient_sample_matches_reference_at_random_times(drift, rate):
    """Unordered times, so the horizon sometimes jumps and sometimes
    reads back inside it."""
    new, ref = _ambient_pair(drift, rate, seed=7 + int(rate * 10))
    times = np.random.default_rng(int(drift) + int(rate * 10)).uniform(0.0, 200.0, size=600)
    _assert_ambient_matches(new, ref, [float(t) for t in times])
