"""Illumination physics: screen-to-face transfer, ambient process."""

import math

import numpy as np
import pytest

from repro.screen.illumination import (
    AmbientEvent,
    AmbientLight,
    screen_illuminance,
)


class TestScreenIlluminance:
    def test_inverse_square_far_field(self):
        area = 0.01
        near = screen_illuminance(100.0, area, 2.0)
        far = screen_illuminance(100.0, area, 4.0)
        assert near / far == pytest.approx(4.0, rel=0.02)

    def test_close_up_limit_is_pi_l(self):
        assert screen_illuminance(100.0, 0.2, 0.0) == pytest.approx(math.pi * 100.0)

    def test_bigger_screen_more_light(self):
        small = screen_illuminance(100.0, 0.01, 0.5)
        large = screen_illuminance(100.0, 0.2, 0.5)
        assert large > small

    def test_phone_at_arms_length_is_weak(self):
        # Sec. VIII-E: a 6" phone only works at ~10 cm.
        phone_area = 0.008
        at_10cm = screen_illuminance(300.0, phone_area, 0.1)
        at_50cm = screen_illuminance(300.0, phone_area, 0.5)
        assert at_10cm > 8 * at_50cm

    def test_validation(self):
        with pytest.raises(ValueError):
            screen_illuminance(-1.0, 0.1, 0.5)
        with pytest.raises(ValueError):
            screen_illuminance(1.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            screen_illuminance(1.0, 0.1, -0.5)


class TestAmbientEvent:
    def test_profile_rises_and_falls(self):
        event = AmbientEvent(start_s=5.0, duration_s=2.0, delta_lux=10.0)
        contribution = [event.contribution(t) for t in (4.0, 5.05, 6.0, 7.05, 8.0)]
        assert contribution[0] == pytest.approx(0.0)
        assert 0 < contribution[1] < 10.0
        assert contribution[2] == pytest.approx(10.0)
        assert contribution[4] == pytest.approx(0.0)


class TestAmbientLight:
    def test_constant_base(self):
        light = AmbientLight(base_lux=50.0, drift_lux=0.0)
        assert [light.sample(t) for t in np.linspace(0, 10, 5)] == pytest.approx([50.0] * 5)

    def test_drift_bounded(self):
        light = AmbientLight(base_lux=50.0, drift_lux=3.0, rng=np.random.default_rng(0))
        samples = [light.sample(t) for t in np.linspace(0, 60, 600)]
        assert min(samples) >= 47.0 - 1e-9
        assert max(samples) <= 53.0 + 1e-9

    def test_events_appear_at_positive_rate(self):
        light = AmbientLight(
            base_lux=50.0,
            drift_lux=0.0,
            event_rate_hz=0.5,
            rng=np.random.default_rng(1),
        )
        light.sample(100.0)
        assert len(light.events) > 10

    def test_events_require_rng(self):
        with pytest.raises(ValueError):
            AmbientLight(event_rate_hz=0.1)

    def test_never_negative(self):
        light = AmbientLight(
            base_lux=5.0,
            drift_lux=0.0,
            event_rate_hz=1.0,
            event_lux_range=(20.0, 40.0),
            rng=np.random.default_rng(2),
        )
        samples = [light.sample(t) for t in np.linspace(0, 60, 600)]
        assert min(samples) >= 0.0

    def test_event_horizon_extends_lazily(self):
        light = AmbientLight(
            base_lux=50.0, event_rate_hz=0.5, rng=np.random.default_rng(3)
        )
        light.sample(10.0)
        early = len(light.events)
        light.sample(100.0)
        assert len(light.events) > early

    def test_deterministic_given_seed(self):
        def build():
            return AmbientLight(
                base_lux=50.0, event_rate_hz=0.3, rng=np.random.default_rng(9)
            )

        first, second = build(), build()
        for t in np.linspace(0, 50, 100):
            assert first.sample(t) == second.sample(t)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            AmbientLight().sample(-1.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_rejected(self, t):
        """A NaN or infinite time never ends the event draw, so it is
        refused before any event is drawn."""
        light = AmbientLight(base_lux=50.0, event_rate_hz=0.3, rng=np.random.default_rng(4))
        state = light.rng.bit_generator.state
        with pytest.raises(ValueError, match="finite"):
            light.sample(t)
        assert light.events == ()
        assert light.rng.bit_generator.state == state
