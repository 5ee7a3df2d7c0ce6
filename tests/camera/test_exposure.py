"""Auto-exposure loop dynamics."""

import pytest

from repro.camera.exposure import AutoExposureController


class TestConvergence:
    def test_first_update_snaps_to_ideal(self):
        ae = AutoExposureController(target_level=0.2)
        exposure = ae.update(measured_level=2.0, dt=0.1)
        assert exposure == pytest.approx(0.1)

    def test_converges_toward_new_ideal(self):
        ae = AutoExposureController(target_level=0.2, time_constant_s=0.3)
        ae.update(2.0, 0.1)  # exposure 0.1
        for _ in range(50):
            exposure = ae.update(8.0, 0.1)  # ideal now 0.025
        assert exposure == pytest.approx(0.025, rel=0.01)

    def test_convergence_is_gradual(self):
        ae = AutoExposureController(target_level=0.2, time_constant_s=0.5)
        ae.update(2.0, 0.1)
        one_step = ae.update(8.0, 0.1)
        assert 0.025 < one_step < 0.1

    def test_time_constant_controls_speed(self):
        fast = AutoExposureController(target_level=0.2, time_constant_s=0.1)
        slow = AutoExposureController(target_level=0.2, time_constant_s=2.0)
        for ae in (fast, slow):
            ae.update(2.0, 0.1)
        fast_val = fast.update(8.0, 0.1)
        slow_val = slow.update(8.0, 0.1)
        assert abs(fast_val - 0.025) < abs(slow_val - 0.025)


class TestLocking:
    def test_locked_exposure_frozen(self):
        ae = AutoExposureController(target_level=0.2)
        ae.update(2.0, 0.1)
        ae.lock()
        assert ae.update(100.0, 0.1) == pytest.approx(0.1)

    def test_unlock_resumes(self):
        ae = AutoExposureController(target_level=0.2, time_constant_s=0.05)
        ae.update(2.0, 0.1)
        ae.lock()
        ae.unlock()
        for _ in range(40):
            value = ae.update(8.0, 0.1)
        assert value == pytest.approx(0.025, rel=0.01)

    def test_lock_before_update_raises(self):
        with pytest.raises(RuntimeError):
            AutoExposureController().lock()


class TestBoundsAndValidation:
    def test_exposure_clamped(self):
        ae = AutoExposureController(target_level=0.2, max_exposure=0.05)
        assert ae.update(0.001, 0.1) == pytest.approx(0.05)

    def test_exposure_property_before_update_raises(self):
        with pytest.raises(RuntimeError):
            AutoExposureController().exposure

    def test_zero_measured_level_bounded(self):
        ae = AutoExposureController(max_exposure=100.0)
        assert ae.update(0.0, 0.1) == pytest.approx(100.0)

    def test_negative_inputs_rejected(self):
        ae = AutoExposureController()
        with pytest.raises(ValueError):
            ae.update(-1.0, 0.1)
        with pytest.raises(ValueError):
            ae.update(1.0, -0.1)

    @pytest.mark.parametrize("measured, dt", [(float("nan"), 0.1), (float("inf"), 0.1),
                                              (0.2, float("nan")), (0.2, float("inf"))])
    def test_non_finite_inputs_rejected_and_loop_survives(self, measured, dt):
        """A non-finite reading used to turn every later exposure into NaN."""
        ae = AutoExposureController(target_level=0.2)
        ae.update(0.2, 0.1)
        with pytest.raises(ValueError):
            ae.update(measured, dt)
        assert 0.5 < ae.update(0.4, 0.1) < 1.0

    def test_bad_construction_rejected(self):
        with pytest.raises(ValueError):
            AutoExposureController(target_level=0.0)
        with pytest.raises(ValueError):
            AutoExposureController(min_exposure=2.0, max_exposure=1.0)
