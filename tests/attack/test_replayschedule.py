"""Protocol-aware attackers: replayed schedules and stale relays."""

import pytest

from repro.attack.adaptive import AdaptiveLuminanceForger
from repro.attack.reenactment import ReenactmentAttacker
from repro.attack.replayschedule import ReplayScheduleAttacker, StaleRelayAttacker
from repro.attack.target import TargetRecording
from repro.protocol.schedule import DerivedChallenge, DerivedSchedule
from repro.vision.face_model import make_face


@pytest.fixture()
def target():
    return TargetRecording(victim=make_face("victim"), seed=50)


def observed_schedule(attempt=0):
    return DerivedSchedule(
        nonce=b"\x02" * 32,
        attempt_index=attempt,
        clip_duration_s=15.0,
        challenges=(
            DerivedChallenge(time_s=4.0, spot="dark", delta_lux=40.0),
            DerivedChallenge(time_s=10.0, spot="bright", delta_lux=50.0),
        ),
    )


class TestReplayScheduleAttacker:
    def make(self, target, **kwargs):
        defaults = dict(
            observed_schedules=[observed_schedule()],
            response_delay_s=0.4,
            start_offset_s=2.0,
            frame_size=(64, 64),
        )
        return ReplayScheduleAttacker(target=target, **{**defaults, **kwargs})

    def test_recorded_response_steps_at_the_old_schedule(self, target):
        attacker = self.make(target)
        base = attacker.ambient_lux + attacker.baseline_reflection_lux
        # Before the first recorded response: baseline reflection.
        assert attacker._illuminance(2.0, None) == pytest.approx(base)
        # After the dark-spot challenge (2.0 warmup + 4.0 + 0.4 delay)
        # the recorded reflection stepped *up* by half the delta.
        assert attacker._illuminance(6.5, None) == pytest.approx(base + 20.0)
        # After the bright-spot challenge it stepped *down*.
        assert attacker._illuminance(12.5, None) == pytest.approx(base - 25.0)

    def test_recording_ignores_the_live_screen(self, target):
        from ..conftest import blank_frame

        attacker = self.make(target)
        bright = attacker._illuminance(6.5, blank_frame(4, 4, value=255.0))
        dark = attacker._illuminance(6.5, blank_frame(4, 4, value=0.0))
        assert bright == pytest.approx(dark)

    def test_multiple_clips_offset_by_clip_duration(self, target):
        attacker = self.make(
            target, observed_schedules=[observed_schedule(0), observed_schedule(1)]
        )
        base = attacker.ambient_lux + attacker.baseline_reflection_lux
        # Clip 1's first challenge: 2.0 + 15.0 + 4.0 + 0.4 = 21.4.
        assert attacker._illuminance(21.0, None) == pytest.approx(base - 25.0)
        assert attacker._illuminance(21.5, None) == pytest.approx(base + 20.0)

    def test_is_a_reenactment_endpoint(self, target):
        assert isinstance(self.make(target), ReenactmentAttacker)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(response_delay_s=-0.1),
            dict(start_offset_s=-1.0),
            dict(baseline_reflection_lux=-1.0),
            dict(ambient_lux=-1.0),
        ],
    )
    def test_bad_values_rejected(self, target, kwargs):
        with pytest.raises(ValueError):
            self.make(target, **kwargs)


class TestStaleRelayAttacker:
    def test_is_the_adaptive_forger_with_a_slow_pipeline(self, target):
        attacker = StaleRelayAttacker(
            target=target, processing_delay_s=4.5, frame_size=(64, 64)
        )
        assert isinstance(attacker, AdaptiveLuminanceForger)
        assert attacker.processing_delay_s == pytest.approx(4.5)
