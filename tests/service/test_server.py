"""VerificationServer: admission, backpressure, deadlines, failures."""

import numpy as np
import pytest

from repro.core.lof import SmallBankWarning
from repro.core.streaming import CallStatus
from repro.obs import Instrumentation
from repro.service import ServerConfig, VerificationServer, WorkloadConfig
from repro.service.loadgen import make_tenant_bank_provider
from repro.video.frame import Frame

from .conftest import run_guarded, synthetic_bank


def make_server(sched, instr=None, **overrides):
    config = ServerConfig(**overrides)
    return VerificationServer(
        sched, synthetic_bank, config, instrumentation=instr
    )


def gray_pair(height=24, width=24, t=0.0):
    transmitted = Frame(pixels=np.full((height, width, 3), 180.0), timestamp=t)
    received = Frame(pixels=np.zeros((height, width, 3)), timestamp=t)
    return transmitted, received


class TestAdmission:
    def test_rejects_beyond_slots_plus_queue(self, sched):
        instr = Instrumentation.enabled()
        server = make_server(
            sched, instr, max_sessions=2, admission_queue_depth=1,
            frame_timeout_s=5.0,
        )

        async def main():
            admissions = [server.submit("tenant-a") for _ in range(4)]
            await sched.sleep(0.1)  # let the admitted session tasks start
            depth = (server._active, len(server._slot_waiters))
            outcomes = []
            for admission in admissions:
                if admission.admitted:
                    admission.handle.finish()
                    outcomes.append(await admission.handle.result())
            return admissions, depth, outcomes

        admissions, depth, outcomes = run_guarded(sched, main())
        assert [a.admitted for a in admissions] == [True, True, True, False]
        assert admissions[3].reason == "queue_full"
        assert admissions[3].handle is None
        assert depth == (2, 1)  # two verifying, one waiting in FIFO
        assert len(outcomes) == 3
        snapshot = instr.snapshot()
        assert (
            snapshot.counter_value(
                "service_admissions_total", decision="admitted", reason="ok"
            )
            == 3
        )
        assert (
            snapshot.counter_value(
                "service_admissions_total", decision="rejected", reason="queue_full"
            )
            == 1
        )

    def test_capacity_recovers_after_sessions_finish(self, sched):
        server = make_server(sched, max_sessions=1, admission_queue_depth=0)

        async def main():
            first = server.submit("tenant-a")
            rejected = server.submit("tenant-a")
            first.handle.finish()
            await first.handle.result()
            second = server.submit("tenant-a")
            second.handle.finish()
            await second.handle.result()
            return rejected.admitted, second.admitted

        assert run_guarded(sched, main()) == (False, True)

    def test_session_ids_are_assigned_when_omitted(self, sched):
        server = make_server(sched)

        async def main():
            a = server.submit("tenant-a")
            b = server.submit("tenant-a", session_id="explicit")
            a.handle.finish()
            b.handle.finish()
            return (await a.handle.result()), (await b.handle.result())

        first, second = run_guarded(sched, main())
        assert first.session_id == "s00001"
        assert second.session_id == "explicit"


class TestSessionLifecycle:
    def test_clean_finish_without_an_attempt_is_inconclusive(self, sched):
        server = make_server(sched)

        async def main():
            admission = server.submit("tenant-a")
            admission.handle.finish()
            return await admission.handle.result()

        outcome = run_guarded(sched, main())
        assert outcome.status is CallStatus.INCONCLUSIVE
        assert outcome.reason == "completed"
        assert outcome.frames == 0

    def test_stalled_feed_times_out_inconclusive(self, sched):
        instr = Instrumentation.enabled()
        server = make_server(
            sched, instr, frame_timeout_s=2.0, session_deadline_s=300.0
        )

        async def main():
            admission = server.submit("tenant-a")
            # No frames, no finish(): the client just vanishes.
            return await admission.handle.result(), sched.now()

        outcome, now = run_guarded(sched, main())
        assert outcome.status is CallStatus.INCONCLUSIVE
        assert outcome.reason == "stall"
        assert now == pytest.approx(2.0)  # resolved at the stall timeout
        assert (
            instr.snapshot().counter_value(
                "service_session_end_total", reason="stall"
            )
            == 1
        )

    def test_session_deadline_caps_total_lifetime(self, sched):
        server = make_server(
            sched, frame_timeout_s=10.0, session_deadline_s=4.0
        )

        async def main():
            admission = server.submit("tenant-a")
            return await admission.handle.result(), sched.now()

        outcome, now = run_guarded(sched, main())
        assert outcome.reason == "deadline"
        assert outcome.status is CallStatus.INCONCLUSIVE
        assert now == pytest.approx(4.0)  # deadline < frame timeout wins

    def test_burst_overload_sheds_oldest_and_counts_drops(self, sched):
        instr = Instrumentation.enabled()
        server = make_server(
            sched, instr, frame_queue_depth=4, frame_proc_s=0.0
        )

        async def main():
            admission = server.submit("tenant-a")
            await sched.sleep(0.1)  # session parks on its empty queue
            for _ in range(10):  # dumped in one scheduling quantum
                admission.handle.push_frame(*gray_pair())
            admission.handle.finish()
            return await admission.handle.result()

        outcome = run_guarded(sched, main())
        # One frame was handed straight to the parked getter, four were
        # buffered, the rest were shed oldest-first.
        assert outcome.frames + outcome.dropped == 10
        assert outcome.dropped == 5
        snapshot = instr.snapshot()
        assert snapshot.counter_value("service_frames_dropped_total") == 5
        assert snapshot.counter_value("service_frames_processed_total") == outcome.frames

    def test_frame_processing_cost_is_modelled_in_virtual_time(self, sched):
        server = make_server(sched, frame_proc_s=0.5)

        async def main():
            admission = server.submit("tenant-a")
            for _ in range(4):
                admission.handle.push_frame(*gray_pair())
            admission.handle.finish()
            outcome = await admission.handle.result()
            return outcome, sched.now()

        outcome, now = run_guarded(sched, main())
        assert outcome.frames == 4
        assert now == pytest.approx(2.0)  # 4 frames x 0.5 s


class TestFailureContainment:
    def test_provider_failure_surfaces_at_join_and_frees_the_slot(self, sched):
        def exploding_provider(tenant_id):
            raise OSError("enrollment store down")

        instr = Instrumentation.enabled()
        server = VerificationServer(
            sched,
            exploding_provider,
            ServerConfig(max_sessions=1, admission_queue_depth=0),
            instrumentation=instr,
        )

        async def main():
            admission = server.submit("tenant-a")
            with pytest.raises(OSError, match="enrollment store down"):
                await admission.handle.result()
            # The failed session released its slot and its commitment:
            # the server keeps serving.
            retry = server.submit("tenant-a")
            with pytest.raises(OSError):
                await retry.handle.result()  # leave no dangling task
            return retry.admitted

        assert run_guarded(sched, main()) is True
        assert (
            instr.snapshot().counter_value(
                "service_task_failures_total", stage="tenant_fit"
            )
            == 2  # both the first session and the retry failed to fit
        )

    def test_small_bank_clamp_warns_through_the_service_path(self, sched):
        """An undersized tenant bank triggers the LOF clamp warning when
        the tenant's first session fits the model."""
        workload = WorkloadConfig(
            sessions=1, tenants=1, small_tenant_fraction=1.0, seed=3
        )
        server = VerificationServer(
            sched, make_tenant_bank_provider(workload), ServerConfig()
        )

        async def main():
            admission = server.submit("tenant-000")
            admission.handle.finish()
            return await admission.handle.result()

        with pytest.warns(SmallBankWarning):
            outcome = run_guarded(sched, main())
        assert outcome.status is CallStatus.INCONCLUSIVE


class TestConfigValidation:
    def test_rejects_nonsense_knobs(self):
        with pytest.raises(ValueError):
            ServerConfig(max_sessions=0)
        with pytest.raises(ValueError):
            ServerConfig(admission_queue_depth=-1)
        with pytest.raises(ValueError):
            ServerConfig(session_deadline_s=0.0)
        with pytest.raises(ValueError):
            ServerConfig(frame_timeout_s=-1.0)
