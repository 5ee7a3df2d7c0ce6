"""run_fault_matrix: deterministic, crash-free, gracefully degrading."""

import numpy as np
import pytest

from repro.core.streaming import CallStatus, StreamingVerifier
from repro.core.config import DetectorConfig
from repro.core.detector import LivenessDetector
from repro.core.features import FeatureVector
from repro.engine import ExecutionEngine
from repro.experiments.matrix import (
    DEFAULT_FAULT_SPEC,
    run_fault_matrix,
    simulate_faulted_session,
)
from repro.experiments.profiles import Environment
from repro.faults import FaultSpec

SEVERITIES = (0.0, 1.0)


@pytest.fixture(scope="module")
def env():
    return Environment(frame_size=(72, 72), verifier_frame_size=(48, 48))


@pytest.fixture(scope="module")
def matrix(env):
    return run_fault_matrix(
        severities=SEVERITIES,
        sessions_per_cell=1,
        duration_s=15.0,
        enroll_sessions=8,
        env=env,
        seed=97,
    )


class TestFaultMatrix:
    def test_full_grid_including_total_dropout_never_crashes(self, matrix):
        # severity 1.0 of the default spec rides every fault mode at once;
        # reaching here at all is the no-crash half of the contract.
        assert len(matrix.cells) == len(SEVERITIES) * 2

    def test_genuine_users_never_read_as_attackers(self, matrix):
        for severity in SEVERITIES:
            cell = matrix.cell(severity, "genuine")
            assert cell.attacker_fraction == pytest.approx(0.0), (
                f"severity {severity}: genuine flagged as attacker "
                f"(statuses={cell.statuses})"
            )

    def test_clean_channel_still_flags_attacks(self, matrix):
        assert matrix.cell(0.0, "attack").attacker_fraction == pytest.approx(1.0)

    def test_degradation_is_gated_not_misjudged(self, matrix):
        # At full severity the gate must be withholding clips...
        worst = matrix.cell(1.0, "genuine")
        assert worst.gated_fraction > 0.0
        # ...and the clean cell must not be gated at all.
        assert matrix.cell(0.0, "genuine").gated_fraction == pytest.approx(0.0)

    def test_same_seed_is_reproducible(self, matrix, env):
        again = run_fault_matrix(
            severities=SEVERITIES,
            sessions_per_cell=1,
            duration_s=15.0,
            enroll_sessions=8,
            env=env,
            seed=97,
        )
        assert again.cells == matrix.cells

    @pytest.mark.usefixtures("pool_cpus")
    def test_parallel_engine_is_bit_identical_and_counts_clips(self, matrix, env):
        with ExecutionEngine(jobs=2) as engine:
            assert engine.jobs == 2
            parallel = run_fault_matrix(
                severities=SEVERITIES,
                sessions_per_cell=1,
                duration_s=15.0,
                enroll_sessions=8,
                env=env,
                seed=97,
                engine=engine,
            )
            report = engine.perf_report()
        assert parallel.cells == matrix.cells
        assert report.counters["clips_total"] == sum(
            c.attempts_total for c in matrix.cells
        )
        assert "clips_inconclusive" in report.counters

    def test_unknown_cell_raises(self, matrix):
        with pytest.raises(KeyError):
            matrix.cell(0.123, "genuine")

    def test_lines_render_one_row_per_cell(self, matrix):
        assert len(matrix.lines()) == len(matrix.cells) + 1


class TestFaultedSession:
    def test_same_seed_same_schedule_same_verdict(self, env):
        rng = np.random.default_rng(1)
        bank = [
            FeatureVector(
                z1=1.0,
                z2=1.0,
                z3=float(rng.uniform(0.9, 1.0)),
                z4=float(rng.uniform(0.02, 0.2)),
            )
            for _ in range(20)
        ]
        detector = LivenessDetector(DetectorConfig()).fit(bank)
        spec = DEFAULT_FAULT_SPEC.scaled(0.5)
        statuses = []
        for _ in range(2):
            record = simulate_faulted_session(
                "genuine", spec, duration_s=15.0, seed=31, env=env
            )
            verifier = StreamingVerifier(detector)
            for t_frame, r_frame in zip(record.transmitted, record.received):
                verifier.push(t_frame, r_frame)
            statuses.append(verifier.state.status)
        assert statuses[0] == statuses[1]

    def test_total_landmark_dropout_yields_inconclusive(self, env):
        spec = FaultSpec(landmark_dropout_rate=1.0)
        record = simulate_faulted_session(
            "genuine", spec, duration_s=15.0, seed=7, env=env
        )
        rng = np.random.default_rng(2)
        bank = [
            FeatureVector(z1=1.0, z2=1.0, z3=0.95, z4=float(rng.uniform(0.02, 0.2)))
            for _ in range(20)
        ]
        verifier = StreamingVerifier(LivenessDetector(DetectorConfig()).fit(bank))
        for t_frame, r_frame in zip(record.transmitted, record.received):
            verifier.push(t_frame, r_frame)
        state = verifier.state
        assert state.status is CallStatus.INCONCLUSIVE
        assert state.conclusive_attempts == 0

    def test_unknown_role_rejected(self, env):
        with pytest.raises(ValueError):
            simulate_faulted_session("alien", FaultSpec(), duration_s=5.0, env=env)
