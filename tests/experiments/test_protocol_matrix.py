"""run_protocol_matrix: the binding layer's added value, end to end."""

import pytest

from repro.engine import ExecutionEngine
from repro.experiments.profiles import Environment
from repro.experiments.matrix import (
    PROTOCOL_ROLES,
    run_protocol_matrix,
)

SEED = 211


@pytest.fixture(scope="module")
def env():
    return Environment(frame_size=(64, 64), verifier_frame_size=(40, 40))


@pytest.fixture(scope="module")
def matrix(env):
    return run_protocol_matrix(
        roles=("genuine", "replay"),
        sessions_per_cell=1,
        clips=2,
        enroll_sessions=6,
        env=env,
        seed=SEED,
    )


class TestProtocolMatrix:
    def test_replayed_schedule_is_replay_not_fake(self, matrix):
        """The acceptance headline: with the protocol on, a replayed
        recording of an earlier call is attributed as REPLAY — and it is
        never accepted as live, with or without the protocol."""
        on = matrix.cell("replay", True)
        assert on.statuses == ("replay",)
        assert on.bindings.get("replay", 0) > 0
        assert "live" not in matrix.cell("replay", True).statuses

    def test_replay_is_condemned_in_both_columns(self, matrix):
        assert matrix.cell("replay", False).condemned_fraction + \
            matrix.cell("replay", True).condemned_fraction >= 1.0
        on = matrix.cell("replay", True).condemned_fraction
        assert on == pytest.approx(1.0)

    def test_genuine_keeps_its_verdict_under_the_protocol(self, matrix):
        off = matrix.cell("genuine", False)
        on = matrix.cell("genuine", True)
        assert off.statuses == on.statuses == ("live",)
        assert on.bindings.get("bound", 0) == 2  # both clips bound
        assert on.acks_ok == on.sessions  # the handshake round-tripped

    def test_lines_render_one_row_per_cell(self, matrix):
        assert len(matrix.lines()) == len(matrix.cells) + 1
        assert matrix.cell("genuine", True) in matrix.cells

    def test_unknown_cell_and_bad_arguments_raise(self, matrix, env):
        with pytest.raises(KeyError):
            matrix.cell("genuine", None)
        with pytest.raises(ValueError):
            run_protocol_matrix(roles=("alien",), env=env, seed=SEED)
        with pytest.raises(ValueError):
            run_protocol_matrix(sessions_per_cell=0, env=env, seed=SEED)
        with pytest.raises(ValueError):
            run_protocol_matrix(clips=9, env=env, seed=SEED)

    def test_roles_cover_the_threat_matrix(self):
        assert set(PROTOCOL_ROLES) == {"genuine", "replay", "stale", "attack"}


class TestJobsIdentity:
    @pytest.mark.usefixtures("pool_cpus")
    def test_pool_matches_serial_at_jobs_1_2_4(self, env):
        """Satellite acceptance: the matrix is bit-identical at any
        worker count (each cell is a self-seeded task)."""
        results = []
        for jobs in (1, 2, 4):
            with ExecutionEngine(jobs=jobs) as engine:
                assert engine.jobs == jobs
                results.append(
                    run_protocol_matrix(
                        roles=("genuine",),
                        sessions_per_cell=1,
                        clips=1,
                        enroll_sessions=4,
                        env=env,
                        seed=SEED,
                        engine=engine,
                    )
                )
        assert results[0].cells == results[1].cells == results[2].cells
