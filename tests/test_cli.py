"""CLI: parser wiring, info/demo/verify behaviour."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.enroll == 12
        assert args.seed == 0

    def test_verify_roles(self):
        for role in ("genuine", "attack", "replay", "adaptive"):
            args = build_parser().parse_args(["verify", "--role", role])
            assert args.role == role

    def test_verify_rejects_unknown_role(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["verify", "--role", "martian"])

    def test_figures_options(self):
        args = build_parser().parse_args(["figures", "--out", "x", "--only", "fig11_overall"])
        assert args.out == "x"
        assert args.only == ["fig11_overall"]

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.role == "genuine"
        assert args.sessions == 2
        assert args.jobs == 1
        assert args.trace is None
        assert args.metrics is None
        assert args.perf is False

    def test_simulate_options(self):
        args = build_parser().parse_args(
            ["simulate", "--role", "attack", "--jobs", "2",
             "--trace", "t.jsonl", "--metrics", "prom", "--perf"]
        )
        assert args.role == "attack"
        assert args.jobs == 2
        assert args.trace == "t.jsonl"
        assert args.metrics == "prom"
        assert args.perf is True

    def test_simulate_rejects_unknown_metrics_format(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--metrics", "xml"])

    def test_trace_wiring(self):
        args = build_parser().parse_args(["trace", "t.jsonl", "--format", "json"])
        assert args.trace == "t.jsonl"
        assert args.format == "json"

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.sessions == 8
        assert args.tenants == 3
        assert args.realtime is False
        assert args.chaos == 0.0  # reprolint: disable=R004

    def test_loadtest_options(self):
        args = build_parser().parse_args(
            ["loadtest", "--sessions", "50", "--no-serial-check",
             "--json", "out.json"]
        )
        assert args.sessions == 50
        assert args.no_serial_check is True
        assert args.json == "out.json"

    def test_loadtest_protocol_options(self):
        args = build_parser().parse_args(
            ["loadtest", "--protocol", "0.5", "--protocol-replay", "0.3",
             "--protocol-stale", "0.2"]
        )
        assert args.protocol == 0.5  # reprolint: disable=R004
        assert args.protocol_replay == 0.3  # reprolint: disable=R004
        assert args.protocol_stale == 0.2  # reprolint: disable=R004

    def test_protocol_defaults(self):
        args = build_parser().parse_args(["protocol"])
        assert args.matrix is False
        assert args.seed == 211
        assert args.tenant == "tenant-demo"


JOBS_COMMANDS = ("simulate", "figures", "faults", "protocol")


class TestJobsFlag:
    @pytest.mark.parametrize("command", JOBS_COMMANDS)
    def test_defaults_to_one(self, command):
        assert build_parser().parse_args([command]).jobs == 1

    @pytest.mark.parametrize("command", JOBS_COMMANDS)
    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_non_positive_is_a_usage_error(self, command, value, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, "--jobs", value])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err


class TestInfo:
    def test_info_prints_paper_constants(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "lof_threshold" in out
        assert "sample_rate_hz" in out
        assert "ICDCS 2020" in out


@pytest.mark.slow
class TestEndToEnd:
    def test_verify_genuine_exit_zero(self):
        assert main(["verify", "--role", "genuine", "--enroll", "10", "--seed", "3"]) == 0

    def test_verify_attack_exit_one(self):
        assert main(["verify", "--role", "attack", "--enroll", "10", "--seed", "3"]) == 1

    def test_demo_runs(self, capsys):
        assert main(["demo", "--enroll", "10"]) == 0
        out = capsys.readouterr().out
        assert "ATTACKER" in out
        assert "live person" in out

    def test_simulate_traces_every_pipeline_stage(self, tmp_path, capsys):
        from repro.obs import PIPELINE_STAGES, read_trace

        trace = str(tmp_path / "trace.jsonl")
        assert main(
            ["simulate", "--sessions", "2", "--enroll", "8", "--jobs", "2",
             "--seed", "3", "--trace", trace, "--metrics", "json"]
        ) == 0
        records = list(read_trace(trace))  # read_trace validates the schema
        stages = {r["stage"] for r in records}
        assert set(PIPELINE_STAGES) <= stages
        out = capsys.readouterr().out
        assert '"name": "verifier_sessions_total"' in out
        # The trace aggregator consumes what simulate wrote.
        assert main(["trace", trace]) == 0

    def test_serve_reports_slo(self, capsys):
        assert main(["serve", "--sessions", "2", "--tenants", "1",
                     "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "virtual clock" in out
        assert "admission rate" in out
        assert "task failures: 0" in out

    def test_protocol_demo_prints_all_four_verdicts(self, capsys):
        assert main(["protocol"]) == 0
        out = capsys.readouterr().out
        assert "verify=True" in out
        assert "verify=False" in out  # the tampered ack is rejected
        for outcome in ("bound", "replay", "stale", "unbound"):
            assert f"outcome={outcome}" in out

    def test_loadtest_writes_identity_checked_json(self, tmp_path, capsys):
        import json

        path = str(tmp_path / "service.json")
        assert main(["loadtest", "--sessions", "6", "--tenants", "2",
                     "--arrival-rate", "4.0", "--chaos", "0.3",
                     "--seed", "11", "--json", path]) == 0
        payload = json.loads(open(path).read())
        assert payload["schema"] == "bench-service-v1"
        assert payload["serial_identity"] is True
        assert payload["task_failures"] == 0
        assert "IDENTICAL" in capsys.readouterr().out
