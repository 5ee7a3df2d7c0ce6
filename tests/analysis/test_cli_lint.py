"""The ``python -m repro lint`` surface: exit codes, JSON output, baseline flags."""

import json
import textwrap

import pytest

from repro.cli import main

from .test_rules import RULE_FIXTURES


def write_fixture(tmp_path, rule_id):
    target = tmp_path / f"fixture_{rule_id.lower()}.py"
    target.write_text(textwrap.dedent(RULE_FIXTURES[rule_id]))
    return target


class TestExitCodes:
    @pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
    def test_each_rule_fixture_fails_the_gate(self, tmp_path, rule_id, capsys):
        target = write_fixture(tmp_path, rule_id)
        assert main(["lint", str(target)]) == 1
        assert rule_id in capsys.readouterr().out

    def test_clean_file_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("def double(x):\n    return 2 * x\n")
        assert main(["lint", str(target)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "nowhere")]) == 2
        assert "reprolint" in capsys.readouterr().out


class TestBaselineFlags:
    def test_write_baseline_then_gate_passes(self, tmp_path, capsys):
        target = write_fixture(tmp_path, "R001")
        baseline = tmp_path / "baseline.json"
        assert main(["lint", str(target), "--write-baseline", "--baseline", str(baseline)]) == 0
        capsys.readouterr()
        assert main(["lint", str(target), "--baseline", str(baseline)]) == 0
        assert "baselined" in capsys.readouterr().out

    def test_no_baseline_reinstate_findings(self, tmp_path, capsys):
        target = write_fixture(tmp_path, "R001")
        baseline = tmp_path / "baseline.json"
        main(["lint", str(target), "--write-baseline", "--baseline", str(baseline)])
        capsys.readouterr()
        assert (
            main(["lint", str(target), "--baseline", str(baseline), "--no-baseline"])
            == 1
        )


class TestJsonReport:
    def test_json_is_machine_parseable(self, tmp_path, capsys):
        target = write_fixture(tmp_path, "R002")
        assert main(["lint", str(target), "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["version"] == 4
        assert report["counts"]["new"] == 1
        (finding,) = report["findings"]
        assert finding["rule"] == "R002"
        assert finding["category"] == "per-file"
        assert finding["line"] > 0
        assert finding["evidence"] == []  # per-file rules carry no chain
        assert {"id", "title", "category", "rationale"} <= set(report["rules"][0])

    def test_json_is_byte_stable_across_runs(self, tmp_path, capsys):
        target = write_fixture(tmp_path, "R005")
        main(["lint", str(target), "--format", "json"])
        first = capsys.readouterr().out
        main(["lint", str(target), "--format", "json"])
        assert capsys.readouterr().out == first


class TestListRules:
    def test_lists_per_file_and_graph_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in sorted(RULE_FIXTURES):
            assert rule_id in out
        for rule_id in ("R007", "R008", "R009", "R010", "R011"):
            assert rule_id in out
        for rule_id in ("R012", "R013", "R014", "R015", "R016"):
            assert rule_id in out
        for rule_id in ("R017", "R018", "R019", "R020", "R021"):
            assert rule_id in out


class TestExplain:
    @pytest.mark.parametrize(
        "rule_id",
        [f"R{n:03d}" for n in range(1, 22)] + ["W001", "W002"],
    )
    def test_every_rule_id_explains(self, rule_id, capsys):
        assert main(["lint", "--explain", rule_id]) == 0
        out = capsys.readouterr().out
        assert rule_id in out
        assert f"disable={rule_id}" in out  # the suppression syntax

    def test_lowercase_id_is_accepted(self, capsys):
        assert main(["lint", "--explain", "r017"]) == 0
        assert "R017" in capsys.readouterr().out

    def test_unknown_id_exits_two(self, capsys):
        assert main(["lint", "--explain", "R099"]) == 2
        assert "unknown rule id" in capsys.readouterr().out

    def test_taint_explanations_carry_an_example(self, capsys):
        main(["lint", "--explain", "R020"])
        out = capsys.readouterr().out
        assert "example" in out
        assert "compare_digest" in out

