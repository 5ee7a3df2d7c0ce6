"""Suppression hygiene: W001 (stale) and W002 (unknown id) findings.

A ``# reprolint: disable=`` comment is a standing claim that a rule
would fire here.  When the code drifts and the rule no longer fires,
the comment silently disables future *real* findings on that line — so
an unused suppression is itself reported (W001), and one naming a rule
id that does not exist is reported as a typo (W002).  Suppressions for
rules that did not run this invocation (graph rules under --no-graph)
are never judged: absence of evidence is not staleness.
"""

import textwrap

from repro.analysis import LintConfig, lint_paths
from repro.analysis.rulebase import rule_category


def lint_tree(tmp_path, files, **kwargs):
    for name, source in files.items():
        target = tmp_path / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))
    kwargs.setdefault("graph", True)
    return lint_paths([tmp_path], relative_to=tmp_path, **kwargs)


def by_rule(result, rule_id):
    return [f for f in result.findings if f.rule == rule_id]


class TestW001UnusedSuppression:
    def test_stale_suppression_is_flagged(self, tmp_path):
        result = lint_tree(
            tmp_path, {"m.py": "x = 1  # reprolint: disable=R001\n"}
        )
        (finding,) = by_rule(result, "W001")
        assert finding.path == "m.py"
        assert finding.line == 1
        assert "R001" in finding.message
        assert "silences nothing" in finding.message

    def test_live_suppression_is_not_flagged(self, tmp_path):
        files = {
            "m.py": """
                import numpy as np

                def noisy():
                    return np.random.rand()  # reprolint: disable=R001
                """
        }
        result = lint_tree(tmp_path, files)
        assert by_rule(result, "R001") == []
        assert by_rule(result, "W001") == []

    def test_unused_wildcard_is_flagged(self, tmp_path):
        result = lint_tree(
            tmp_path, {"m.py": "x = 1  # reprolint: disable=all\n"}
        )
        (finding,) = by_rule(result, "W001")
        assert "'all'" in finding.message

    def test_suppression_text_inside_a_string_is_ignored(self, tmp_path):
        # Test fixtures in this repo embed lint-fixture source in string
        # literals; those must not register as (stale) suppressions.
        files = {
            "m.py": '''
                FIXTURE = """
                import numpy as np
                def f():
                    return np.random.rand()  # reprolint: disable=R001
                """
                '''
        }
        result = lint_tree(tmp_path, files)
        assert by_rule(result, "W001") == []

    def test_graph_rule_suppression_not_judged_without_graph(self, tmp_path):
        files = {"m.py": "x = 1  # reprolint: disable=R007\n"}
        ungraphed = lint_tree(tmp_path, files, graph=False)
        assert by_rule(ungraphed, "W001") == []
        graphed = lint_tree(tmp_path, files, graph=True)
        assert len(by_rule(graphed, "W001")) == 1

    def test_graph_rule_use_marks_the_suppression_live(self, tmp_path):
        files = {
            "util.py": "from random import random as draw\n",
            "payload.py": """
                from util import draw

                def task(p):
                    return draw()

                def build(engine, tasks):
                    return engine.map_batches(task, tasks)  # reprolint: disable=R007
                """,
        }
        result = lint_tree(tmp_path, files)
        assert by_rule(result, "R007") == []
        assert by_rule(result, "W001") == []


class TestW002UnknownRuleId:
    def test_unknown_id_in_comment(self, tmp_path):
        result = lint_tree(
            tmp_path, {"m.py": "x = 1  # reprolint: disable=R999\n"}
        )
        (finding,) = by_rule(result, "W002")
        assert "R999" in finding.message
        assert by_rule(result, "W001") == []  # not double-reported

    def test_unknown_id_in_config(self, tmp_path):
        config = LintConfig(rule_options=(("R888", (("opt", ("v",)),)),))
        result = lint_tree(tmp_path, {"m.py": "x = 1\n"}, config=config)
        (finding,) = by_rule(result, "W002")
        assert finding.path == "pyproject.toml"
        assert "R888" in finding.message

    def test_known_config_ids_are_quiet(self, tmp_path):
        config = LintConfig(
            rule_options=(("R012", (("primitive-allowlist", ("x.y",)),)),)
        )
        result = lint_tree(tmp_path, {"m.py": "x = 1\n"}, config=config)
        assert by_rule(result, "W002") == []


class TestCategories:
    def test_meta_and_error_categories(self):
        assert rule_category("W001") == "meta"
        assert rule_category("W002") == "meta"
        assert rule_category("E000") == "error"
        assert rule_category("R001") == "per-file"
        assert rule_category("R007") == "whole-program"
        assert rule_category("R014") == "concurrency"
