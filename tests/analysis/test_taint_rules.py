"""reprotaint: the secret-flow rules R017-R021.

The load-bearing fixtures are cross-module: key material introduced in
one file reaches a sink in another purely through the interprocedural
returns table, with a flow chain (one ``file:line`` per hop) as
evidence.  Every rule gets the four-quadrant treatment — positive,
negative, sanitized, suppressed — because the pass is only trustworthy
if it both fires on the leak and stays quiet on the digest-truncated /
redacted form of the very same flow.
"""

import json
import re

import pytest

from repro.analysis.reporters import render_json

from . import test_graph
from .test_graph import write_tree
from .test_taint_oracle import assert_matches_oracle

#: Every evidence hop carries its own file:line anchor.
HOP_RE = re.compile(r"\(.+\.py:\d+\)$")


def graph_lint(tmp_path, **kwargs):
    """Lint a fixture tree, checking its taint tables against the oracle."""
    result = test_graph.graph_lint(tmp_path, **kwargs)
    assert_matches_oracle(result.graph)
    return result


def return_chain(depth):
    """``banner`` prints what ``f00`` returns and ``f{depth}`` reads the
    secret.  Every caller sorts before its callee, so each sorted sweep
    over the call graph lifts the return level one function higher."""
    lines = ["def banner(path):", "    print(f'key {f00(path)}')", ""]
    for i in range(depth):
        lines += [f"def f{i:02d}(path):", f"    return f{i + 1:02d}(path)", ""]
    lines += [f"def f{depth:02d}(path):", "    return path.secret", ""]
    return {"chain.py": "\n".join(lines)}


def assign_chain(depth):
    """``v0 = v1; ...; v{depth} = path.secret`` in a loop body: in source
    order, each pass over the assignments moves the secret one name up."""
    body = [f"        v{i} = v{i + 1}" for i in range(depth)]
    return {
        "loop.py": "\n".join(
            [
                "def banner(path, items):",
                "    for _ in items:",
                *body,
                f"        v{depth} = path.secret",
                "    print(f'key {v0}')",
                "",
            ]
        )
    }


def by_rule(result, rule_id):
    return sorted(
        (f for f in result.findings if f.rule == rule_id),
        key=lambda f: f.sort_key,
    )


def rule_ids(result):
    return {f.rule for f in result.findings}


class TestR017OutputSink:
    FILES = {
        "keys.py": """
            def load_secret(path):
                secret = path.read_text()
                return secret
            """,
        "report.py": """
            from keys import load_secret

            def banner(path):
                value = load_secret(path)
                print(f"deployment key {value}")
            """,
    }

    def test_cross_module_leak_fires_with_flow_chain(self, tmp_path):
        write_tree(tmp_path, self.FILES)
        (finding,) = by_rule(graph_lint(tmp_path), "R017")
        assert finding.path == "report.py"
        assert "output sink 'print'" in finding.message
        assert finding.evidence  # the flow chain is the point
        for hop in finding.evidence:
            assert HOP_RE.search(hop), hop
        assert any("keys.py" in hop for hop in finding.evidence)

    @pytest.mark.parametrize(
        "files",
        [return_chain(30), assign_chain(10)],
        ids=["31-function-return-chain", "11-deep-assign-chain-in-loop"],
    )
    def test_deep_flows_fire_with_anchored_hops(self, tmp_path, files):
        write_tree(tmp_path, files)
        (finding,) = by_rule(graph_lint(tmp_path), "R017")
        assert "output sink 'print'" in finding.message
        assert finding.evidence.count("...") == 1  # long chains are elided
        for hop in finding.evidence:
            assert hop == "..." or HOP_RE.search(hop), hop

    def test_flow_chain_is_stable_across_cold_runs(self, tmp_path):
        write_tree(tmp_path, self.FILES)
        first = by_rule(graph_lint(tmp_path), "R017")
        second = by_rule(graph_lint(tmp_path), "R017")
        assert [(f.path, f.line, f.evidence) for f in first] == [
            (f.path, f.line, f.evidence) for f in second
        ]

    def test_negative_public_values_print_freely(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "report.py": """
                    def banner(count, label):
                        print(f"graded {count} clips for {label}")
                    """
            },
        )
        assert "R017" not in rule_ids(graph_lint(tmp_path))

    def test_sanitized_digest_is_emit_safe(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "report.py": """
                    import hashlib

                    def banner(secret):
                        digest = hashlib.sha256(secret).hexdigest()[:8]
                        print(f"deployment key {digest}")
                    """
            },
        )
        assert "R017" not in rule_ids(graph_lint(tmp_path))

    def test_redact_helper_clears_the_value(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "report.py": """
                    def redact(value):
                        return "<redacted>"

                    def banner(secret):
                        print(f"deployment key {redact(secret)}")
                    """
            },
        )
        assert "R017" not in rule_ids(graph_lint(tmp_path))

    def test_suppression_silences_and_counts_as_used(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "report.py": """
                    def banner(secret):
                        print(f"key {secret}")  # reprolint: disable=R017
                    """
            },
        )
        result = graph_lint(tmp_path)
        assert "R017" not in rule_ids(result)
        assert "W001" not in rule_ids(result)  # the suppression was used


class TestR018ExceptionMessage:
    def test_nonce_in_raise_message(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "guard.py": """
                    def check(session_nonce):
                        if not session_nonce:
                            raise ValueError(f"bad nonce {session_nonce}")
                    """
            },
        )
        (finding,) = by_rule(graph_lint(tmp_path), "R018")
        assert finding.path == "guard.py"
        assert finding.evidence

    def test_secret_free_message_is_fine(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "guard.py": """
                    def check(session_nonce):
                        if not session_nonce:
                            raise ValueError("missing session nonce")
                    """
            },
        )
        assert "R018" not in rule_ids(graph_lint(tmp_path))

    def test_assert_message_counts(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "guard.py": """
                    def check(tenant_key):
                        assert tenant_key, f"no key: {tenant_key}"
                    """
            },
        )
        assert by_rule(graph_lint(tmp_path), "R018")


class TestR019PickleBoundary:
    def test_secret_in_pool_payload(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "fanout.py": """
                    def grade_one(payload):
                        return len(payload)

                    def grade_all(engine, tenant_key, clips):
                        payloads = [(tenant_key, clip) for clip in clips]
                        return engine.map_batches(grade_one, payloads)
                    """
            },
        )
        (finding,) = by_rule(graph_lint(tmp_path), "R019")
        assert finding.path == "fanout.py"
        assert "map" in finding.message

    def test_digest_payload_crosses_freely(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "fanout.py": """
                    import hashlib

                    def grade_one(payload):
                        return len(payload)

                    def grade_all(engine, tenant_key, clips):
                        token = hashlib.sha256(tenant_key).digest()
                        payloads = [(token, clip) for clip in clips]
                        return engine.map_batches(grade_one, payloads)
                    """
            },
        )
        assert "R019" not in rule_ids(graph_lint(tmp_path))


class TestR020NonConstantTimeCompare:
    def test_tag_equality_fires(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "verify.py": """
                    def verify(expected_tag, provided_tag):
                        return provided_tag == expected_tag
                    """
            },
        )
        (finding,) = by_rule(graph_lint(tmp_path), "R020")
        assert "compare_digest" in finding.message
        assert "==" in finding.snippet

    def test_nonce_inequality_fires(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "verify.py": """
                    def changed(session_nonce, prior):
                        return session_nonce != prior
                    """
            },
        )
        assert by_rule(graph_lint(tmp_path), "R020")

    def test_compare_digest_is_the_sanctioned_form(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "verify.py": """
                    import hmac

                    def verify(expected_tag, provided_tag):
                        return hmac.compare_digest(expected_tag, provided_tag)
                    """
            },
        )
        assert "R020" not in rule_ids(graph_lint(tmp_path))

    def test_plain_value_compares_are_untouched(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "verify.py": """
                    def same_outcome(left, right):
                        return left.outcome == right.outcome
                    """
            },
        )
        assert "R020" not in rule_ids(graph_lint(tmp_path))

    def test_suppression_keeps_a_justified_compare(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "verify.py": """
                    def verify(expected_tag, provided_tag):
                        return provided_tag == expected_tag  # reprolint: disable=R020
                    """
            },
        )
        result = graph_lint(tmp_path)
        assert "R020" not in rule_ids(result)
        assert "W001" not in rule_ids(result)


class TestR021DataclassField:
    def test_secret_field_with_default_repr(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "cfg.py": """
                    import dataclasses

                    @dataclasses.dataclass
                    class Deployment:
                        name: str
                        tenant_key: bytes
                    """
            },
        )
        (finding,) = by_rule(graph_lint(tmp_path), "R021")
        assert finding.path == "cfg.py"
        assert "repr=False" in finding.message

    def test_repr_false_field_is_fine(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "cfg.py": """
                    import dataclasses

                    @dataclasses.dataclass
                    class Deployment:
                        name: str
                        tenant_key: bytes = dataclasses.field(repr=False, default=b"")
                    """
            },
        )
        assert "R021" not in rule_ids(graph_lint(tmp_path))

    def test_public_fields_are_untouched(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "cfg.py": """
                    import dataclasses

                    @dataclasses.dataclass
                    class Deployment:
                        name: str
                        attempts: int = 2
                    """
            },
        )
        assert "R021" not in rule_ids(graph_lint(tmp_path))


class TestSchemaV4:
    def test_taint_findings_render_with_category_and_evidence(self, tmp_path):
        write_tree(tmp_path, TestR017OutputSink.FILES)
        result = graph_lint(tmp_path)
        document = json.loads(
            render_json(result.findings, [], result.files_scanned)
        )
        assert document["version"] == 4
        taint = [f for f in document["findings"] if f["rule"] == "R017"]
        assert taint and all(f["category"] == "taint" for f in taint)
        assert all(f["evidence"] for f in taint)
        by_id = {entry["id"]: entry for entry in document["rules"]}
        assert {"R017", "R018", "R019", "R020", "R021"} <= set(by_id)
        for entry in document["rules"]:
            assert "example" in entry

    def test_json_round_trips_byte_stable(self, tmp_path):
        write_tree(tmp_path, TestR017OutputSink.FILES)
        result = graph_lint(tmp_path)
        first = render_json(result.findings, [], result.files_scanned)
        again = graph_lint(tmp_path)
        second = render_json(again.findings, [], again.files_scanned)
        assert first == second
