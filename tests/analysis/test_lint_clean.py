"""Meta-test: this repository lints clean with an empty baseline.

``repro lint`` over ``src/``, ``tests/`` and ``examples/`` must report zero non-baselined findings, per-file AND
whole-program (the graph pass is what the CLI runs by default), and the
checked-in baseline must be empty (no grandfathered debt).
"""

import json
from pathlib import Path

from repro.analysis import lint_paths
from repro.analysis.config import load_lint_config

REPO_ROOT = Path(__file__).resolve().parents[2]

#: The declared policy (pyproject [tool.reprolint]) — what the CLI runs
#: with; the hardcoded defaults predate the config knob.
CONFIG = load_lint_config(REPO_ROOT)

#: The CLI's default roots; ``examples/`` counts as a program caller.
ROOTS = [REPO_ROOT / "src", REPO_ROOT / "tests", REPO_ROOT / "examples"]


def test_tree_has_zero_findings():
    result = lint_paths(ROOTS, config=CONFIG)
    assert result.findings == [], [
        f"{f.path}:{f.line}: {f.rule} {f.message}" for f in result.findings
    ]
    assert result.files_scanned > 100  # sanity: the walk really covered the tree


def test_tree_is_clean_under_whole_program_rules():
    result = lint_paths(
        ROOTS,
        relative_to=REPO_ROOT,
        graph=True,
        config=CONFIG,
    )
    assert result.findings == [], [
        f"{f.path}:{f.line}: {f.rule} {f.message}" for f in result.findings
    ]
    # The graph really was built and covers the project.
    assert result.graph is not None
    assert any(m.startswith("repro.") for m in result.graph.modules)
    assert len(result.graph.nodes) > 200


def test_taint_stage_really_ran_on_the_clean_tree():
    """Zero R017-R021 findings must mean the secret-flow pass looked
    and found nothing — not that it was skipped.  The taint model built
    for the full graph must classify real key material in the protocol
    layer as secret-bearing."""
    from repro.analysis.taint.model import SECRET_LEVEL, taint_model

    result = lint_paths(
        ROOTS,
        relative_to=REPO_ROOT,
        graph=True,
        config=CONFIG,
    )
    assert result.findings == []
    model = taint_model(result.graph)
    secret_bearing = [
        node_id
        for node_id in model.node_ids()
        if any(v.level == SECRET_LEVEL for v in model.env(node_id).values())
    ]
    assert any("repro.protocol" in node_id for node_id in secret_bearing)


def test_checked_in_baseline_is_empty():
    baseline = REPO_ROOT / "reprolint-baseline.json"
    payload = json.loads(baseline.read_text())
    assert payload == {"findings": [], "version": 1}
