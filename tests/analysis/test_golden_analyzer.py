"""Golden pins: the analyzer's full output on every shared fixture tree.

The rule tests check rule ids and message substrings; these pin the
*whole* report.  Each case lints one fixture tree from the analyzer
tests (``RULE_FIXTURES`` plus the module- and class-level file dicts)
with the graph pass on, and compares the exact ``render_json`` report —
messages, snippets, evidence chains, fingerprints — and the exact
``--dump-graph json`` document to the recording in
``golden_analyzer.json``.  A refactor of the summaries, the codec or
the fixed-point solvers that moves a single evidence hop shows up here
as a diff.

The rule table every report embeds is input-independent, so it is
recorded once (``rules``) rather than per case.

Re-record (only when an output change is intended) from the repo root
with::

    PYTHONPATH=src python -m tests.analysis.test_golden_analyzer --write
"""

from __future__ import annotations

import json
import pathlib
import sys
import tempfile

import pytest

from repro.analysis import DEFAULT_LINT_CONFIG, render_json
from repro.analysis.graph import dump_json

from . import test_async_rules, test_graph, test_rules, test_taint_rules

GOLDEN_PATH = pathlib.Path(__file__).with_name("golden_analyzer.json")

#: Shapes the per-file rules and the fact pass must see the same way
#: however the module is traversed: module-level effects, nested defs
#: and local lambdas in methods and coroutines, a lambda in a class
#: body, test asserts inside nested functions (and the order in which
#: "computed" names propagate), a suppression on a continuation line,
#: dataclass ``field(default=[])`` and both numpy.random import forms.
EDGE_CASE_FILES = {
    "pkg/__init__.py": "",
    "pkg/sampling.py": """
        import dataclasses
        import random as rnd
        import time

        import numpy.random
        from numpy.random import rand

        SEED_NOISE = rand(3)
        STARTED = time.time()
        JITTER = numpy.random.normal()
        PICK = rnd.choice([1, 2])
        BLESSED = time.perf_counter(
        )  # reprolint: disable=R002


        def draw(scale=[]):
            import datetime as dt

            stamp = dt.datetime.now()
            return numpy.random.uniform(0, 1), stamp, scale


        def module_task(item):
            return item


        @dataclasses.dataclass
        class Bucket:
            items: list = dataclasses.field(default=[])
            tags: dict = dataclasses.field(default_factory=dict)
            limit: float = 0.5


        class Sampler:
            scale = lambda self, x: x * 2.0

            def sample(self, engine, tasks, cache={}):
                def inner(k, acc=[]):
                    acc.append(rand(k))
                    return acc

                pick = lambda k, seen=set(): rnd.random() + k
                checked = self.scale(1.0) == 2.0
                return (
                    engine.map_batches(inner, tasks),
                    engine.map_batches(module_task, tasks),
                    pick(1),
                    checked,
                )

            async def refresh(self, engine, tasks):
                async def later(delay=dict()):
                    return time.monotonic()

                step = lambda t: t
                ready = await later()
                late = time.time_ns(
                    1,
                )  # reprolint: disable=R002
                return engine.map_batches(step, tasks), ready, late

            def tune(self, config):
                return config.with_overrides(lof_treshold=2.0, **{"tua": 1})
        """,
    "tests/__init__.py": "",
    "tests/test_edge.py": """
        from pkg.sampling import Bucket, draw

        assert float("1.5") == 1.5
        if True:
            assert float("2.5") == 2.5


        def test_outer(build):
            result = build()

            def check(value):
                assert value == 0.5
                assert result.score == 1.0

            check(result.score)
            helper = lambda: 2.0
            assert helper() == 2.0
            assert result, result.score == 0.75
            plain = Bucket().limit == 0.5
            assert plain


        def test_order(build):
            for _ in range(2):
                early = late
            late = build()
            assert early == 1.0
            assert draw()[0] != 0.125


        class TestNested:
            def test_method(self, compute):
                def nested():
                    got = compute()
                    assert got == 0.25

                async def waiter():
                    value = compute()
                    assert value == -0.5

                nested()
                return waiter
        """,
}


def _trees() -> dict[str, tuple[dict[str, str], object]]:
    """Case name -> (fixture files, lint config)."""
    trees = {
        f"rule_fixture_{rule_id}": ({"fixture.py": source}, DEFAULT_LINT_CONFIG)
        for rule_id, source in sorted(test_rules.RULE_FIXTURES.items())
    }
    for name in ("R007_FILES", "R008_FILES", "R011_FILES"):
        trees[name] = (getattr(test_graph, name), DEFAULT_LINT_CONFIG)
    trees["R010_FILES"] = (test_graph.R010_FILES, test_graph.R010_CONFIG)
    trees["IncrementalCache_FILES"] = (
        test_graph.TestIncrementalCache.FILES,
        DEFAULT_LINT_CONFIG,
    )
    for rule_id in ("R012", "R013", "R014", "R015", "R016"):
        name = f"{rule_id}_FILES"
        trees[name] = (getattr(test_async_rules, name), DEFAULT_LINT_CONFIG)
    trees["R017_FILES"] = (test_taint_rules.TestR017OutputSink.FILES, DEFAULT_LINT_CONFIG)
    trees["EDGE_CASE_FILES"] = (EDGE_CASE_FILES, DEFAULT_LINT_CONFIG)
    return trees


def _outputs(files: dict[str, str], config) -> tuple[dict, dict]:
    """(report document, graph document) for one fixture tree."""
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        test_graph.write_tree(root, files)
        result = test_graph.graph_lint(root, config=config)
    report = json.loads(render_json(result.findings, [], result.files_scanned))
    return report, json.loads(dump_json(result.graph))


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def _dumps(document: dict) -> str:
    """The reporters' own serialization, so equality is byte equality."""
    return json.dumps(document, indent=2, sort_keys=True)


@pytest.mark.parametrize("name", sorted(_trees()))
def test_report_and_graph_are_pinned(name):
    files, config = _trees()[name]
    report, graph = _outputs(files, config)
    golden = _golden()
    expected_report = dict(golden["cases"][name]["report"], rules=golden["rules"])
    assert _dumps(report) == _dumps(expected_report)
    assert _dumps(graph) == _dumps(golden["cases"][name]["graph"])


def _record() -> None:
    cases = {}
    rules = None
    for name, (files, config) in sorted(_trees().items()):
        report, graph = _outputs(files, config)
        rules = report.pop("rules")
        cases[name] = {"report": report, "graph": graph}
        print(f"recorded {name}")
    document = {"rules": rules, "cases": cases}
    GOLDEN_PATH.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.analysis.test_golden_analyzer --write")
    _record()
