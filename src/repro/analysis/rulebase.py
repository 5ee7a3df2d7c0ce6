"""Rule framework: base classes, metadata, and the registry.

A per-file rule is a :class:`Rule` with identity metadata (id, title,
rationale) and one :meth:`Rule.check` that *queries* the module's
:class:`~.context.ModuleContext`: the context has already walked the
tree once and indexed it (calls, compares, asserts, defs and lambdas,
class defs, scopes, resolved callees), so a rule loops over the lists
it needs and never traverses the tree itself.  Rules are registered
with :func:`register` at import time; the linter instantiates every
registered rule once per module and runs it.  ``report`` funnels every
diagnostic through the context's suppression check, so inline
``# reprolint: disable=`` comments work uniformly across rules.

Adding a rule:

1. subclass :class:`Rule`, set ``id`` (``Rxxx``), ``title`` and
   ``rationale``;
2. implement ``check`` over the context's index (add a table to the
   index pass in :mod:`.context` if none fits), calling
   ``self.report(node, message)``;
3. decorate with ``@register``;
4. add a fixture snippet to ``tests/analysis/test_rules.py`` that
   triggers it exactly once.
"""

from __future__ import annotations

import ast

from .context import ModuleContext
from .findings import Finding

__all__ = [
    "Rule",
    "GraphRule",
    "explain_rule",
    "register",
    "register_graph",
    "registered_rules",
    "registered_graph_rules",
    "registered_rule_ids",
    "rule_category",
    "rule_metadata",
]


class Rule:
    """Base class for one reprolint rule over one module."""

    id: str = ""
    title: str = ""
    rationale: str = ""
    #: One-line offending snippet shown by ``repro lint --explain``.
    example: str = ""
    category: str = "per-file"

    def __init__(self, ctx: ModuleContext) -> None:
        self.ctx = ctx
        self.findings: list[Finding] = []

    def run(self) -> list[Finding]:
        self.check()
        return self.findings

    def check(self) -> None:
        """Query ``self.ctx`` and report every offending node."""
        raise NotImplementedError

    def report(self, node: ast.AST, message: str) -> None:
        if self.ctx.is_suppressed(node, self.id):
            return
        lineno = getattr(node, "lineno", 1)
        self.findings.append(
            Finding(
                path=self.ctx.path,
                line=lineno,
                col=getattr(node, "col_offset", 0) + 1,
                rule=self.id,
                message=message,
                snippet=self.ctx.snippet_at(lineno),
                end_line=getattr(node, "end_lineno", lineno) or lineno,
            )
        )


class GraphRule:
    """Base class for one whole-program (interprocedural) rule.

    Unlike :class:`Rule`, a graph rule runs once over the assembled
    :class:`~repro.analysis.graph.callgraph.ProgramGraph` rather than
    once per module; it anchors each finding at a concrete file/line and
    must route it through :meth:`report` so inline suppressions keep
    working.  Findings may carry an ``evidence`` tuple — one call-chain
    hop per entry, each with its own file:line.
    """

    id: str = ""
    title: str = ""
    rationale: str = ""
    #: One-line offending snippet shown by ``repro lint --explain``.
    example: str = ""
    category: str = "whole-program"

    def __init__(self) -> None:
        self.findings: list[Finding] = []

    def run(self, graph) -> list[Finding]:  # graph: ProgramGraph
        raise NotImplementedError

    def report(
        self,
        graph,
        path: str,
        line: int,
        message: str,
        snippet: str = "",
        evidence: tuple[str, ...] = (),
    ) -> None:
        if graph.is_suppressed(path, line, self.id):
            return
        self.findings.append(
            Finding(
                path=path,
                line=line,
                col=1,
                rule=self.id,
                message=message,
                snippet=snippet,
                end_line=line,
                evidence=evidence,
            )
        )


_REGISTRY: dict[str, type[Rule]] = {}
_GRAPH_REGISTRY: dict[str, type[GraphRule]] = {}


def _register_into(registry: dict, rule_cls):
    if not rule_cls.id:
        raise ValueError(f"rule {rule_cls.__name__} has no id")
    if rule_cls.id in _REGISTRY or rule_cls.id in _GRAPH_REGISTRY:
        raise ValueError(f"duplicate rule id {rule_cls.id}")
    registry[rule_cls.id] = rule_cls
    return rule_cls


def register(rule_cls: type[Rule]) -> type[Rule]:
    return _register_into(_REGISTRY, rule_cls)


def register_graph(rule_cls: type[GraphRule]) -> type[GraphRule]:
    return _register_into(_GRAPH_REGISTRY, rule_cls)


def registered_rules() -> list[type[Rule]]:
    """All per-file rules, in id order."""
    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def registered_graph_rules() -> list[type[GraphRule]]:
    """All whole-program rules, in id order."""
    return [_GRAPH_REGISTRY[rule_id] for rule_id in sorted(_GRAPH_REGISTRY)]


def registered_rule_ids() -> frozenset[str]:
    """Every registered rule id — what ``disable=`` comments and
    ``[tool.reprolint.rules.*]`` tables may legally name."""
    return frozenset(_REGISTRY) | frozenset(_GRAPH_REGISTRY)


def rule_category(rule_id: str) -> str:
    """The category of a registered rule; meta/error ids (``W...``,
    ``E000``) are synthesized by the linter, not registered here."""
    cls = _REGISTRY.get(rule_id) or _GRAPH_REGISTRY.get(rule_id)
    if cls is not None:
        return cls.category
    if rule_id.startswith("W"):
        return "meta"
    return "error"


def _metadata(cls) -> dict[str, str]:
    return {
        "id": cls.id,
        "title": cls.title,
        "category": cls.category,
        "rationale": " ".join(cls.rationale.split()),
        "example": cls.example,
    }


def rule_metadata() -> list[dict[str, str]]:
    """JSON-friendly rule table (id, title, category, rationale,
    example), per-file and graph rules interleaved in id order."""
    merged = {**_REGISTRY, **_GRAPH_REGISTRY}
    return [_metadata(merged[rule_id]) for rule_id in sorted(merged)]


#: Diagnostics the linter synthesizes outside the registry (suppression
#: hygiene), described here so ``--explain`` covers every id a report
#: can carry.
_META_METADATA: dict[str, dict[str, str]] = {
    "W001": {
        "id": "W001",
        "title": "suppression silences nothing",
        "category": "meta",
        "rationale": (
            "A '# reprolint: disable=' comment whose rule no longer fires "
            "on that line is dead weight today and camouflage for a real "
            "finding tomorrow — delete it."
        ),
        "example": "x = 1.0  # reprolint: disable=R004  <- no comparison here",
    },
    "W002": {
        "id": "W002",
        "title": "unknown rule id in a suppression or config table",
        "category": "meta",
        "rationale": (
            "A suppression (or [tool.reprolint.rules.*] table) naming an id "
            "no rule has silences nothing and usually means a typo is "
            "letting the intended rule fire elsewhere."
        ),
        "example": "tag = compute()  # reprolint: disable=R099",
    },
}


def explain_rule(rule_id: str) -> dict[str, str] | None:
    """Full metadata for one rule id (registered or meta), or None."""
    cls = _REGISTRY.get(rule_id) or _GRAPH_REGISTRY.get(rule_id)
    if cls is not None:
        return _metadata(cls)
    return _META_METADATA.get(rule_id)
