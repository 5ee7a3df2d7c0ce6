"""The program graph: symbol resolution, edges, fixed-point effects.

Built from :class:`~repro.analysis.graph.summarize.ModuleSummary`
objects only — never from re-parsed source — so a graph over cached
summaries is bit-identical to one over fresh ones.

Resolution follows dotted targets through project modules *including
re-export chains* (``from time import perf_counter as timer`` in a util
module makes ``util.timer`` resolve to the external ``time.
perf_counter``), which is exactly the laundering per-file rules cannot
see.  A dotted path that bottoms out in an external module is classified
by :mod:`repro.analysis.effects`; one that bottoms out at a project
function becomes a call edge.

Effect propagation is a deterministic fixed point: a function's
transitive effect set is its direct effects plus the union over its
callees, with one mask — wall-clock effects never propagate out of the
allowlisted clock modules (they are the blessed sites).  Each propagated
effect remembers the call edge it arrived through, so every finding can
print an ``a -> b -> c calls time.time()`` chain with file:line per hop.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from ..config import DEFAULT_LINT_CONFIG, LintConfig
from ..context import is_test_path
from ..effects import call_effect
from .summarize import CallTarget, ModuleSummary

__all__ = ["NodeInfo", "Edge", "ProgramGraph", "build_graph", "propagate"]

_MAX_RESOLVE_DEPTH = 20


@dataclasses.dataclass(frozen=True)
class NodeInfo:
    """One function or method in the program."""

    node_id: str  # "module.path:qual"
    module: str
    qual: str
    path: str
    line: int
    public: bool

    @property
    def dotted(self) -> str:
        return f"{self.module}.{self.qual}"


@dataclasses.dataclass(frozen=True)
class Edge:
    caller: str
    callee: str
    line: int
    ref: bool  # True for a callable passed as an argument (may-call)


#: A direct effect: (kind, detail, line, provenance) where provenance is
#: "local" (visible to the per-file rules) or "cross" (discovered only
#: by following imports across modules).
DirectEffect = tuple[str, str, int, str]

#: Transitive-effect origin: ("direct", detail, line) at the primitive,
#: or ("call", callee_node_id, call_line) one hop toward it.
Origin = tuple[str, str, int]


class ProgramGraph:
    """Whole-program symbol table, call graph and effect closure."""

    def __init__(self, config: LintConfig) -> None:
        self.config = config
        self.modules: dict[str, ModuleSummary] = {}
        self.by_path: dict[str, ModuleSummary] = {}
        self.nodes: dict[str, NodeInfo] = {}
        self.edges: dict[str, tuple[Edge, ...]] = {}
        self.direct_effects: dict[str, tuple[DirectEffect, ...]] = {}
        self.transitive: dict[str, dict[str, Origin]] = {}
        self.global_refs: frozenset[str] = frozenset()
        #: First component of every module name; a dotted path whose head
        #: is not among them leaves the project.  Set by :func:`build_graph`
        #: once the module table is loaded.
        self.top_packages: frozenset[str] = frozenset()
        #: ``(path, line, token)`` suppression declarations that silenced
        #: a graph-rule diagnostic; merged with the per-file contexts'
        #: usage sets when the linter computes W001.
        self.suppression_uses: set[tuple[str, int, str]] = set()

    # ------------------------------------------------------------------
    # Symbol resolution
    # ------------------------------------------------------------------

    def resolve_dotted(self, dotted: str, _depth: int = 0) -> tuple | None:
        """Resolve an absolute dotted path to its terminal.

        Returns ("func", node_id), ("class", module, name),
        ("external", parts) for paths leaving the project, or None when
        unresolvable (deleted symbol, module object, dynamic binding).
        """
        if _depth > _MAX_RESOLVE_DEPTH:
            return None
        parts = dotted.split(".")
        for i in range(len(parts) - 1, 0, -1):
            prefix = ".".join(parts[:i])
            if prefix in self.modules:
                return self._resolve_in_module(prefix, parts[i:], _depth)
        if parts[0] not in self.top_packages:
            return ("external", tuple(parts))
        return None

    def _resolve_in_module(
        self, module: str, sym_parts: list[str], depth: int
    ) -> tuple | None:
        summary = self.modules[module]
        binding = summary.bindings.get(sym_parts[0])
        if binding is None:
            return None
        if binding.kind == "func":
            if len(sym_parts) == 1 and sym_parts[0] in summary.functions:
                return ("func", f"{module}:{sym_parts[0]}")
            return None
        if binding.kind == "class":
            if len(sym_parts) == 1:
                return ("class", module, sym_parts[0])
            if len(sym_parts) == 2:
                qual = f"{sym_parts[0]}.{sym_parts[1]}"
                if qual in summary.functions:
                    return ("func", f"{module}:{qual}")
            return None
        if binding.kind == "import":
            target = ".".join([binding.target, *sym_parts[1:]])
            return self.resolve_dotted(target, depth + 1)
        return None

    def resolve_target(self, module: str, target: CallTarget) -> tuple | None:
        """Resolve a summarized call target from its defining module."""
        if target.kind == "dotted":
            return self.resolve_dotted(target.target)
        summary = self.modules.get(module)
        if summary is None:
            return None
        if target.kind == "self":
            if target.target in summary.functions:
                return ("func", f"{module}:{target.target}")
            return None
        # kind == "local": a function, class, or Class.method name.
        if target.target in summary.functions:
            return ("func", f"{module}:{target.target}")
        name = target.target.split(".")[0]
        if name in summary.classes:
            if "." not in target.target:
                return ("class", module, name)
            if target.target in summary.functions:
                return ("func", f"{module}:{target.target}")
        return None

    # ------------------------------------------------------------------
    # Queries used by the rules and the dump
    # ------------------------------------------------------------------

    def is_allowlisted_clock_module(self, path: str) -> bool:
        return path.endswith(tuple(self.config.wall_clock_allowlist))

    def is_suppressed(self, path: str, line: int, rule_id: str) -> bool:
        summary = self.by_path.get(path)
        if summary is None:
            return False
        rules = summary.suppressions.get(line, ())
        hit = False
        for token in (rule_id, "all", "*"):
            if token in rules:
                self.suppression_uses.add((path, line, token))
                hit = True
        return hit

    def dotted_name(self, node_id: str) -> str:
        return self.nodes[node_id].dotted

    def _origin_walk(self, node_id: str, kind: str):
        """``(node, origin)`` per hop from ``node_id`` toward the primitive."""
        current = node_id
        for _ in range(len(self.nodes) + 1):
            origin = self.transitive.get(current, {}).get(kind)
            if origin is None:
                return
            yield current, origin
            if origin[0] == "direct":
                return
            current = origin[1]

    def effect_chain(self, node_id: str, kind: str) -> list[str]:
        """Human-readable hop list from ``node_id`` to the primitive.

        Each entry is one hop with its file:line; the last entry names
        the offending external callable.
        """
        hops: list[str] = []
        for current, (how, target, line) in self._origin_walk(node_id, kind):
            info = self.nodes[current]
            if how == "direct":
                hops.append(f"{info.dotted} calls {target}() ({info.path}:{line})")
            else:
                hops.append(
                    f"{info.dotted} -> {self.dotted_name(target)} ({info.path}:{line})"
                )
        return hops

    def chain_summary(self, node_id: str, kind: str) -> str:
        """Compact ``a -> b -> primitive()`` form for messages."""
        names = [self.dotted_name(node_id)]
        for _, (how, target, _line) in self._origin_walk(node_id, kind):
            names.append(f"{target}()" if how == "direct" else self.dotted_name(target))
        return " -> ".join(names)


def _local_direct_effects(
    summary: ModuleSummary, allowlisted: bool
) -> dict[str, list[DirectEffect]]:
    """Summarize-time effects per function, with the clock allowlist
    mask applied (blessed modules may read the clock)."""
    out: dict[str, list[DirectEffect]] = {}
    for qual, fn in summary.functions.items():
        effects = []
        for effect in fn.effects:
            if effect.kind == "clock" and allowlisted:
                continue
            effects.append((effect.kind, effect.detail, effect.line, "local"))
        out[qual] = effects
    return out


def build_graph(
    summaries: list[ModuleSummary],
    config: LintConfig = DEFAULT_LINT_CONFIG,
) -> ProgramGraph:
    """Assemble the program graph and run effect propagation to a fixed
    point.  Deterministic: iteration orders are sorted throughout."""
    graph = ProgramGraph(config)
    for summary in sorted(summaries, key=lambda s: s.path):
        graph.modules[summary.module] = summary
        graph.by_path[summary.path] = summary
    graph.top_packages = frozenset(m.split(".")[0] for m in graph.modules)

    # A reference from a test module is not a use: R009 reads this set.
    refs: set[str] = set()
    for summary in graph.modules.values():
        if not is_test_path(summary.path):
            refs.update(summary.refs)
    graph.global_refs = frozenset(refs)

    # Nodes first (edges need every callee to exist).
    for module, summary in sorted(graph.modules.items()):
        for qual, fn in sorted(summary.functions.items()):
            node_id = f"{module}:{qual}"
            graph.nodes[node_id] = NodeInfo(
                node_id=node_id,
                module=module,
                qual=qual,
                path=summary.path,
                line=fn.line,
                public=fn.public,
            )

    # Edges plus graph-time direct effects (import-chain terminals).
    for module, summary in sorted(graph.modules.items()):
        allowlisted = graph.is_allowlisted_clock_module(summary.path)
        local_effects = _local_direct_effects(summary, allowlisted)
        for qual, fn in sorted(summary.functions.items()):
            node_id = f"{module}:{qual}"
            edges: list[Edge] = []
            effects = local_effects[qual]
            for call in fn.calls:
                resolved = graph.resolve_target(module, call)
                if resolved is None:
                    continue
                if resolved[0] == "func":
                    edges.append(Edge(node_id, resolved[1], call.line, call.ref))
                elif resolved[0] == "class":
                    init = f"{resolved[2]}.__init__"
                    init_id = f"{resolved[1]}:{init}"
                    if init_id in graph.nodes:
                        edges.append(Edge(node_id, init_id, call.line, call.ref))
                elif resolved[0] == "external":
                    effect = call_effect(resolved[1])
                    if effect is not None and not (effect[0] == "clock" and allowlisted):
                        effects.append((*effect, call.line, "cross"))
            unique = sorted(set(edges), key=lambda e: (e.callee, e.line, e.ref))
            graph.edges[node_id] = tuple(unique)
            graph.direct_effects[node_id] = tuple(
                sorted(set(effects), key=lambda e: (e[0], e[2], e[1]))
            )

    _propagate(graph)
    return graph


def propagate(graph: ProgramGraph, step: Callable[[Edge], bool]) -> None:
    """The one round-robin fixed-point solver over the call edges.

    Each round visits every caller in sorted order and every out-edge in
    its stored order, applying ``step`` (which returns True when it grew
    a fact); rounds repeat until one changes nothing.  Facts
    must only grow over a finite lattice, so the loop terminates, and
    the fixed visiting order makes any first-assignment evidence
    deterministic.
    """
    order = sorted(graph.nodes)
    changed = True
    while changed:
        changed = False
        for caller in order:
            for edge in graph.edges.get(caller, ()):
                if step(edge):
                    changed = True


def _propagate(graph: ProgramGraph) -> None:
    """Fixed-point transitive effects, recording one origin per (node,
    kind).  First assignment in sorted order wins and is never replaced,
    so the chosen evidence chains are deterministic."""
    transitive: dict[str, dict[str, Origin]] = {}
    for node_id in sorted(graph.nodes):
        origins: dict[str, Origin] = {}
        for kind, detail, line, _provenance in graph.direct_effects.get(node_id, ()):
            if kind not in origins:
                origins[kind] = ("direct", detail, line)
        transitive[node_id] = origins

    def step(edge: Edge) -> bool:
        callee_info = graph.nodes.get(edge.callee)
        if callee_info is None:
            return False
        callee_allowlisted = graph.is_allowlisted_clock_module(callee_info.path)
        changed = False
        for kind in sorted(transitive.get(edge.callee, ())):
            if kind == "clock" and callee_allowlisted:
                continue  # blessed clock modules don't taint callers
            if kind not in transitive[edge.caller]:
                transitive[edge.caller][kind] = ("call", edge.callee, edge.line)
                changed = True
        return changed

    propagate(graph, step)
    graph.transitive = transitive
