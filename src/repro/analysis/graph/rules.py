"""The five whole-program rules (R007-R011).

Where R001-R006 inspect one module at a time, these run over the
assembled :class:`~repro.analysis.graph.callgraph.ProgramGraph` and
catch the cross-module shapes the per-file pass is structurally blind
to: effects laundered through re-exports and wrappers, dead public
surface, facade drift, and pickle hazards that only matter once an
object crosses a process boundary.  Findings carry call-chain evidence
(``a -> b -> c calls numpy.random.rand()``) with file:line per hop.
"""

from __future__ import annotations

from ..findings import Finding
from ..rulebase import GraphRule, register_graph
from .callgraph import ProgramGraph

__all__: list[str] = []

_HAZARD_TEXT = {
    "open": "an open file handle",
    "lambda": "a lambda",
    "instrumentation": "an enabled Instrumentation handle",
}


def _entry_points(graph: ProgramGraph) -> list[tuple[str, str, str, int]]:
    """(node_id, label, anchor_path, anchor_line) for every analysis
    entry point: ``ExecutionEngine.map_batches`` task payloads plus module-level
    ``run_*`` functions."""
    entries: list[tuple[str, str, str, int]] = []
    for module, summary in sorted(graph.modules.items()):
        for site in summary.map_sites:
            if site.fn is None:
                continue
            resolved = graph.resolve_target(module, site.fn)
            if resolved is None or resolved[0] != "func":
                continue
            node_id = resolved[1]
            entries.append(
                (
                    node_id,
                    f"ExecutionEngine.map_batches payload "
                    f"'{graph.dotted_name(node_id)}'",
                    summary.path,
                    site.line,
                )
            )
        for qual, fn in sorted(summary.functions.items()):
            if "." not in qual and qual.startswith("run_"):
                node_id = f"{module}:{qual}"
                entries.append(
                    (
                        node_id,
                        f"entry point '{graph.dotted_name(node_id)}'",
                        summary.path,
                        fn.line,
                    )
                )
    return entries


@register_graph
class TransitiveRandomnessRule(GraphRule):
    id = "R007"
    title = "unseeded randomness reachable from a pool payload or entry point"
    example = "def jitter(): return random.random()  # called by a task fn"
    rationale = """A task function handed to ExecutionEngine.map_batches (or a
    run_* protocol entry point) must be deterministic given its payload; a helper
    that draws from global RNG state two calls away breaks pool==serial
    bit-identity just as surely as a direct call — and per-file R001 cannot
    see through project imports.  The finding's evidence lists the call
    chain, one file:line per hop."""

    def run(self, graph: ProgramGraph) -> list[Finding]:
        seen: set[tuple[str, int, str]] = set()
        for node_id, label, path, line in _entry_points(graph):
            if "rng" not in graph.transitive.get(node_id, {}):
                continue
            key = (path, line, node_id)
            if key in seen:
                continue
            seen.add(key)
            self.report(
                graph,
                path,
                line,
                f"{label} transitively reaches unseeded randomness: "
                f"{graph.chain_summary(node_id, 'rng')}",
                evidence=tuple(graph.effect_chain(node_id, "rng")),
            )
        return self.findings


@register_graph
class TransitiveWallClockRule(GraphRule):
    id = "R008"
    title = "transitive wall-clock reachability outside the clock allowlist"
    example = "def stamp(): return time.time()  # reached from run_experiment"
    rationale = """R002 flags a literal time.time() in the module that imports
    time — but a read laundered through a re-exported alias or a wrapper in
    another module resolves to nothing the per-file pass can see.  This rule
    follows imports and call edges project-wide: any cross-module route to
    the real clock that does not pass through the allowlisted clock modules
    (the obs.clock abstraction and the historical engine/perf.py) is
    reported with its full call chain."""

    def run(self, graph: ProgramGraph) -> list[Finding]:
        reported: set[tuple[str, int]] = set()
        for node_id in sorted(graph.nodes):
            info = graph.nodes[node_id]
            if graph.is_allowlisted_clock_module(info.path):
                continue
            # (a) clock reads reached through a cross-module alias: the
            # per-file pass could not resolve these at all.
            for kind, detail, line, provenance in graph.direct_effects.get(node_id, ()):
                if kind != "clock" or provenance != "cross":
                    continue
                if (info.path, line) in reported:
                    continue
                reported.add((info.path, line))
                self.report(
                    graph,
                    info.path,
                    line,
                    f"wall-clock read {detail}() reached through a cross-module "
                    "alias; route timing through the obs.clock abstraction",
                    evidence=(
                        f"{info.dotted} calls {detail}() ({info.path}:{line})",
                    ),
                )
            # (b) calls into clock-tainted functions in other modules.
            for edge in graph.edges.get(node_id, ()):
                callee = graph.nodes.get(edge.callee)
                if callee is None or callee.module == info.module:
                    continue
                if "clock" not in graph.transitive.get(edge.callee, {}):
                    continue
                if (info.path, edge.line) in reported:
                    continue
                reported.add((info.path, edge.line))
                self.report(
                    graph,
                    info.path,
                    edge.line,
                    f"call into '{callee.dotted}' transitively reaches the wall "
                    f"clock outside the allowlist: "
                    f"{graph.chain_summary(edge.callee, 'clock')}",
                    evidence=(
                        f"{info.dotted} -> {callee.dotted} ({info.path}:{edge.line})",
                        *graph.effect_chain(edge.callee, "clock"),
                    ),
                )
        return self.findings


@register_graph
class UnreachablePublicRule(GraphRule):
    id = "R009"
    title = "public function referenced only from tests, or not at all"
    example = "def legacy_helper(...):  # exported, referenced nowhere"
    rationale = """A public function no program code calls — not the CLI, not a
    run_* protocol, not an example — is surface that only exists to be
    tested, and it silently rots (its determinism contracts guard nothing
    that ships).  A reference from a test module does not count as a use.
    Either wire it to a caller, drop it with its tests, or suppress with a
    justification.  The usage relation is deliberately coarse (any name or
    attribute reference in a non-test module counts) so dynamic dispatch
    cannot produce false positives."""

    #: Method prefixes invoked by frameworks rather than by name.
    _FRAMEWORK_PREFIXES = ("visit_",)

    def run(self, graph: ProgramGraph) -> list[Finding]:
        packages = frozenset(graph.config.project_packages)
        for node_id in sorted(graph.nodes):
            info = graph.nodes[node_id]
            if info.module.split(".")[0] not in packages:
                continue
            if not info.public:
                continue
            summary = graph.modules[info.module]
            name = info.qual.split(".")[-1]
            if "." in info.qual:
                cls = summary.classes.get(info.qual.split(".")[0])
                if cls is None or not cls.public:
                    continue
            if name.startswith(self._FRAMEWORK_PREFIXES):
                continue
            if name in graph.global_refs:
                continue
            self.report(
                graph,
                info.path,
                info.line,
                f"public function '{info.dotted}' is never referenced outside "
                "tests — dead public surface",
            )
        return self.findings


def _symbol_exists(graph: ProgramGraph, dotted: str, depth: int = 0) -> bool | None:
    """Whether ``dotted`` names something real: True / False / None
    (outside the analyzed file set, so unknowable)."""
    if depth > 20:
        return None
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        prefix = ".".join(parts[:i])
        if prefix not in graph.modules:
            continue
        rest = parts[i:]
        if not rest:
            return True  # the module object itself
        summary = graph.modules[prefix]
        if summary.error is not None:
            return None
        binding = summary.bindings.get(rest[0])
        if binding is None:
            return False
        if binding.kind == "import":
            return _symbol_exists(
                graph, ".".join([binding.target, *rest[1:]]), depth + 1
            )
        if len(rest) == 1:
            return True
        return None  # attribute of a class/var: not statically tracked
    return None


@register_graph
class FacadeDriftRule(GraphRule):
    id = "R010"
    title = "repro.api facade drift"
    example = "__all__ = [..., 'run_sweep']  # name the facade never re-exports"
    rationale = """The facade is the compatibility promise: every name it
    re-exports must still exist in the owning module, every __all__ entry
    must be bound, and every project re-export must be listed in __all__ —
    otherwise the documented surface and the real one drift apart in
    whichever direction nobody is looking."""

    def run(self, graph: ProgramGraph) -> list[Finding]:
        facade = None
        for summary in graph.modules.values():
            if summary.path.endswith(graph.config.facade):
                facade = summary
                break
        if facade is None or facade.error is not None:
            return self.findings
        exports = set(facade.exports or ())
        exports_line = (
            facade.bindings["__all__"].line if "__all__" in facade.bindings else 1
        )
        project_tops = frozenset(m.split(".")[0] for m in graph.modules)

        for name, binding in sorted(facade.bindings.items()):
            if binding.kind != "import":
                continue
            if binding.target.split(".")[0] not in project_tops:
                continue
            exists = _symbol_exists(graph, binding.target)
            if exists is False:
                self.report(
                    graph,
                    facade.path,
                    binding.line,
                    f"facade re-exports '{name}' from '{binding.target.rsplit('.', 1)[0]}', "
                    "which no longer defines it",
                )
            if name not in exports:
                self.report(
                    graph,
                    facade.path,
                    binding.line,
                    f"facade imports '{name}' but omits it from __all__ "
                    "(undocumented re-export)",
                )
            self._check_source_all(graph, facade, name, binding)

        bound = set(facade.bindings)
        for name in sorted(exports):
            if name not in bound:
                self.report(
                    graph,
                    facade.path,
                    exports_line,
                    f"facade __all__ exports '{name}' but never binds it",
                )
        return self.findings

    def _check_source_all(self, graph, facade, name, binding) -> None:
        """A re-exported name should be part of the owning module's own
        public surface (its __all__, when it declares one)."""
        parts = binding.target.split(".")
        for i in range(len(parts) - 1, 0, -1):
            prefix = ".".join(parts[:i])
            if prefix not in graph.modules:
                continue
            source = graph.modules[prefix]
            symbol = parts[i]
            if source.exports is not None and symbol not in source.exports:
                self.report(
                    graph,
                    facade.path,
                    binding.line,
                    f"facade re-exports '{name}' but '{symbol}' is not in "
                    f"{prefix}.__all__ (not part of that module's public surface)",
                )
            return


@register_graph
class PoolPayloadPickleRule(GraphRule):
    id = "R011"
    title = "unpicklable object packed into a pool payload"
    example = "payloads = [(clip, self._lock) for clip in clips]"
    rationale = """ExecutionEngine.map_batches pickles every payload element to
    the worker processes.  An object whose class stores an open file, a lambda,
    or an enabled Instrumentation handle pickles fine in serial tests and
    explodes only at --jobs > 1 — and when the class lives in another
    module, per-file R003 cannot connect the two.  Enabled handles are
    process-local by design; workers must build their own."""

    def run(self, graph: ProgramGraph) -> list[Finding]:
        for module, summary in sorted(graph.modules.items()):
            for site in summary.map_sites:
                for hazard in site.hazards:
                    self.report(
                        graph,
                        summary.path,
                        hazard.line,
                        f"pool payload contains {_HAZARD_TEXT[hazard.kind]}; "
                        "it cannot be pickled to worker processes",
                    )
                for item in site.payloads:
                    self._check_payload_item(graph, summary, site, item)
        return self.findings

    def _check_payload_item(self, graph, summary, site, item) -> None:
        ctor = item.ctor
        if ctor is None:
            return
        if ctor.target.endswith("Instrumentation.enabled"):
            self.report(
                graph,
                summary.path,
                site.line,
                f"'{item.name}' is an enabled Instrumentation handle packed "
                "into a pool payload; enabled handles are process-local and "
                "refuse to pickle — build one inside the worker instead",
            )
            return
        resolved = graph.resolve_target(summary.module, ctor)
        if resolved is None or resolved[0] != "class":
            return
        _, cls_module, cls_name = resolved
        cls = graph.modules[cls_module].classes.get(cls_name)
        if cls is None:
            return
        cls_path = graph.modules[cls_module].path
        for hazard in cls.hazards:
            self.report(
                graph,
                summary.path,
                site.line,
                f"'{item.name}' ({cls_module}.{cls_name}) flows into a pool "
                f"payload but its class holds {_HAZARD_TEXT[hazard.kind]} "
                f"in self.{hazard.attr} ({cls_path}:{hazard.line}); it cannot "
                "cross the process boundary",
                evidence=(
                    f"{summary.module}.{site.func or '<module>'} packs '{item.name}' "
                    f"({summary.path}:{site.line})",
                    f"{cls_module}.{cls_name}.self.{hazard.attr} = "
                    f"{_HAZARD_TEXT[hazard.kind]} ({cls_path}:{hazard.line})",
                ),
            )
