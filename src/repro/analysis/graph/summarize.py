"""Per-module summaries: what the whole-program pass needs from one file.

A :class:`ModuleSummary` is everything the call-graph layer knows about
a module — bindings, per-function call sites and direct effects, class
pickle hazards, ``ExecutionEngine.map_batches`` sites, referenced names, and the
suppression table — in a JSON-serializable form so summaries can be
content-hash cached across lint runs (see :mod:`.cache`).

Effect detection reuses the per-file machinery: literal dotted calls are
resolved through :meth:`~repro.analysis.context.ModuleContext.
resolve_dotted` (the same import-alias tables R001/R002 use) and
classified by :mod:`repro.analysis.effects`, so the two layers cannot
disagree about what counts as randomness or a clock read.  An effect on
a line carrying the corresponding per-file suppression (``R001`` for
RNG, ``R002`` for clock) is treated as *blessed* and not recorded — a
justified inline suppression extends to the whole-program rules.

Calls the module cannot resolve locally (a name imported from another
project module) are recorded as absolute dotted targets; the resolver in
:mod:`.callgraph` follows them through re-export chains — the exact
cross-module laundering the per-file rules are blind to.
"""

from __future__ import annotations

import ast
import dataclasses

from ..async_.summary import EMPTY_ASYNC_INFO, AsyncInfo, collect_async_info
from ..context import ModuleContext
from ..effects import clock_effect, rng_effect
from ..taint.summary import (
    EMPTY_TAINT_INFO,
    DataclassField,
    TaintInfo,
    collect_dataclass_fields,
    collect_taint_info,
)
from .symbols import Binding, collect_bindings, module_name_for

__all__ = [
    "CallTarget",
    "Effect",
    "Hazard",
    "PayloadItem",
    "MapSite",
    "FunctionSummary",
    "ClassSummary",
    "ModuleSummary",
    "summarize_module",
    "error_summary",
]

#: Current summary schema; bump to invalidate every cache entry.
#: v2 added the async/concurrency fields (``AsyncInfo`` per function,
#: constructor tables per class/module) consumed by R012-R016.
#: v3 added the secret-flow fields (``TaintInfo`` per function,
#: dataclass field tables per class) consumed by R017-R021.
#: v4 records ``map_batches`` pool sites (the only submission API).
SUMMARY_VERSION = 4


@dataclasses.dataclass(frozen=True)
class CallTarget:
    """One outgoing call (or callable reference) from a function.

    ``kind``: ``dotted`` (absolute dotted path through an import),
    ``local`` (same-module function/class, possibly ``Cls.method``) or
    ``self`` (method on the enclosing class).  ``ref`` marks a callable
    passed as an argument rather than called — a may-call edge.
    """

    kind: str
    target: str
    line: int
    ref: bool = False

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind, "target": self.target, "line": self.line}
        if self.ref:
            out["ref"] = True
        return out

    @staticmethod
    def from_dict(data: dict) -> "CallTarget":
        return CallTarget(
            kind=data["kind"],
            target=data["target"],
            line=data["line"],
            ref=data.get("ref", False),
        )


@dataclasses.dataclass(frozen=True)
class Effect:
    """A direct RNG/clock effect observed inside one function."""

    kind: str  # "rng" | "clock"
    detail: str  # offending dotted callable, e.g. "numpy.random.rand"
    line: int

    def to_dict(self) -> dict:
        return {"kind": self.kind, "detail": self.detail, "line": self.line}

    @staticmethod
    def from_dict(data: dict) -> "Effect":
        return Effect(kind=data["kind"], detail=data["detail"], line=data["line"])


@dataclasses.dataclass(frozen=True)
class Hazard:
    """A pickle hazard: an attribute or payload element that cannot
    cross a process boundary (open file, lambda, enabled handle)."""

    kind: str  # "open" | "lambda" | "instrumentation"
    attr: str  # attribute name for class hazards, "" for inline ones
    line: int

    def to_dict(self) -> dict:
        return {"kind": self.kind, "attr": self.attr, "line": self.line}

    @staticmethod
    def from_dict(data: dict) -> "Hazard":
        return Hazard(kind=data["kind"], attr=data["attr"], line=data["line"])


@dataclasses.dataclass(frozen=True)
class PayloadItem:
    """A named object packed into a pool payload, with the constructor
    call it was locally assigned from (when statically visible)."""

    name: str
    ctor: CallTarget | None
    line: int

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "ctor": self.ctor.to_dict() if self.ctor else None,
            "line": self.line,
        }

    @staticmethod
    def from_dict(data: dict) -> "PayloadItem":
        ctor = data.get("ctor")
        return PayloadItem(
            name=data["name"],
            ctor=CallTarget.from_dict(ctor) if ctor else None,
            line=data["line"],
        )


@dataclasses.dataclass(frozen=True)
class MapSite:
    """One ``ExecutionEngine.map_batches(fn, tasks)`` call site."""

    line: int
    func: str  # enclosing function qual ("" at class level)
    fn: CallTarget | None  # the task callable, when resolvable
    fn_lambda: bool
    payloads: tuple[PayloadItem, ...]
    hazards: tuple[Hazard, ...]  # inline payload hazards (lambda/open/...)

    def to_dict(self) -> dict:
        return {
            "line": self.line,
            "func": self.func,
            "fn": self.fn.to_dict() if self.fn else None,
            "fn_lambda": self.fn_lambda,
            "payloads": [p.to_dict() for p in self.payloads],
            "hazards": [h.to_dict() for h in self.hazards],
        }

    @staticmethod
    def from_dict(data: dict) -> "MapSite":
        fn = data.get("fn")
        return MapSite(
            line=data["line"],
            func=data["func"],
            fn=CallTarget.from_dict(fn) if fn else None,
            fn_lambda=data["fn_lambda"],
            payloads=tuple(PayloadItem.from_dict(p) for p in data["payloads"]),
            hazards=tuple(Hazard.from_dict(h) for h in data["hazards"]),
        )


@dataclasses.dataclass(frozen=True)
class FunctionSummary:
    """Calls out of, and effects inside, one function or method."""

    qual: str  # "name" or "Class.name"
    line: int
    public: bool
    calls: tuple[CallTarget, ...]
    effects: tuple[Effect, ...]
    async_info: AsyncInfo = EMPTY_ASYNC_INFO
    taint_info: TaintInfo = EMPTY_TAINT_INFO

    def to_dict(self) -> dict:
        out = {
            "qual": self.qual,
            "line": self.line,
            "public": self.public,
            "calls": [c.to_dict() for c in self.calls],
            "effects": [e.to_dict() for e in self.effects],
        }
        if not self.async_info.is_empty():
            out["async"] = self.async_info.to_dict()
        if not self.taint_info.is_empty():
            out["taint"] = self.taint_info.to_dict()
        return out

    @staticmethod
    def from_dict(data: dict) -> "FunctionSummary":
        return FunctionSummary(
            qual=data["qual"],
            line=data["line"],
            public=data["public"],
            calls=tuple(CallTarget.from_dict(c) for c in data["calls"]),
            effects=tuple(Effect.from_dict(e) for e in data["effects"]),
            async_info=AsyncInfo.from_dict(data.get("async", {})),
            taint_info=TaintInfo.from_dict(data.get("taint", {})),
        )


@dataclasses.dataclass(frozen=True)
class ClassSummary:
    name: str
    line: int
    public: bool
    methods: tuple[str, ...]
    hazards: tuple[Hazard, ...]
    #: (attr, constructor target, from_container) for every
    #: ``self.<attr> = Ctor(...)`` (or list/dict of ctor calls) in the
    #: class body — how the lock-set dataflow identifies lock attributes
    #: without baking lock-class names into the cached summary.
    attr_ctors: tuple[tuple[str, CallTarget, bool], ...] = ()
    #: Annotated fields of a ``@dataclass`` body — R021 checks the
    #: secret-named ones for ``field(repr=False)``.  Empty for ordinary
    #: classes.
    fields: tuple[DataclassField, ...] = ()

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "line": self.line,
            "public": self.public,
            "methods": list(self.methods),
            "hazards": [h.to_dict() for h in self.hazards],
            "attr_ctors": [
                {"attr": attr, "ctor": ctor.to_dict(), "container": container}
                for attr, ctor, container in self.attr_ctors
            ],
        }
        if self.fields:
            out["fields"] = [f.to_dict() for f in self.fields]
        return out

    @staticmethod
    def from_dict(data: dict) -> "ClassSummary":
        return ClassSummary(
            name=data["name"],
            line=data["line"],
            public=data["public"],
            methods=tuple(data["methods"]),
            hazards=tuple(Hazard.from_dict(h) for h in data["hazards"]),
            attr_ctors=tuple(
                (d["attr"], CallTarget.from_dict(d["ctor"]), d["container"])
                for d in data.get("attr_ctors", ())
            ),
            fields=tuple(
                DataclassField.from_dict(f) for f in data.get("fields", ())
            ),
        )


@dataclasses.dataclass(frozen=True)
class ModuleSummary:
    """Everything the program graph keeps about one module."""

    module: str
    path: str
    is_package: bool
    bindings: dict[str, Binding]
    exports: tuple[str, ...] | None
    functions: dict[str, FunctionSummary]
    classes: dict[str, ClassSummary]
    refs: tuple[str, ...]
    suppressions: dict[int, tuple[str, ...]]
    map_sites: tuple[MapSite, ...]
    #: Module-level ``NAME = Ctor(...)`` assignments, so a lock bound at
    #: module scope keeps one identity across every function using it.
    var_ctors: dict[str, CallTarget] = dataclasses.field(default_factory=dict)
    error: str | None = None

    def is_suppressed(self, line: int, rule_id: str) -> bool:
        rules = self.suppressions.get(line, ())
        return rule_id in rules or "all" in rules or "*" in rules

    def to_dict(self) -> dict:
        return {
            "version": SUMMARY_VERSION,
            "module": self.module,
            "path": self.path,
            "is_package": self.is_package,
            "bindings": {k: b.to_dict() for k, b in sorted(self.bindings.items())},
            "exports": list(self.exports) if self.exports is not None else None,
            "functions": {k: f.to_dict() for k, f in sorted(self.functions.items())},
            "classes": {k: c.to_dict() for k, c in sorted(self.classes.items())},
            "refs": list(self.refs),
            "suppressions": {str(k): list(v) for k, v in sorted(self.suppressions.items())},
            "map_sites": [m.to_dict() for m in self.map_sites],
            "var_ctors": {
                k: c.to_dict() for k, c in sorted(self.var_ctors.items())
            },
            "error": self.error,
        }

    @staticmethod
    def from_dict(data: dict) -> "ModuleSummary":
        return ModuleSummary(
            module=data["module"],
            path=data["path"],
            is_package=data["is_package"],
            bindings={k: Binding.from_dict(b) for k, b in data["bindings"].items()},
            exports=tuple(data["exports"]) if data["exports"] is not None else None,
            functions={
                k: FunctionSummary.from_dict(f) for k, f in data["functions"].items()
            },
            classes={k: ClassSummary.from_dict(c) for k, c in data["classes"].items()},
            refs=tuple(data["refs"]),
            suppressions={
                int(k): tuple(v) for k, v in data["suppressions"].items()
            },
            map_sites=tuple(MapSite.from_dict(m) for m in data["map_sites"]),
            var_ctors={
                k: CallTarget.from_dict(c)
                for k, c in data.get("var_ctors", {}).items()
            },
            error=data["error"],
        )


def error_summary(path: str, message: str) -> ModuleSummary:
    """Placeholder summary for a file that could not be analyzed."""
    module, is_package = module_name_for(path)
    return ModuleSummary(
        module=module,
        path=path,
        is_package=is_package,
        bindings={},
        exports=None,
        functions={},
        classes={},
        refs=(),
        suppressions={},
        map_sites=(),
        error=message,
    )


# ----------------------------------------------------------------------
# Summarization
# ----------------------------------------------------------------------


def _dotted_parts(expr: ast.expr) -> tuple[str, list[str]] | None:
    """(base name, attribute chain) for a plain dotted expression."""
    parts: list[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.reverse()
    return node.id, parts


def _classify_target(
    expr: ast.expr, bindings: dict[str, Binding], cls_name: str | None
) -> CallTarget | None:
    """Resolve a call/reference expression against the module bindings."""
    dotted = _dotted_parts(expr)
    if dotted is None:
        return None
    base, parts = dotted
    line = getattr(expr, "lineno", 0)
    if base == "self" and cls_name is not None and len(parts) == 1:
        return CallTarget("self", f"{cls_name}.{parts[0]}", line)
    binding = bindings.get(base)
    if binding is None:
        return None
    if binding.kind == "import":
        return CallTarget("dotted", ".".join([binding.target, *parts]), line)
    if binding.kind == "func" and not parts:
        return CallTarget("local", base, line)
    if binding.kind == "class":
        if not parts:
            return CallTarget("local", base, line)
        if len(parts) == 1:
            return CallTarget("local", f"{base}.{parts[0]}", line)
    return None


def _is_open_call(node: ast.Call, bindings: dict[str, Binding]) -> bool:
    func = node.func
    if isinstance(func, ast.Name) and func.id == "open" and "open" not in bindings:
        return True
    target = _classify_target(func, bindings, None)
    return target is not None and target.kind == "dotted" and target.target == "io.open"


def _is_enabled_instrumentation(target: CallTarget | None) -> bool:
    return (
        target is not None
        and target.target.endswith("Instrumentation.enabled")
    )


def _assign_map(func_node: ast.AST) -> dict[str, ast.expr]:
    """Simple local name → value-expression map (last assignment wins)."""
    assigns: dict[str, ast.expr] = {}
    for node in ast.walk(func_node):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    assigns[target.id] = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if isinstance(node.target, ast.Name):
                assigns[node.target.id] = node.value
    return assigns


class _CallableSummarizer:
    """Summarize one top-level function or method body."""

    def __init__(
        self,
        ctx: ModuleContext,
        bindings: dict[str, Binding],
        cls_name: str | None,
    ) -> None:
        self.ctx = ctx
        self.bindings = bindings
        self.cls_name = cls_name
        self.calls: list[CallTarget] = []
        self.effects: list[Effect] = []
        self.map_sites: list[MapSite] = []
        self._assigns: dict[str, ast.expr] = {}

    def run(self, func_node: ast.FunctionDef | ast.AsyncFunctionDef, qual: str) -> FunctionSummary:
        self._assigns = _assign_map(func_node)
        for node in ast.walk(func_node):
            if isinstance(node, ast.Call):
                self._visit_call(node, qual)
        async_info = collect_async_info(
            func_node,
            classify=lambda e: _classify_target(e, self.bindings, self.cls_name),
            resolve_dotted=self.ctx.resolve_dotted,
            is_open=lambda call: _is_open_call(call, self.bindings),
            assigns=self._assigns,
            cls_name=self.cls_name,
        )
        taint_info = collect_taint_info(
            func_node,
            classify=lambda e: _classify_target(e, self.bindings, self.cls_name),
            cls_name=self.cls_name,
        )
        return FunctionSummary(
            qual=qual,
            line=func_node.lineno,
            public=not func_node.name.startswith("_"),
            calls=tuple(self.calls),
            effects=tuple(self.effects),
            async_info=async_info,
            taint_info=taint_info,
        )

    # -- calls ----------------------------------------------------------

    def _visit_call(self, node: ast.Call, qual: str) -> None:
        if self._record_effect(node):
            return
        target = _classify_target(node.func, self.bindings, self.cls_name)
        if target is not None:
            self.calls.append(target)
        self._record_map_site(node, qual)
        self._record_callable_refs(node)

    def _record_effect(self, node: ast.Call) -> bool:
        """True when the call is a tracked external effect (recorded or
        blessed by a per-file suppression) — either way, not an edge."""
        resolved = self.ctx.resolve_dotted(node.func)
        if resolved is None:
            return False
        path = tuple(resolved)
        for kind, detail, per_file_rule in (
            ("rng", rng_effect(path), "R001"),
            ("clock", clock_effect(path), "R002"),
        ):
            if detail is None:
                continue
            if not self.ctx.is_suppressed(node, per_file_rule):
                self.effects.append(Effect(kind, detail, node.lineno))
            return True
        return False

    def _record_callable_refs(self, node: ast.Call) -> None:
        """Bare function names passed as arguments become may-call edges."""
        for arg in [*node.args, *[kw.value for kw in node.keywords]]:
            if not isinstance(arg, ast.Name):
                continue
            binding = self.bindings.get(arg.id)
            if binding is None or binding.kind not in ("func", "import"):
                continue
            target = _classify_target(arg, self.bindings, self.cls_name)
            if target is not None:
                self.calls.append(dataclasses.replace(target, ref=True))

    # -- ExecutionEngine.map_batches sites ------------------------------

    def _record_map_site(self, node: ast.Call, qual: str) -> None:
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "map_batches"):
            return
        if "engine" not in ast.unparse(func.value).lower():
            return
        fn_arg: ast.expr | None = node.args[0] if node.args else None
        payload_arg: ast.expr | None = node.args[1] if len(node.args) > 1 else None
        for keyword in node.keywords:
            if keyword.arg == "fn":
                fn_arg = keyword.value
            elif keyword.arg == "tasks":
                payload_arg = keyword.value
        fn_target = None
        fn_lambda = isinstance(fn_arg, ast.Lambda)
        if fn_arg is not None and not fn_lambda:
            fn_target = _classify_target(fn_arg, self.bindings, self.cls_name)
        payloads, hazards = self._analyze_payloads(payload_arg)
        self.map_sites.append(
            MapSite(
                line=node.lineno,
                func=qual,
                fn=fn_target,
                fn_lambda=fn_lambda,
                payloads=tuple(payloads),
                hazards=tuple(hazards),
            )
        )

    def _analyze_payloads(
        self, payload_arg: ast.expr | None
    ) -> tuple[list[PayloadItem], list[Hazard]]:
        if payload_arg is None:
            return [], []
        expr = payload_arg
        # A bare name: chase the local assignment that built the list.
        if isinstance(expr, ast.Name) and expr.id in self._assigns:
            expr = self._assigns[expr.id]
        payloads: list[PayloadItem] = []
        hazards: list[Hazard] = []
        seen: set[str] = set()
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Lambda):
                hazards.append(Hazard("lambda", "", sub.lineno))
            elif isinstance(sub, ast.Call):
                if _is_open_call(sub, self.bindings):
                    hazards.append(Hazard("open", "", sub.lineno))
                elif _is_enabled_instrumentation(
                    _classify_target(sub.func, self.bindings, self.cls_name)
                ):
                    hazards.append(Hazard("instrumentation", "", sub.lineno))
            elif isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                if sub.id in seen:
                    continue
                seen.add(sub.id)
                ctor_expr = self._assigns.get(sub.id)
                if isinstance(ctor_expr, ast.Call):
                    ctor = _classify_target(ctor_expr.func, self.bindings, self.cls_name)
                    if ctor is not None:
                        payloads.append(PayloadItem(sub.id, ctor, sub.lineno))
        return payloads, hazards


def _class_hazards(
    node: ast.ClassDef, bindings: dict[str, Binding]
) -> list[Hazard]:
    """``self.x = open(...)`` / lambda / ``Instrumentation.enabled()``
    anywhere in the class body."""
    hazards: list[Hazard] = []
    for sub in ast.walk(node):
        if not isinstance(sub, ast.Assign):
            continue
        for target in sub.targets:
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            value = sub.value
            if isinstance(value, ast.Lambda):
                hazards.append(Hazard("lambda", target.attr, sub.lineno))
            elif isinstance(value, ast.Call):
                if _is_open_call(value, bindings):
                    hazards.append(Hazard("open", target.attr, sub.lineno))
                elif _is_enabled_instrumentation(
                    _classify_target(value.func, bindings, None)
                ):
                    hazards.append(Hazard("instrumentation", target.attr, sub.lineno))
    return hazards


def _attr_ctors(
    node: ast.ClassDef, bindings: dict[str, Binding]
) -> tuple[tuple[str, CallTarget, bool], ...]:
    """``self.x = Ctor(...)`` (or a list/dict comprehension of ctor
    calls, as in sharded lock pools) anywhere in the class body.  First
    assignment per attribute wins."""
    out: dict[str, tuple[CallTarget, bool]] = {}
    for sub in ast.walk(node):
        if not isinstance(sub, ast.Assign):
            continue
        for target in sub.targets:
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            if target.attr in out:
                continue
            value = sub.value
            container = not isinstance(value, ast.Call)
            call = value if isinstance(value, ast.Call) else None
            if call is None:
                for inner in ast.walk(value):
                    if isinstance(inner, ast.Call):
                        call = inner
                        break
            if call is None:
                continue
            ctor = _classify_target(call.func, bindings, None)
            if ctor is not None:
                out[target.attr] = (ctor, container)
    return tuple(
        (attr, ctor, container)
        for attr, (ctor, container) in sorted(out.items())
    )


def _collect_var_ctors(
    tree: ast.Module, bindings: dict[str, Binding]
) -> dict[str, CallTarget]:
    """Module-level ``NAME = Ctor(...)`` assignments."""
    out: dict[str, CallTarget] = {}
    for node in tree.body:
        if not isinstance(node, ast.Assign) or not isinstance(node.value, ast.Call):
            continue
        ctor = _classify_target(node.value.func, bindings, None)
        if ctor is None:
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                out.setdefault(target.id, ctor)
    return out


def _collect_refs(tree: ast.Module) -> tuple[str, ...]:
    """Every identifier the module references: loaded names plus
    attribute names (the coarse usage relation R009 runs on)."""
    refs: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
    return tuple(sorted(refs))


def summarize_module(ctx: ModuleContext, path: str | None = None) -> ModuleSummary:
    """Build the whole-program summary of one parsed module."""
    report_path = path if path is not None else ctx.path
    module, is_package = module_name_for(report_path)
    bindings, exports = collect_bindings(ctx.tree, module, is_package)

    functions: dict[str, FunctionSummary] = {}
    classes: dict[str, ClassSummary] = {}
    map_sites: list[MapSite] = []
    for node in ctx.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            summarizer = _CallableSummarizer(ctx, bindings, None)
            functions[node.name] = summarizer.run(node, node.name)
            map_sites.extend(summarizer.map_sites)
        elif isinstance(node, ast.ClassDef):
            cls_public = not node.name.startswith("_")
            methods = []
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{node.name}.{sub.name}"
                    summarizer = _CallableSummarizer(ctx, bindings, node.name)
                    functions[qual] = summarizer.run(sub, qual)
                    map_sites.extend(summarizer.map_sites)
                    methods.append(sub.name)
            classes[node.name] = ClassSummary(
                name=node.name,
                line=node.lineno,
                public=cls_public,
                methods=tuple(methods),
                hazards=tuple(_class_hazards(node, bindings)),
                attr_ctors=_attr_ctors(node, bindings),
                fields=collect_dataclass_fields(node),
            )

    return ModuleSummary(
        module=module,
        path=report_path,
        is_package=is_package,
        bindings=bindings,
        exports=tuple(exports) if exports is not None else None,
        functions=functions,
        classes=classes,
        refs=_collect_refs(ctx.tree),
        suppressions=ctx.suppression_table(),
        map_sites=tuple(map_sites),
        var_ctors=_collect_var_ctors(ctx.tree, bindings),
    )
