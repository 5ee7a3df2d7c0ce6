"""Per-module summaries: the one fact pass behind every whole-program rule.

A :class:`ModuleSummary` is everything the graph layer knows about a
module — bindings, per-function call sites and direct effects, class
pickle hazards, ``ExecutionEngine.map_batches`` sites, the concurrency
facts (:class:`AsyncInfo`) and secret-flow facts (:class:`TaintInfo`)
of every function, referenced names, and the suppression table.  The
records are plain frozen dataclasses; :mod:`.codec` turns them into
JSON and back so summaries can be content-hash cached across lint runs
(see :mod:`.cache`).

**One fact pass.**  Each top-level function or method body is walked
once.  A prepass over the walked nodes collects the local assignment
map and the ``global`` names; one recording pass then hands every node
to the recorders:

* **calls** — call edges, direct RNG/clock effects, ``map_batches``
  sites and callables passed as arguments (may-call edges);
* **concurrency** (R012-R016) — await sites with their timeout status,
  ``with``/``async with`` regions whose context expression *shapes*
  like a lock, ``spawn``/``run`` sites, blocking calls, writes to
  ``self.<attr>`` and declared globals, and the ``return self.<attr>``
  getter shape.  Whether a shape really is a lock is decided at graph
  time against the constructor tables (``ClassSummary.attr_ctors``,
  ``ModuleSummary.var_ctors``), so summaries stay config-independent;
* **secret flow** (R017-R021) — assignments, returns, candidate sink
  calls, raise/assert messages and ``==`` compares, each as a flattened
  :class:`ValueExpr`.  Nothing here decides what is secret: the taint
  model does that at graph time against ``[tool.reprolint.taint]``, so
  summaries stay cache-stable across policy edits.

The fact pass reads the per-file rules' index: a function's nodes are
its :class:`~repro.analysis.context.ModuleContext` node list (in
``ast.walk`` order), and each call's callee path and RNG/clock class
come from :meth:`~repro.analysis.context.ModuleContext.resolve_call` —
the one answer R001/R002 read too, so the two layers cannot disagree.
An effect on a line carrying the corresponding per-file suppression
(``R001`` for RNG, ``R002`` for clock) is treated as *blessed* and not
recorded — a justified inline suppression extends to the whole-program
rules.  The referenced names come from the same index.

Calls the module cannot resolve locally (a name imported from another
project module) are recorded as absolute dotted targets; the resolver in
:mod:`.callgraph` follows them through re-export chains — the exact
cross-module laundering the per-file rules are blind to.
"""

from __future__ import annotations

import ast
import dataclasses

from ..context import ModuleContext
from ..effects import callee_name, dotted_parts, first_call_in, is_dataclass, map_batches_args
from .symbols import Binding, collect_bindings, module_name_for

__all__ = [
    "AssignRecord",
    "AsyncInfo",
    "Atom",
    "AwaitSite",
    "BlockingSite",
    "CallTarget",
    "CallUse",
    "ClassSummary",
    "CompareRecord",
    "DataclassField",
    "Effect",
    "FunctionSummary",
    "Hazard",
    "LockSite",
    "MapSite",
    "MessageRecord",
    "ModuleSummary",
    "PayloadItem",
    "ReturnRecord",
    "RunSite",
    "SpawnSite",
    "StateWrite",
    "TaintInfo",
    "ValueExpr",
    "error_summary",
    "summarize_module",
]

#: Current summary schema; bump to invalidate every cache entry.
#: v2 added the async/concurrency fields (``AsyncInfo`` per function,
#: constructor tables per class/module) consumed by R012-R016.
#: v3 added the secret-flow fields (``TaintInfo`` per function,
#: dataclass field tables per class) consumed by R017-R021.
#: v4 records ``map_batches`` pool sites (the only submission API).
#: v5 serializes every record through the generic :mod:`.codec`.
SUMMARY_VERSION = 5

#: Keyword names that bound a wait or a run.
_TIMEOUT_KEYWORDS = frozenset({"timeout", "wall_guard_s"})

#: Positional-argument count at which a known primitive's wait becomes
#: bounded (``park(waiter, timeout)``, ``get(timeout)``,
#: ``run(main, wall_guard_s)``).
_TIMEOUT_ARITY = {"park": 2, "get": 1, "run": 2}

#: Dotted externals that block the hosting thread.
_BLOCKING_PREFIXES = ("subprocess.", "os.system", "shutil.")

#: The per-file rule whose suppression blesses each effect kind.
_EFFECT_RULES = {"rng": "R001", "clock": "R002"}

#: Hard cap on recorded secret-flow items per function; a generated
#: megafunction cannot blow up the summary cache.
_MAX_ITEMS = 200

#: Container methods whose argument taints the receiver name
#: (``out.append(secret)`` makes ``out`` secret).
_MUTATOR_METHODS = frozenset(
    {"append", "add", "extend", "insert", "update", "setdefault", "put"}
)


# ----------------------------------------------------------------------
# Call-graph records
# ----------------------------------------------------------------------


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


@dataclasses.dataclass(frozen=True)
class Effect:
    """A direct RNG/clock effect observed inside one function."""

    kind: str  # "rng" | "clock"
    detail: str  # offending dotted callable, e.g. "numpy.random.rand"
    line: int


@dataclasses.dataclass(frozen=True)
class Hazard:
    """A pickle hazard: an attribute or payload element that cannot
    cross a process boundary (open file, lambda, enabled handle)."""

    kind: str  # "open" | "lambda" | "instrumentation"
    attr: str  # attribute name for class hazards, "" for inline ones
    line: int


@dataclasses.dataclass(frozen=True)
class PayloadItem:
    """A named object packed into a pool payload, with the constructor
    call it was locally assigned from (when statically visible)."""

    name: str
    ctor: CallTarget | None
    line: int


@dataclasses.dataclass(frozen=True)
class MapSite:
    """One ``ExecutionEngine.map_batches(fn, tasks)`` call site."""

    line: int
    func: str  # enclosing function qual ("" at class level)
    fn: CallTarget | None  # the task callable, when resolvable
    fn_lambda: bool
    payloads: tuple[PayloadItem, ...]
    hazards: tuple[Hazard, ...]  # inline payload hazards (lambda/open/...)


# ----------------------------------------------------------------------
# Concurrency records (R012-R016)
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class AwaitSite:
    """One ``await <call>(...)`` inside a coroutine."""

    target: CallTarget | None
    line: int
    method: str  # last attribute segment ("park", "get", "join", ...)
    receiver: str  # lowercased receiver text, "" for bare names
    has_timeout: bool


@dataclasses.dataclass(frozen=True)
class LockSite:
    """One ``with``/``async with`` item whose context expression shapes
    like a lock.  ``shape`` is how the expression was spelled:
    ``self_attr``/``self_item`` (``self._lock`` / ``self._locks[i]``),
    ``name`` (local or module variable), or ``call`` (a getter whose
    return the graph layer resolves)."""

    shape: str
    name: str  # attribute / variable / getter text
    line: int
    end_line: int
    ctor: CallTarget | None = None  # what the variable was assigned from
    getter: CallTarget | None = None  # the lock-returning call


@dataclasses.dataclass(frozen=True)
class SpawnSite:
    """``<sched>.spawn(task(...))`` — a task root when resolvable."""

    target: CallTarget | None
    line: int


@dataclasses.dataclass(frozen=True)
class RunSite:
    """``<sched>.run(main(...))`` — the root task plus guard status."""

    target: CallTarget | None
    line: int
    has_guard: bool


@dataclasses.dataclass(frozen=True)
class BlockingSite:
    """A call that blocks the hosting thread (sleep, file I/O, ...)."""

    detail: str
    line: int


@dataclasses.dataclass(frozen=True)
class StateWrite:
    """An assignment to shared state: ``Class.attr`` for ``self.<attr>``
    targets, a bare name for declared module globals."""

    attr: str
    line: int
    is_global: bool = False


@dataclasses.dataclass(frozen=True)
class AsyncInfo:
    """Everything the concurrency rules need from one function."""

    is_async: bool = False
    awaits: tuple[AwaitSite, ...] = ()
    locks: tuple[LockSite, ...] = ()
    spawns: tuple[SpawnSite, ...] = ()
    runs: tuple[RunSite, ...] = ()
    blocking: tuple[BlockingSite, ...] = ()
    writes: tuple[StateWrite, ...] = ()
    returns_lock_attr: str | None = None
    returns_lock_item: bool = False


EMPTY_ASYNC_INFO = AsyncInfo()


# ----------------------------------------------------------------------
# Secret-flow records (R017-R021)
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Atom:
    """One taintable leaf read: a bare name or an attribute access.

    ``kind`` is ``name`` or ``attr``; ``ident`` the variable name or
    the final attribute segment (``config.protocol_secret`` records
    ``attr:protocol_secret``).  ``text`` is the spelled form, kept for
    flow-chain evidence only.
    """

    kind: str
    ident: str
    line: int
    text: str = ""


@dataclasses.dataclass(frozen=True)
class CallUse:
    """One call inside a value expression, with its own sub-expressions.

    ``target`` is the classified :class:`CallTarget` when statically
    resolvable (None for builtins and methods on arbitrary objects);
    ``method`` the final callable segment (``print``, ``hex``,
    ``info``); ``receiver`` the lowercased receiver text for shape
    heuristics (``self.instrumentation``, ``logger``).  ``recv`` and
    ``args`` carry the receiver's and the merged positional/keyword
    arguments' value expressions — taint passes *through* an unknown
    call (``str(x)``, ``x.hex()``) but a sanitizer cut applies to
    everything inside.
    """

    target: CallTarget | None
    method: str
    receiver: str
    line: int
    recv: ValueExpr
    args: ValueExpr


@dataclasses.dataclass(frozen=True)
class ValueExpr:
    """A flattened expression: loose atoms plus nested calls."""

    atoms: tuple[Atom, ...] = ()
    calls: tuple[CallUse, ...] = ()

    def is_empty(self) -> bool:
        return not self.atoms and not self.calls


EMPTY_VALUE = ValueExpr()


@dataclasses.dataclass(frozen=True)
class AssignRecord:
    """``targets = value``: name targets only (attribute targets are
    covered by the name-based source policy, not the local dataflow)."""

    targets: tuple[str, ...]
    value: ValueExpr
    line: int


@dataclasses.dataclass(frozen=True)
class ReturnRecord:
    value: ValueExpr
    line: int


@dataclasses.dataclass(frozen=True)
class MessageRecord:
    """R018 material: ``kind`` is ``raise`` (exception-constructor
    arguments) or ``assert`` (the assert message expression)."""

    kind: str
    value: ValueExpr
    line: int


@dataclasses.dataclass(frozen=True)
class CompareRecord:
    """One ``==`` / ``!=`` site; ``text`` is the unparsed comparison
    (used as the finding snippet, stable under line moves)."""

    op: str
    value: ValueExpr
    line: int
    text: str = ""


@dataclasses.dataclass(frozen=True)
class TaintInfo:
    """Everything the secret-flow rules need from one function."""

    params: tuple[str, ...] = ()
    assigns: tuple[AssignRecord, ...] = ()
    returns: tuple[ReturnRecord, ...] = ()
    calls: tuple[CallUse, ...] = ()
    messages: tuple[MessageRecord, ...] = ()
    compares: tuple[CompareRecord, ...] = ()


EMPTY_TAINT_INFO = TaintInfo()


@dataclasses.dataclass(frozen=True)
class DataclassField:
    """One annotated field of a ``@dataclass`` body (R021 material)."""

    name: str
    line: int
    repr_hidden: bool  # field(..., repr=False)


# ----------------------------------------------------------------------
# Function, class and module summaries
# ----------------------------------------------------------------------


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
# Expression helpers
# ----------------------------------------------------------------------


def _classify_target(
    expr: ast.expr, bindings: dict[str, Binding], cls_name: str | None
) -> CallTarget | None:
    """Resolve a call/reference expression against the module bindings."""
    dotted = dotted_parts(expr)
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


def _is_open_call(
    node: ast.Call, bindings: dict[str, Binding], target: CallTarget | None
) -> bool:
    """``open(...)`` / ``io.open(...)``; ``target`` is ``node.func``
    classified (a ``self``-kind target is never ``io.open``)."""
    func = node.func
    if isinstance(func, ast.Name) and func.id == "open" and "open" not in bindings:
        return True
    return target is not None and target.kind == "dotted" and target.target == "io.open"


def _is_enabled_instrumentation(target: CallTarget | None) -> bool:
    return (
        target is not None
        and target.target.endswith("Instrumentation.enabled")
    )


def _is_self_attr(expr: ast.expr) -> bool:
    return (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
    )


def _receiver_text(func: ast.expr) -> str:
    if isinstance(func, ast.Attribute):
        return ast.unparse(func.value).lower()
    return ""


def _has_timeout(call: ast.Call, method: str) -> bool:
    for keyword in call.keywords:
        if keyword.arg in _TIMEOUT_KEYWORDS:
            return True
    arity = _TIMEOUT_ARITY.get(method)
    return arity is not None and len(call.args) >= arity


def _name_targets(target: ast.expr) -> list[str]:
    out: list[str] = []
    for sub in ast.walk(target):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, (ast.Store, ast.Del)):
            out.append(sub.id)
        elif isinstance(sub, ast.Subscript) and isinstance(sub.value, ast.Name):
            # d["k"] = secret taints d itself.
            out.append(sub.value.id)
    return out


def _params(func_node: ast.FunctionDef | ast.AsyncFunctionDef) -> tuple[str, ...]:
    args = func_node.args
    params = [
        a.arg
        for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
        if a.arg not in ("self", "cls")
    ]
    for extra in (args.vararg, args.kwarg):
        if extra is not None:
            params.append(extra.arg)
    return tuple(params)


# ----------------------------------------------------------------------
# The fact pass
# ----------------------------------------------------------------------


class _FactPass:
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
        self.assigns: dict[str, ast.expr] = {}
        self.globals_declared: set[str] = set()
        self._uses: dict[ast.Call, CallUse] = {}
        # calls
        self.calls: list[CallTarget] = []
        self.effects: list[Effect] = []
        self.map_sites: list[MapSite] = []
        # concurrency
        self.awaits: list[AwaitSite] = []
        self.locks: list[LockSite] = []
        self.spawns: list[SpawnSite] = []
        self.runs: list[RunSite] = []
        self.blocking: list[BlockingSite] = []
        self.writes: list[StateWrite] = []
        self.returned: tuple[str, bool] | None = None
        # secret flow
        self.flow_assigns: list[AssignRecord] = []
        self.returns: list[ReturnRecord] = []
        self.flow_calls: list[CallUse] = []
        self.messages: list[MessageRecord] = []
        self.compares: list[CompareRecord] = []

    def classify(self, expr: ast.expr) -> CallTarget | None:
        return _classify_target(expr, self.bindings, self.cls_name)

    def run(self, func_node: ast.FunctionDef | ast.AsyncFunctionDef, qual: str) -> FunctionSummary:
        nodes = self.ctx.function_nodes[func_node]
        # Prepass: local name -> value expression (last assignment wins)
        # and the declared globals.
        for node in nodes:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.assigns[target.id] = node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if isinstance(node.target, ast.Name):
                    self.assigns[node.target.id] = node.value
            elif isinstance(node, ast.Global):
                self.globals_declared.update(node.names)
        # Recording pass.
        for node in nodes:
            if isinstance(node, ast.Call):
                self._visit_call(node, qual)
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                self._visit_write(node)
                self._visit_assign(node)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                self._visit_assign(node)
            elif isinstance(node, ast.Return):
                self._visit_return(node)
            elif isinstance(node, ast.Await):
                self._visit_await(node)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                self._visit_with(node)
            elif isinstance(node, ast.Raise):
                self._visit_raise(node)
            elif isinstance(node, ast.Assert):
                self._visit_assert(node)
            elif isinstance(node, ast.Compare):
                self._visit_compare(node)
        return FunctionSummary(
            qual=qual,
            line=func_node.lineno,
            public=not func_node.name.startswith("_"),
            calls=tuple(self.calls),
            effects=tuple(self.effects),
            async_info=self._async_info(func_node),
            taint_info=self._taint_info(func_node),
        )

    def _async_info(self, func_node: ast.FunctionDef | ast.AsyncFunctionDef) -> AsyncInfo:
        attr, item = self.returned if self.returned is not None else (None, False)
        info = AsyncInfo(
            is_async=isinstance(func_node, ast.AsyncFunctionDef),
            awaits=tuple(self.awaits),
            locks=tuple(self.locks),
            spawns=tuple(self.spawns),
            runs=tuple(self.runs),
            blocking=tuple(self.blocking),
            writes=tuple(self.writes),
            returns_lock_attr=attr,
            returns_lock_item=item,
        )
        return EMPTY_ASYNC_INFO if info == EMPTY_ASYNC_INFO else info

    def _taint_info(self, func_node: ast.FunctionDef | ast.AsyncFunctionDef) -> TaintInfo:
        # Functions that move no data worth tracking collapse to the
        # shared empty instance, which the codec omits.
        if not (
            self.flow_assigns
            or self.returns
            or self.flow_calls
            or self.messages
            or self.compares
        ):
            return EMPTY_TAINT_INFO
        return TaintInfo(
            params=_params(func_node),
            assigns=tuple(sorted(self.flow_assigns, key=lambda r: r.line)[:_MAX_ITEMS]),
            returns=tuple(sorted(self.returns, key=lambda r: r.line)[:_MAX_ITEMS]),
            calls=tuple(
                sorted(self.flow_calls, key=lambda c: (c.line, c.method))[:_MAX_ITEMS]
            ),
            messages=tuple(sorted(self.messages, key=lambda m: m.line)[:_MAX_ITEMS]),
            compares=tuple(sorted(self.compares, key=lambda c: c.line)[:_MAX_ITEMS]),
        )

    # -- value expressions ----------------------------------------------

    def value_expr(self, *exprs: ast.expr | None) -> ValueExpr:
        atoms: list[Atom] = []
        calls: list[CallUse] = []
        stack: list[ast.AST] = [e for e in exprs if e is not None]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Call):
                calls.append(self.call_use(node))
                continue  # the CallUse owns everything underneath
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                atoms.append(Atom("name", node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                # Field-sensitive: a plain dotted read is typed by its
                # attribute names alone (sched.times is public even when
                # sched holds a nonce; cfg.protocol_secret is secret by
                # name).  The base name is NOT recorded — only a
                # non-trivial base (call, subscript) keeps being walked.
                atoms.append(Atom("attr", node.attr, node.lineno, ast.unparse(node)))
                base = node.value
                while isinstance(base, ast.Attribute):
                    atoms.append(Atom("attr", base.attr, base.lineno, ast.unparse(base)))
                    base = base.value
                if not isinstance(base, ast.Name):
                    stack.append(base)
                continue
            stack.extend(ast.iter_child_nodes(node))
        if not atoms and not calls:
            return EMPTY_VALUE
        atoms.sort(key=lambda a: (a.line, a.ident))
        calls.sort(key=lambda c: (c.line, c.method))
        return ValueExpr(atoms=tuple(atoms), calls=tuple(calls))

    def call_use(self, node: ast.Call) -> CallUse:
        """The call's :class:`CallUse`, built once per call node."""
        use = self._uses.get(node)
        if use is None:
            func = node.func
            recv = (
                self.value_expr(func.value)
                if isinstance(func, ast.Attribute)
                else EMPTY_VALUE
            )
            arg_exprs = [
                arg.value if isinstance(arg, ast.Starred) else arg for arg in node.args
            ]
            arg_exprs.extend(keyword.value for keyword in node.keywords)
            use = CallUse(
                target=self.classify(func),
                method=callee_name(func),
                receiver=_receiver_text(func),
                line=node.lineno,
                recv=recv,
                args=self.value_expr(*arg_exprs),
            )
            self._uses[node] = use
        return use

    # -- calls ----------------------------------------------------------

    def _visit_call(self, node: ast.Call, qual: str) -> None:
        use = self.call_use(node)
        resolved, effect = self.ctx.resolve_call(node)
        if not self._record_effect(node, effect):
            if use.target is not None:
                self.calls.append(use.target)
            self._record_map_site(node, qual)
            self._record_callable_refs(node)
        if "sched" in use.receiver:
            if use.method == "spawn":
                self.spawns.append(SpawnSite(self._task_target(node), node.lineno))
            elif use.method == "run":
                self.runs.append(
                    RunSite(self._task_target(node), node.lineno, _has_timeout(node, "run"))
                )
        self._record_blocking(node, use.target, resolved)
        self._record_flow_call(node, use)

    def _record_effect(self, node: ast.Call, effect: tuple[str, str] | None) -> bool:
        """True when the call is a tracked external effect (recorded or
        blessed by a per-file suppression) — either way, not an edge."""
        if effect is None:
            return False
        kind, detail = effect
        if not self.ctx.is_suppressed(node, _EFFECT_RULES[kind]):
            self.effects.append(Effect(kind, detail, node.lineno))
        return True

    def _record_callable_refs(self, node: ast.Call) -> None:
        """Bare function names passed as arguments become may-call edges."""
        for arg in [*node.args, *[kw.value for kw in node.keywords]]:
            if not isinstance(arg, ast.Name):
                continue
            binding = self.bindings.get(arg.id)
            if binding is None or binding.kind not in ("func", "import"):
                continue
            target = self.classify(arg)
            if target is not None:
                self.calls.append(dataclasses.replace(target, ref=True))

    def _record_map_site(self, node: ast.Call, qual: str) -> None:
        args = map_batches_args(node)
        if args is None:
            return
        fn_arg, payload_arg = args
        fn_target = None
        fn_lambda = isinstance(fn_arg, ast.Lambda)
        if fn_arg is not None and not fn_lambda:
            fn_target = self.classify(fn_arg)
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
        if isinstance(expr, ast.Name) and expr.id in self.assigns:
            expr = self.assigns[expr.id]
        payloads: list[PayloadItem] = []
        hazards: list[Hazard] = []
        seen: set[str] = set()
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Lambda):
                hazards.append(Hazard("lambda", "", sub.lineno))
            elif isinstance(sub, ast.Call):
                target = self.classify(sub.func)
                if _is_open_call(sub, self.bindings, target):
                    hazards.append(Hazard("open", "", sub.lineno))
                elif _is_enabled_instrumentation(target):
                    hazards.append(Hazard("instrumentation", "", sub.lineno))
            elif isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                if sub.id in seen:
                    continue
                seen.add(sub.id)
                ctor_expr = self.assigns.get(sub.id)
                if isinstance(ctor_expr, ast.Call):
                    ctor = self.classify(ctor_expr.func)
                    if ctor is not None:
                        payloads.append(PayloadItem(sub.id, ctor, sub.lineno))
        return payloads, hazards

    def _task_target(self, call: ast.Call) -> CallTarget | None:
        if not call.args or not isinstance(call.args[0], ast.Call):
            return None
        return self.classify(call.args[0].func)

    def _record_blocking(
        self, node: ast.Call, target: CallTarget | None, resolved: tuple[str, ...] | None
    ) -> None:
        if _is_open_call(node, self.bindings, target):
            self.blocking.append(BlockingSite("open", node.lineno))
            return
        if resolved == ("time", "sleep"):
            self.blocking.append(BlockingSite("time.sleep", node.lineno))
            return
        if target is None or target.kind != "dotted":
            return
        dotted = target.target
        if dotted.startswith(_BLOCKING_PREFIXES) or dotted == "os.system":
            self.blocking.append(BlockingSite(dotted, node.lineno))

    def _record_flow_call(self, node: ast.Call, use: CallUse) -> None:
        if use.recv.is_empty() and use.args.is_empty():
            return  # literal-only call: cannot carry taint into a sink
        self.flow_calls.append(use)
        # out.append(secret) taints out — container mutators are the
        # only way list-building loops feed the return dataflow.
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.attr in _MUTATOR_METHODS
            and not use.args.is_empty()
        ):
            self.flow_assigns.append(AssignRecord((func.value.id,), use.args, node.lineno))

    # -- awaits and lock regions ----------------------------------------

    def _visit_await(self, node: ast.Await) -> None:
        call = node.value
        if not isinstance(call, ast.Call):
            return
        use = self.call_use(call)
        self.awaits.append(
            AwaitSite(
                target=use.target,
                line=node.lineno,
                method=use.method,
                receiver=use.receiver,
                has_timeout=_has_timeout(call, use.method),
            )
        )

    def _visit_with(self, node: ast.With | ast.AsyncWith) -> None:
        end_line = node.end_lineno or node.lineno
        for item in node.items:
            site = self._lock_site(item.context_expr, node.lineno, end_line)
            if site is not None:
                self.locks.append(site)

    def _lock_site(self, expr: ast.expr, line: int, end_line: int) -> LockSite | None:
        # self._lock / self._locks[i]
        if isinstance(expr, ast.Subscript):
            inner = expr.value
            if _is_self_attr(inner):
                return LockSite("self_item", inner.attr, line, end_line)
            if isinstance(inner, ast.Name):
                return self._name_lock(inner.id, line, end_line)
            return None
        if isinstance(expr, ast.Attribute):
            if _is_self_attr(expr):
                return LockSite("self_attr", expr.attr, line, end_line)
            return None
        if isinstance(expr, ast.Name):
            return self._name_lock(expr.id, line, end_line)
        if isinstance(expr, ast.Call):
            getter = self.classify(expr.func)
            if getter is None:
                return None
            return LockSite("call", callee_name(expr.func), line, end_line, getter=getter)
        return None

    def _name_lock(self, name: str, line: int, end_line: int) -> LockSite:
        assigned = self.assigns.get(name)
        call = assigned if isinstance(assigned, ast.Call) else None
        if assigned is not None and call is None:
            call = first_call_in(assigned)
        ctor = self.classify(call.func) if call is not None else None
        return LockSite("name", name, line, end_line, ctor=ctor)

    # -- assignments, returns, messages, compares -----------------------

    def _visit_write(self, node: ast.Assign | ast.AugAssign | ast.AnnAssign) -> None:
        if isinstance(node, ast.Assign):
            targets = node.targets
        else:
            targets = [node.target] if node.value is not None else []
        for target in targets:
            expr = target.value if isinstance(target, ast.Subscript) else target
            if _is_self_attr(expr) and self.cls_name is not None:
                self.writes.append(StateWrite(f"{self.cls_name}.{expr.attr}", node.lineno))
            elif isinstance(expr, ast.Name) and expr.id in self.globals_declared:
                self.writes.append(StateWrite(expr.id, node.lineno, is_global=True))

    def _visit_assign(self, node: ast.AST) -> None:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            if node.value is None:
                return
            targets, value = [node.target], node.value
        else:  # for / async for
            targets, value = [node.target], node.iter
        names: list[str] = []
        for target in targets:
            names.extend(_name_targets(target))
        if not names:
            return
        expr = self.value_expr(value)
        if isinstance(node, ast.AugAssign):
            # x += secret keeps x's own taint too; the read is implicit.
            expr = ValueExpr(
                atoms=tuple(
                    sorted(
                        (*expr.atoms, Atom("name", names[0], node.lineno)),
                        key=lambda a: (a.line, a.ident),
                    )
                ),
                calls=expr.calls,
            )
        if expr.is_empty():
            return
        self.flow_assigns.append(AssignRecord(tuple(names), expr, node.lineno))

    def _visit_return(self, node: ast.Return) -> None:
        if node.value is None:
            return
        # ``return self.<attr>`` / ``return self.<attr>[...]`` — the shape
        # of a lock getter (first one wins); lockness is decided at graph
        # time.
        if self.returned is None:
            item = isinstance(node.value, ast.Subscript)
            expr = node.value.value if item else node.value
            if _is_self_attr(expr):
                self.returned = (expr.attr, item)
        expr = self.value_expr(node.value)
        if not expr.is_empty():
            self.returns.append(ReturnRecord(expr, node.lineno))

    def _visit_raise(self, node: ast.Raise) -> None:
        if node.exc is None:
            return
        exc = node.exc
        expr = (
            self.value_expr(*exc.args, *[k.value for k in exc.keywords])
            if isinstance(exc, ast.Call)
            else self.value_expr(exc)
        )
        if not expr.is_empty():
            self.messages.append(MessageRecord("raise", expr, node.lineno))

    def _visit_assert(self, node: ast.Assert) -> None:
        if node.msg is None:
            return
        expr = self.value_expr(node.msg)
        if not expr.is_empty():
            self.messages.append(MessageRecord("assert", expr, node.lineno))

    def _visit_compare(self, node: ast.Compare) -> None:
        ops = [op for op in node.ops if isinstance(op, (ast.Eq, ast.NotEq))]
        if not ops:
            return
        expr = self.value_expr(node.left, *node.comparators)
        if expr.is_empty():
            return
        op = "==" if isinstance(ops[0], ast.Eq) else "!="
        self.compares.append(CompareRecord(op, expr, node.lineno, ast.unparse(node)[:120]))


# ----------------------------------------------------------------------
# Class- and module-level facts
# ----------------------------------------------------------------------


def _class_facts(
    assigns: list[ast.Assign], bindings: dict[str, Binding]
) -> tuple[tuple[Hazard, ...], tuple[tuple[str, CallTarget, bool], ...]]:
    """The ``self.<attr> = ...`` facts among a class's indexed assignments.

    Hazards: ``self.x = open(...)`` / lambda / ``Instrumentation.
    enabled()``.  Constructors: ``self.x = Ctor(...)`` (or a list/dict
    comprehension of ctor calls, as in sharded lock pools), first
    assignment per attribute wins.
    """
    hazards: list[Hazard] = []
    ctors: dict[str, tuple[CallTarget, bool]] = {}
    for sub in assigns:
        value = sub.value
        for target in sub.targets:
            if not _is_self_attr(target):
                continue
            if isinstance(value, ast.Lambda):
                hazards.append(Hazard("lambda", target.attr, sub.lineno))
            elif isinstance(value, ast.Call):
                called = _classify_target(value.func, bindings, None)
                if _is_open_call(value, bindings, called):
                    hazards.append(Hazard("open", target.attr, sub.lineno))
                elif _is_enabled_instrumentation(called):
                    hazards.append(Hazard("instrumentation", target.attr, sub.lineno))
            if target.attr in ctors:
                continue
            call = value if isinstance(value, ast.Call) else first_call_in(value)
            if call is None:
                continue
            ctor = _classify_target(call.func, bindings, None)
            if ctor is not None:
                ctors[target.attr] = (ctor, not isinstance(value, ast.Call))
    return tuple(hazards), tuple(
        (attr, ctor, container) for attr, (ctor, container) in sorted(ctors.items())
    )


def _field_hides_repr(value: ast.expr | None) -> bool:
    """True for ``field(..., repr=False)`` (any ``*field`` callable)."""
    if not isinstance(value, ast.Call):
        return False
    if callee_name(value.func) != "field":
        return False
    for keyword in value.keywords:
        if keyword.arg == "repr" and isinstance(keyword.value, ast.Constant):
            return keyword.value.value is False
    return False


def _dataclass_fields(node: ast.ClassDef) -> tuple[DataclassField, ...]:
    """Annotated fields of a ``@dataclass`` class body (empty for
    ordinary classes)."""
    if not is_dataclass(node):
        return ()
    return tuple(
        DataclassField(sub.target.id, sub.lineno, _field_hides_repr(sub.value))
        for sub in node.body
        if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name)
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


def summarize_module(ctx: ModuleContext, path: str | None = None) -> ModuleSummary:
    """Build the whole-program summary of one parsed module."""
    report_path = path if path is not None else ctx.path
    module, is_package = module_name_for(report_path)
    bindings, exports = collect_bindings(ctx.tree, module, is_package)

    functions: dict[str, FunctionSummary] = {}
    classes: dict[str, ClassSummary] = {}
    map_sites: list[MapSite] = []

    def summarize(func_node, qual: str, cls_name: str | None) -> None:
        facts = _FactPass(ctx, bindings, cls_name)
        functions[qual] = facts.run(func_node, qual)
        map_sites.extend(facts.map_sites)

    for node in ctx.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            summarize(node, node.name, None)
        elif isinstance(node, ast.ClassDef):
            methods = []
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    summarize(sub, f"{node.name}.{sub.name}", node.name)
                    methods.append(sub.name)
            hazards, attr_ctors = _class_facts(ctx.class_assigns[node], bindings)
            classes[node.name] = ClassSummary(
                name=node.name,
                line=node.lineno,
                public=not node.name.startswith("_"),
                methods=tuple(methods),
                hazards=hazards,
                attr_ctors=attr_ctors,
                fields=_dataclass_fields(node),
            )

    return ModuleSummary(
        module=module,
        path=report_path,
        is_package=is_package,
        bindings=bindings,
        exports=tuple(exports) if exports is not None else None,
        functions=functions,
        classes=classes,
        refs=tuple(sorted(ctx.refs)),
        suppressions=ctx.suppression_table(),
        map_sites=tuple(map_sites),
        var_ctors=_collect_var_ctors(ctx.tree, bindings),
    )
