"""Per-module analysis context: one indexed pass shared by every consumer.

One :class:`ModuleContext` is built per analyzed file.  It walks the
parsed tree **once**, breadth first in ``ast.walk`` order, and fills
every table the per-file rules (R001-R006) and the whole-program fact
pass (:mod:`.graph.summarize`) read, so each rule is a query over a
list rather than a traversal of its own:

* the **import alias maps** (``np.random.rand`` resolves to
  ``numpy.random.rand`` whatever numpy was imported as);
* **node lists by type** — calls, compares (and those inside
  ``assert`` tests), defs and lambdas, class defs;
* the **node list of every outermost function** (each function the
  fact pass summarizes is one), in that function's own walk order, and
  the assignments inside every outermost class, in its walk order;
* **scopes** — the enclosing function of every call and def, and the
  nested-def and lambda names each scope binds (R003);
* the **referenced names** the dead-surface rule R009 runs on.

:meth:`ModuleContext.resolve_call` resolves and classifies each call
(RNG draw, clock read) once, however many rules and recorders ask.
The context also owns the **suppression table** from ``# reprolint:
disable=R001[,R002]`` comments (a suppression on any physical line of
the offending node silences it) and whether the file is a **test
module** (:func:`is_test_path`).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from collections import defaultdict, deque
from pathlib import PurePath

from .config import DEFAULT_LINT_CONFIG, LintConfig
from .effects import call_effect, dotted_parts

__all__ = ["ModuleContext", "is_test_path"]

#: Modules whose attribute calls the rules reason about.
_TRACKED_MODULES = frozenset(
    {"numpy", "numpy.random", "random", "time", "datetime"}
)

_SUPPRESS_RE = re.compile(r"#\s*reprolint:\s*disable=([A-Za-z0-9_*,\s]+)")


def is_test_path(path: str) -> bool:
    """True for test modules: a ``tests`` directory component or a
    ``test_*`` file name.  R004 narrows itself to asserts there, R009
    does not count their references as uses, and the secret-flow rules
    skip them (test code does not ship)."""
    parts = PurePath(path).parts
    return "tests" in parts or PurePath(path).name.startswith("test_")


class ModuleContext:
    def __init__(
        self,
        path: str,
        source: str,
        config: LintConfig | None = None,
    ) -> None:
        self.path = PurePath(path).as_posix()
        self.source = source
        self.config = config if config is not None else DEFAULT_LINT_CONFIG
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=path)
        self.is_test = is_test_path(self.path)
        self.module_aliases: dict[str, str] = {}
        self.from_imports: dict[str, str] = {}
        #: Every call, compare, def or lambda, and class def, in
        #: ``ast.walk`` order.
        self.calls: list[ast.Call] = []
        self.compares: list[ast.Compare] = []
        self.callables: list[ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda] = []
        self.classes: list[ast.ClassDef] = []
        #: Compares inside the test of an ``assert`` that sits in a
        #: function or directly in the module body, each with its
        #: outermost function (None for the module body).
        self.assert_compares: list[tuple[ast.Compare, ast.AST | None]] = []
        #: Outermost function -> its subtree's nodes in ``ast.walk``
        #: order, the function itself first (expression contexts of
        #: names, which carry nothing, are left out).
        self.function_nodes: dict[ast.AST, list[ast.AST]] = {}
        #: Outermost class -> every ``Assign`` in it, in ``ast.walk`` order.
        self.class_assigns: dict[ast.ClassDef, list[ast.Assign]] = {}
        #: Innermost enclosing function (None: module scope) of every
        #: call and every def.
        self.scope: dict[ast.AST, ast.AST | None] = {}
        #: Scope -> names it binds to a nested def or to a lambda.
        self.local_callables: dict[ast.AST | None, set[str]] = defaultdict(set)
        self.refs: set[str] = set()
        self._resolved: dict[ast.Call, tuple] = {}
        #: ``(line, token)`` pairs that silenced at least one diagnostic
        #: this run — what W001 (unused suppression) is computed against.
        self.used_suppressions: set[tuple[int, str]] = set()
        self._suppressions = self._collect_suppressions()
        self._index()

    # ------------------------------------------------------------------
    # Suppressions
    # ------------------------------------------------------------------

    def _collect_suppressions(self) -> dict[int, set[str]]:
        """Suppression tokens per line, from *real* comments only.

        Tokenizing (rather than regex over raw lines) keeps fixture
        source embedded in string literals — common in this repo's own
        tests — from registering phantom suppressions, which would
        surface as false W001s.  Files that fail to tokenize fall back
        to the old line scan; they fail to parse too, so the only rule
        that could fire there is E000 anyway.
        """
        table: dict[int, set[str]] = {}
        if "reprolint" not in self.source:
            return table  # most files: nothing to tokenize for

        def record(lineno: int, text: str) -> None:
            match = _SUPPRESS_RE.search(text)
            if match:
                rules = {part.strip() for part in match.group(1).split(",")}
                rules = {r for r in rules if r}
                if rules:
                    table.setdefault(lineno, set()).update(rules)

        try:
            tokens = tokenize.generate_tokens(io.StringIO(self.source).readline)
            for token in tokens:
                if token.type == tokenize.COMMENT:
                    record(token.start[0], token.string)
        except (tokenize.TokenError, SyntaxError, IndentationError):
            table.clear()
            for lineno, line in enumerate(self.lines, start=1):
                record(lineno, line)
        return table

    def is_suppressed(self, node: ast.AST, rule_id: str) -> bool:
        """True when any physical line of ``node`` carries a suppression
        for ``rule_id`` (or for ``all``/``*``); matching declarations
        are recorded as used."""
        start = getattr(node, "lineno", 0)
        end = getattr(node, "end_lineno", start) or start
        hit = False
        for lineno in range(start, end + 1):
            rules = self._suppressions.get(lineno)
            if not rules:
                continue
            for token in (rule_id, "all", "*"):
                if token in rules:
                    self.used_suppressions.add((lineno, token))
                    hit = True
        return hit

    def suppression_table(self) -> dict[int, tuple[str, ...]]:
        """The suppression table in the serializable form the graph
        layer stores in module summaries (line -> sorted rule ids)."""
        return {
            lineno: tuple(sorted(rules))
            for lineno, rules in sorted(self._suppressions.items())
        }

    # ------------------------------------------------------------------
    # The index pass
    # ------------------------------------------------------------------

    def _index(self) -> None:
        """Fill every table in one breadth-first pass.

        The queue holds groups of siblings sharing one context: the
        enclosing function, the outermost function and class, and the
        outermost function of the ``assert`` whose test they are in
        (``False`` outside one).  Consumed in order, the groups yield exactly
        ``ast.walk`` order, restricted to any subtree that subtree's own.
        """
        calls, refs, scope = self.calls, self.refs, self.scope
        function_nodes = self.function_nodes
        queue: deque = deque([((self.tree,), None, None, None, False)])
        while queue:
            group, fn, outer, cls, in_assert = queue.popleft()
            members = function_nodes[outer] if outer is not None else None
            for node in group:
                if members is not None:
                    members.append(node)
                kind = type(node)
                if kind is ast.Name:
                    if type(node.ctx) is ast.Load:
                        refs.add(node.id)
                    continue
                if kind is ast.Constant:
                    continue
                child_fn, child_outer, child_cls = fn, outer, cls
                if kind is ast.Attribute:
                    refs.add(node.attr)
                elif kind is ast.Call:
                    calls.append(node)
                    scope[node] = fn
                elif kind is ast.Compare:
                    self.compares.append(node)
                    if in_assert is not False:
                        self.assert_compares.append((node, in_assert))
                elif kind is ast.FunctionDef or kind is ast.AsyncFunctionDef:
                    self.callables.append(node)
                    scope[node] = fn
                    if fn is not None:
                        self.local_callables[fn].add(node.name)
                    child_fn = node
                    if outer is None:
                        child_outer = node
                        function_nodes[node] = [node]
                elif kind is ast.Lambda:
                    self.callables.append(node)
                elif kind is ast.ClassDef:
                    self.classes.append(node)
                    if cls is None:
                        child_cls = node
                        self.class_assigns[node] = []
                elif kind is ast.Assign:
                    if cls is not None:
                        self.class_assigns[cls].append(node)
                    if type(node.value) is ast.Lambda:
                        for target in node.targets:
                            if type(target) is ast.Name:
                                self.local_callables[fn].add(target.id)
                elif kind is ast.Assert:
                    # Only asserts in a function or directly in the
                    # module body are R004 test-file material.
                    if outer is not None or node in self.tree.body:
                        queue.append(((node.test,), fn, outer, cls, outer))
                        if node.msg is not None:
                            queue.append(((node.msg,), fn, outer, cls, in_assert))
                        continue
                elif kind is ast.Import or kind is ast.ImportFrom:
                    self._record_import(node)
                children = tuple(ast.iter_child_nodes(node))
                if children:
                    queue.append((children, child_fn, child_outer, child_cls, in_assert))

    def _record_import(self, node: ast.Import | ast.ImportFrom) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    if alias.name in _TRACKED_MODULES:
                        self.module_aliases[alias.asname] = alias.name
                else:
                    top = alias.name.split(".")[0]
                    if top in _TRACKED_MODULES:
                        self.module_aliases.setdefault(top, top)
        elif node.module and node.level == 0:
            for alias in node.names:
                local = alias.asname or alias.name
                full = f"{node.module}.{alias.name}"
                if full in _TRACKED_MODULES:
                    self.module_aliases[local] = full
                elif node.module in _TRACKED_MODULES:
                    self.from_imports[local] = full

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def resolve_call(
        self, node: ast.Call
    ) -> tuple[tuple[str, ...] | None, tuple[str, str] | None]:
        """``(path, effect)`` of one call, worked out once per node.

        ``path`` is the callee's real module path (``("numpy", "random",
        "rand")``), or None unless it is a plain dotted name on a tracked
        import — so methods on arbitrary objects (``rng.random()``) never
        alias into module rules.  ``effect`` is :func:`.effects.call_effect`
        of ``path``.
        """
        facts = self._resolved.get(node)
        if facts is None:
            path = None
            dotted = dotted_parts(node.func)
            if dotted is not None:
                base, parts = dotted
                module = self.module_aliases.get(base) or self.from_imports.get(base)
                if module is not None:
                    path = (*module.split("."), *parts)
            effect = call_effect(path) if path is not None else None
            facts = self._resolved[node] = (path, effect)
        return facts

    def binds_local_callable(self, node: ast.AST, name: str) -> bool:
        """True when the scope of call ``node`` — its enclosing
        function, the functions enclosing that one, then the module —
        binds ``name`` to a nested def or a lambda."""
        scope = self.scope[node]
        while True:
            if name in self.local_callables.get(scope, ()):
                return True
            if scope is None:
                return False
            scope = self.scope[scope]

    def snippet_at(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""
