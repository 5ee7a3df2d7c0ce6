"""The six codebase-specific reprolint rules (R001-R006).

Each rule encodes one determinism or contract invariant this repo's
runtime guarantees depend on (pool==serial bit-identity, seeded fault
schedules, reproducible z1-z4 features).  They are deliberately
*specific to this codebase*: a generic linter cannot know that
``obs/clock.py`` and ``engine/perf.py`` are the blessed wall-clock
sites, or what the field set of ``DetectorConfig`` is.
"""

from __future__ import annotations

import ast
import dataclasses

from ..core.config import DetectorConfig
from .effects import clock_effect, map_batches_args, rng_effect
from .rulebase import Rule, register

__all__ = ["CONFIG_FIELDS"]

#: The real field set of DetectorConfig — R006 checks string-level uses
#: against it, the static twin of ``with_overrides``'s runtime check.
CONFIG_FIELDS = frozenset(field.name for field in dataclasses.fields(DetectorConfig))


def _is_float_literal(node: ast.expr) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


def _contains_call(node: ast.expr) -> bool:
    return any(isinstance(sub, ast.Call) for sub in ast.walk(node))


def _root_name(node: ast.expr) -> str | None:
    """Peel attribute/subscript layers down to the base ``Name``."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


@register
class UnseededRandomnessRule(Rule):
    id = "R001"
    title = "unseeded global randomness"
    example = "values = [random.random() for _ in range(count)]"
    rationale = """Module-level np.random.* / random.* calls draw from hidden
    global state, so results depend on import order and worker scheduling —
    breaking the engine's pool==serial bit-identity.  Construct a generator
    via numpy.random.default_rng / SeedSequence (see core.seeding.spawn_seeds)
    and pass it down."""

    def visit_Call(self, node: ast.Call) -> None:
        # Classified by analysis.effects, like the whole-program layer,
        # so the two passes cannot disagree about what counts as seeded.
        target = self.ctx.resolve_dotted(node.func)
        detail = rng_effect(tuple(target)) if target is not None else None
        if detail is not None and detail.startswith("numpy."):
            self.report(
                node,
                f"call to {detail} uses the global RNG; "
                "seed an explicit numpy.random.default_rng instead",
            )
        elif detail is not None:
            self.report(
                node,
                f"call to stdlib {detail} uses the global RNG; "
                "use a seeded numpy.random.default_rng instead",
            )
        self.generic_visit(node)


@register
class WallClockRule(Rule):
    id = "R002"
    title = "wall-clock read outside the blessed clock sites"
    example = "started = time.time()"
    rationale = """time.time / perf_counter / datetime.now make results depend
    on when the code ran.  Simulated time must come from the session clock;
    the blessed real-clock sites are the clock abstraction in obs/clock.py
    (which everything else, including the rest of obs/, must go through)
    and the historical perf instrumentation in engine/perf.py."""

    def run(self) -> list:
        # The modules allowed to touch the real clock come from the
        # [tool.reprolint] wall-clock-allowlist (default: obs/clock.py
        # alone — not obs/ wholesale — plus the historical engine/perf.py).
        if self.ctx.path.endswith(tuple(self.ctx.config.wall_clock_allowlist)):
            return self.findings
        return super().run()

    def visit_Call(self, node: ast.Call) -> None:
        target = self.ctx.resolve_dotted(node.func)
        detail = clock_effect(tuple(target)) if target is not None else None
        if detail is not None:
            self.report(
                node,
                f"wall-clock read {detail}() outside obs/clock.py; "
                "derive time from the session clock or route timing through "
                "the obs.clock abstraction",
            )
        self.generic_visit(node)


@register
class UnpicklableTaskRule(Rule):
    id = "R003"
    title = "unpicklable payload handed to ExecutionEngine.map_batches"
    example = "engine.map_batches(lambda clip: grade(clip), clips)"
    rationale = """ExecutionEngine.map_batches sends the task function to
    worker processes by pickling; lambdas, closures and local defs fail
    there — but only once jobs > 1, so the defect hides in serial test
    runs.  Task functions must be module-level."""

    def visit_Call(self, node: ast.Call) -> None:
        args = map_batches_args(node)
        fn_arg = args[0] if args is not None else None
        if isinstance(fn_arg, ast.Lambda):
            self.report(
                node,
                "lambda passed to ExecutionEngine.map_batches cannot be "
                "pickled to worker processes; use a module-level function",
            )
        elif isinstance(fn_arg, ast.Name) and (
            fn_arg.id in self.ctx.nested_function_names
            or fn_arg.id in self.ctx.lambda_names
        ):
            self.report(
                node,
                f"'{fn_arg.id}' is a nested def/lambda; "
                "ExecutionEngine.map_batches payloads must be "
                "module-level functions (picklable)",
            )
        self.generic_visit(node)


@register
class FloatEqualityRule(Rule):
    id = "R004"
    title = "exact float equality comparison"
    example = "if report.lag_s == 0.45:"
    rationale = """== / != against a float literal is only meaningful for
    values set verbatim; anything that went through the signal chain carries
    rounding that a refactor (e.g. the cumsum-vectorized moving windows) may
    legally change.  Use pytest.approx / math.isclose for computed values; a
    verbatim check keeps == with an inline suppression."""

    def run(self) -> list:
        self._checked: set[int] = set()
        if self.ctx.is_test:
            self._run_over_test_asserts()
        else:
            self.visit(self.ctx.tree)
        return self.findings

    # --- library code: every float-literal equality is suspect ---------

    def visit_Compare(self, node: ast.Compare) -> None:
        for left, op, right in self._equality_pairs(node):
            if _is_float_literal(left) or _is_float_literal(right):
                self.report(
                    node,
                    "exact float equality; computed floats need a tolerance "
                    "(math.isclose) — suppress inline if the value is set verbatim",
                )
                break
        self.generic_visit(node)

    # --- test code: only asserts, and only on computed values ----------

    def _run_over_test_asserts(self) -> None:
        module_scope: list[ast.Assert] = [
            stmt for stmt in self.ctx.tree.body if isinstance(stmt, ast.Assert)
        ]
        self._check_asserts(module_scope, computed=set())
        for node in ast.walk(self.ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                asserts = [
                    sub for sub in ast.walk(node) if isinstance(sub, ast.Assert)
                ]
                self._check_asserts(asserts, computed=self._computed_names(node))

    @staticmethod
    def _computed_names(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
        """Names assigned (directly or transitively) from a call result."""
        computed: set[str] = set()
        for node in ast.walk(func):
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            if value is None:
                continue
            root = _root_name(value)
            if _contains_call(value) or (root is not None and root in computed):
                for target in targets:
                    if isinstance(target, ast.Name):
                        computed.add(target.id)
                    elif isinstance(target, ast.Tuple):
                        computed.update(
                            el.id for el in target.elts if isinstance(el, ast.Name)
                        )
        return computed

    def _check_asserts(self, asserts: list[ast.Assert], computed: set[str]) -> None:
        for stmt in asserts:
            for node in ast.walk(stmt.test):
                if not isinstance(node, ast.Compare) or id(node) in self._checked:
                    continue
                self._checked.add(id(node))
                for left, op, right in self._equality_pairs(node):
                    literal, other = None, None
                    if _is_float_literal(left):
                        literal, other = left, right
                    elif _is_float_literal(right):
                        literal, other = right, left
                    if literal is None:
                        continue
                    root = _root_name(other)
                    if _contains_call(other) or (root is not None and root in computed):
                        self.report(
                            node,
                            "assert compares a computed float with exact ==; use "
                            "pytest.approx — suppress inline if set verbatim",
                        )
                        break

    @staticmethod
    def _equality_pairs(node: ast.Compare):
        operands = [node.left, *node.comparators]
        for i, op in enumerate(node.ops):
            if isinstance(op, (ast.Eq, ast.NotEq)):
                yield operands[i], op, operands[i + 1]


@register
class MutableDefaultRule(Rule):
    id = "R005"
    title = "mutable default argument / dataclass field default"
    example = "def collect(out=[]):"
    rationale = """A mutable default is created once and shared across calls
    (or across dataclass instances), so one caller's mutation leaks into the
    next — state the engine's task isolation assumes cannot exist.  Use None
    plus an inner default, or dataclasses.field(default_factory=...)."""

    _MUTABLE_CTORS = frozenset(
        {"list", "dict", "set", "bytearray", "defaultdict", "OrderedDict", "Counter", "deque"}
    )
    _NUMPY_CTORS = frozenset({"array", "zeros", "ones", "empty", "full"})

    def _is_mutable(self, node: ast.expr | None) -> bool:
        if node is None:
            return False
        if isinstance(
            node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.SetComp, ast.DictComp)
        ):
            return True
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id in self._MUTABLE_CTORS:
                return True
            target = self.ctx.resolve_dotted(node.func)
            if (
                target is not None
                and len(target) == 2
                and target[0] == "numpy"
                and target[1] in self._NUMPY_CTORS
            ):
                return True
        return False

    def _check_defaults(self, node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if self._is_mutable(default):
                self.report(
                    default,
                    "mutable default argument is shared across calls; "
                    "default to None and construct inside the function",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self._is_dataclass(node):
            for stmt in node.body:
                if not isinstance(stmt, ast.AnnAssign) or stmt.value is None:
                    continue
                value = stmt.value
                if self._is_field_call(value):
                    for keyword in value.keywords:  # type: ignore[union-attr]
                        if keyword.arg == "default" and self._is_mutable(keyword.value):
                            self.report(
                                keyword.value,
                                "mutable dataclass field default is shared across "
                                "instances; use field(default_factory=...)",
                            )
                elif self._is_mutable(value):
                    self.report(
                        value,
                        "mutable dataclass field default is shared across "
                        "instances; use field(default_factory=...)",
                    )
        self.generic_visit(node)

    @staticmethod
    def _is_dataclass(node: ast.ClassDef) -> bool:
        for decorator in node.decorator_list:
            expr = decorator.func if isinstance(decorator, ast.Call) else decorator
            name = expr.attr if isinstance(expr, ast.Attribute) else (
                expr.id if isinstance(expr, ast.Name) else ""
            )
            if name == "dataclass":
                return True
        return False

    @staticmethod
    def _is_field_call(node: ast.expr) -> bool:
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else ""
        )
        return name == "field"


@register
class ConfigContractRule(Rule):
    id = "R006"
    title = "DetectorConfig contract violation"
    example = "tuned = config.with_overrides(clip_durations=12.0)"
    rationale = """Config field names written as strings or keywords must
    exist on the dataclass — the static twin of with_overrides' runtime
    unknown-field check, catching typos before a sweep runs."""

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "with_overrides":
            self._check_override_keywords(node)
        elif isinstance(func, ast.Name) and func.id in {"getattr", "setattr", "hasattr"}:
            self._check_getattr(node)
        self.generic_visit(node)

    def _check_override_keywords(self, node: ast.Call) -> None:
        for keyword in node.keywords:
            if keyword.arg is not None and keyword.arg not in CONFIG_FIELDS:
                self.report(
                    node,
                    f"with_overrides keyword '{keyword.arg}' is not a "
                    "DetectorConfig field (would raise at runtime)",
                )
            elif keyword.arg is None and isinstance(keyword.value, ast.Dict):
                for key in keyword.value.keys:
                    if (
                        isinstance(key, ast.Constant)
                        and isinstance(key.value, str)
                        and key.value not in CONFIG_FIELDS
                    ):
                        self.report(
                            node,
                            f"with_overrides key '{key.value}' is not a "
                            "DetectorConfig field (would raise at runtime)",
                        )

    def _check_getattr(self, node: ast.Call) -> None:
        if len(node.args) < 2:
            return
        obj, name = node.args[0], node.args[1]
        if "config" not in ast.unparse(obj).lower():
            return
        if not (isinstance(name, ast.Constant) and isinstance(name.value, str)):
            return
        value = name.value
        if value.isidentifier() and not value.startswith("_") and value not in CONFIG_FIELDS:
            self.report(
                node,
                f"config attribute string '{value}' does not name a "
                "DetectorConfig field",
            )
