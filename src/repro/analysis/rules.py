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
from .effects import callee_name, first_call_in, is_dataclass, map_batches_args
from .rulebase import Rule, register

__all__ = ["CONFIG_FIELDS"]

#: The real field set of DetectorConfig — R006 checks string-level uses
#: against it, the static twin of ``with_overrides``'s runtime check.
CONFIG_FIELDS = frozenset(field.name for field in dataclasses.fields(DetectorConfig))


def _is_float_literal(node: ast.expr) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


def _is_computed(expr: ast.expr, computed: set[str]) -> bool:
    """True when ``expr`` holds a call, or reads (through attribute and
    subscript layers) a name already known to be computed."""
    if first_call_in(expr) is not None:
        return True
    while isinstance(expr, (ast.Attribute, ast.Subscript)):
        expr = expr.value
    return isinstance(expr, ast.Name) and expr.id in computed


def _equality_pairs(node: ast.Compare):
    operands = [node.left, *node.comparators]
    for i, op in enumerate(node.ops):
        if isinstance(op, (ast.Eq, ast.NotEq)):
            yield operands[i], operands[i + 1]


def _computed_names(nodes: list[ast.AST]) -> set[str]:
    """Names assigned (directly or transitively, in ``nodes`` order)
    from a call result."""
    computed: set[str] = set()
    for node in nodes:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        if _is_computed(value, computed):
            for target in targets:
                elts = target.elts if isinstance(target, ast.Tuple) else [target]
                computed.update(el.id for el in elts if isinstance(el, ast.Name))
    return computed


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

    def check(self) -> None:
        # Classified once per call by the context, for this rule and the
        # whole-program layer alike, so the two passes cannot disagree
        # about what counts as seeded.
        for node in self.ctx.calls:
            effect = self.ctx.resolve_call(node)[1]
            if effect is None or effect[0] != "rng":
                continue
            detail = effect[1]
            if detail.startswith("numpy."):
                self.report(
                    node,
                    f"call to {detail} uses the global RNG; "
                    "seed an explicit numpy.random.default_rng instead",
                )
            else:
                self.report(
                    node,
                    f"call to stdlib {detail} uses the global RNG; "
                    "use a seeded numpy.random.default_rng instead",
                )


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

    def check(self) -> None:
        # The modules allowed to touch the real clock come from the
        # [tool.reprolint] wall-clock-allowlist (default: obs/clock.py
        # alone — not obs/ wholesale — plus the historical engine/perf.py).
        if self.ctx.path.endswith(tuple(self.ctx.config.wall_clock_allowlist)):
            return
        for node in self.ctx.calls:
            effect = self.ctx.resolve_call(node)[1]
            if effect is not None and effect[0] == "clock":
                self.report(
                    node,
                    f"wall-clock read {effect[1]}() outside obs/clock.py; "
                    "derive time from the session clock or route timing through "
                    "the obs.clock abstraction",
                )


@register
class UnpicklableTaskRule(Rule):
    id = "R003"
    title = "unpicklable payload handed to ExecutionEngine.map_batches"
    example = "engine.map_batches(lambda clip: grade(clip), clips)"
    rationale = """ExecutionEngine.map_batches sends the task function to
    worker processes by pickling; lambdas, closures and local defs fail
    there — but only once jobs > 1, so the defect hides in serial test
    runs.  Task functions must be module-level."""

    def check(self) -> None:
        for node in self.ctx.calls:
            args = map_batches_args(node)
            fn_arg = args[0] if args is not None else None
            if isinstance(fn_arg, ast.Lambda):
                self.report(
                    node,
                    "lambda passed to ExecutionEngine.map_batches cannot be "
                    "pickled to worker processes; use a module-level function",
                )
            elif isinstance(fn_arg, ast.Name) and self.ctx.binds_local_callable(
                node, fn_arg.id
            ):
                # Scoped: a module-level function that merely shares its
                # name with some other function's local def is fine.
                self.report(
                    node,
                    f"'{fn_arg.id}' is a nested def/lambda; "
                    "ExecutionEngine.map_batches payloads must be "
                    "module-level functions (picklable)",
                )


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

    def check(self) -> None:
        if self.ctx.is_test:
            self._check_test_asserts()
            return
        # Library code: every float-literal equality is suspect.
        for node in self.ctx.compares:
            if any(
                _is_float_literal(left) or _is_float_literal(right)
                for left, right in _equality_pairs(node)
            ):
                self.report(
                    node,
                    "exact float equality; computed floats need a tolerance "
                    "(math.isclose) — suppress inline if the value is set verbatim",
                )

    def _check_test_asserts(self) -> None:
        """Test code: only asserts, and only on computed values.  An
        assert's names count as computed from its outermost function
        (None for the module body, where nothing is)."""
        computed: dict = {None: set()}
        for node, outer in self.ctx.assert_compares:
            for left, right in _equality_pairs(node):
                if _is_float_literal(left):
                    other = right
                elif _is_float_literal(right):
                    other = left
                else:
                    continue
                if outer not in computed:
                    computed[outer] = _computed_names(self.ctx.function_nodes[outer])
                if _is_computed(other, computed[outer]):
                    self.report(
                        node,
                        "assert compares a computed float with exact ==; use "
                        "pytest.approx — suppress inline if set verbatim",
                    )
                    break


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
            target = self.ctx.resolve_call(node)[0]
            if (
                target is not None
                and len(target) == 2
                and target[0] == "numpy"
                and target[1] in self._NUMPY_CTORS
            ):
                return True
        return False

    def check(self) -> None:
        for node in self.ctx.callables:
            # kw_defaults holds None for keyword-only args without one.
            for default in (*node.args.defaults, *node.args.kw_defaults):
                if self._is_mutable(default):
                    self.report(
                        default,
                        "mutable default argument is shared across calls; "
                        "default to None and construct inside the function",
                    )
        for node in self.ctx.classes:
            if not is_dataclass(node):
                continue
            for stmt in node.body:
                if not isinstance(stmt, ast.AnnAssign) or stmt.value is None:
                    continue
                value = stmt.value
                if isinstance(value, ast.Call) and callee_name(value.func) == "field":
                    defaults = [kw.value for kw in value.keywords if kw.arg == "default"]
                else:
                    defaults = [value]
                for default in defaults:
                    if self._is_mutable(default):
                        self.report(
                            default,
                            "mutable dataclass field default is shared across "
                            "instances; use field(default_factory=...)",
                        )


@register
class ConfigContractRule(Rule):
    id = "R006"
    title = "DetectorConfig contract violation"
    example = "tuned = config.with_overrides(clip_durations=12.0)"
    rationale = """Config field names written as strings or keywords must
    exist on the dataclass — the static twin of with_overrides' runtime
    unknown-field check, catching typos before a sweep runs."""

    def check(self) -> None:
        for node in self.ctx.calls:
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "with_overrides":
                self._check_override_keywords(node)
            elif isinstance(func, ast.Name) and func.id in {"getattr", "setattr", "hasattr"}:
                self._check_getattr(node)

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
