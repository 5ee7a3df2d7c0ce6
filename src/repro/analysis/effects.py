"""Shared vocabulary of the per-file rules and the whole-program layer.

The per-file rules (R001-R006) and the whole-program summarizer
(:mod:`repro.analysis.graph.summarize`) must agree on what counts as
"unseeded randomness" and "a wall-clock read" — otherwise a call the
per-file rule flags could propagate differently through the call graph.
:func:`call_effect` classifies every fully resolved dotted path
(``numpy.random.rand``, ``time.perf_counter``) for both, and both read
pool submissions (R003 per file, R007/R011/R014 through the graph)
through :func:`map_batches_args`, as well as the small expression
shapes below.
"""

from __future__ import annotations

import ast

__all__ = [
    "call_effect",
    "callee_name",
    "dotted_parts",
    "first_call_in",
    "is_dataclass",
    "map_batches_args",
]

#: numpy.random attributes that construct explicit generators/seeds
#: rather than drawing from the hidden global state.
RNG_ALLOWED_NUMPY = frozenset(
    {
        "default_rng",
        "SeedSequence",
        "Generator",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }
)

#: Fully qualified callables that read the real clock.
WALL_CLOCK_PATHS = frozenset(
    {
        ("time", "time"),
        ("time", "time_ns"),
        ("time", "monotonic"),
        ("time", "monotonic_ns"),
        ("time", "perf_counter"),
        ("time", "perf_counter_ns"),
        ("time", "process_time"),
        ("time", "process_time_ns"),
        ("datetime", "datetime", "now"),
        ("datetime", "datetime", "utcnow"),
        ("datetime", "date", "today"),
    }
)


def call_effect(path: tuple[str, ...]) -> tuple[str, str] | None:
    """``("rng", detail)`` when ``path`` draws from global RNG state
    (seeded constructors are allowed), ``("clock", detail)`` when it
    reads the wall clock, else None; ``detail`` is the dotted name."""
    if len(path) == 3 and path[:2] == ("numpy", "random") and path[2] not in RNG_ALLOWED_NUMPY:
        return "rng", ".".join(path)
    if len(path) == 2 and path[0] == "random":
        return "rng", ".".join(path)
    if path in WALL_CLOCK_PATHS:
        return "clock", ".".join(path)
    return None


def dotted_parts(expr: ast.expr) -> tuple[str, list[str]] | None:
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


def callee_name(func: ast.expr) -> str:
    """The final segment of a callee (``print``, ``field``, ``get``)."""
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def first_call_in(expr: ast.expr) -> ast.Call | None:
    for sub in ast.walk(expr):
        if isinstance(sub, ast.Call):
            return sub
    return None


def is_dataclass(node: ast.ClassDef) -> bool:
    """True when any decorator is ``dataclass`` (bare, dotted or called)."""
    return any(
        callee_name(d.func if isinstance(d, ast.Call) else d) == "dataclass"
        for d in node.decorator_list
    )


def map_batches_args(
    node: ast.Call,
) -> tuple[ast.expr | None, ast.expr | None] | None:
    """``(fn, tasks)`` argument expressions of an
    ``<engine>.map_batches(fn, tasks)`` call (positional first, then the
    keyword), or None when ``node`` is not such a call."""
    func = node.func
    if not (isinstance(func, ast.Attribute) and func.attr == "map_batches"):
        return None
    if "engine" not in ast.unparse(func.value).lower():
        return None
    fn = node.args[0] if node.args else None
    tasks = node.args[1] if len(node.args) > 1 else None
    for keyword in node.keywords:
        if keyword.arg == "fn" and fn is None:
            fn = keyword.value
        elif keyword.arg == "tasks" and tasks is None:
            tasks = keyword.value
    return fn, tasks
