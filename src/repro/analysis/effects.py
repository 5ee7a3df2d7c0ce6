"""Shared effect vocabulary: which external calls are RNG / wall-clock.

The per-file rules (R001/R002) and the whole-program summarizer
(:mod:`repro.analysis.graph.summarize`) must agree on what counts as
"unseeded randomness" and "a wall-clock read" — otherwise a call the
per-file rule flags could propagate differently through the call graph.
Both layers classify a fully resolved dotted path (``numpy.random.rand``,
``time.perf_counter``) through the two functions here, and both read
pool submissions (R003 per file, R007/R011/R014 through the graph)
through :func:`map_batches_args`.
"""

from __future__ import annotations

import ast

__all__ = [
    "rng_effect",
    "clock_effect",
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


def rng_effect(path: tuple[str, ...]) -> str | None:
    """The offending dotted name when ``path`` draws from global RNG
    state, else None (seeded constructors are allowed)."""
    if len(path) == 3 and path[:2] == ("numpy", "random") and path[2] not in RNG_ALLOWED_NUMPY:
        return ".".join(path)
    if len(path) == 2 and path[0] == "random":
        return ".".join(path)
    return None


def clock_effect(path: tuple[str, ...]) -> str | None:
    """The offending dotted name when ``path`` reads the wall clock."""
    if path in WALL_CLOCK_PATHS:
        return ".".join(path)
    return None


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
