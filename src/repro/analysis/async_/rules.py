"""The five concurrency-safety rules (R012-R016).

All five run over the assembled program graph through the shared
:class:`~repro.analysis.async_.lockset.ConcurrencyModel` — one lock-set
dataflow and one task-reachability pass feed every rule.  Findings
carry the spawn/run chain as evidence (``task root 'x' spawned at
file:line -> a -> b``), the same per-hop file:line idiom as R007-R011.
"""

from __future__ import annotations

from ..findings import Finding
from ..rulebase import GraphRule, register_graph
from .lockset import PARKING_METHODS, concurrency_model

__all__: list[str] = []


class _ConcurrencyRule(GraphRule):
    category = "concurrency"


@register_graph
class ForeignAwaitRule(_ConcurrencyRule):
    id = "R012"
    title = "task-reachable coroutine awaits a non-scheduler primitive"
    example = "await asyncio.sleep(0.5)  # inside a scheduler task"
    rationale = """The service's deterministic mode only works because the
    virtual driver sees every suspension: a registered task may only suspend
    through scheduler primitives (sleep, park, join, the lock/queue built on
    them).  A coroutine reachable from Scheduler.spawn/run that awaits raw
    asyncio.sleep, a bare future, or gather parks where the driver cannot
    look, so virtual time stalls and the run wedges.  The scheduler modules
    themselves are exempt — they are where the primitives bottom out."""

    def run(self, graph) -> list[Finding]:
        model = concurrency_model(graph)
        allowlist = tuple(
            graph.config.options_for(self.id).get("primitive-allowlist", ())
        )
        for node_id in sorted(model.task_reach):
            info = graph.nodes[node_id]
            if model.is_scheduler_path(info.path):
                continue
            for site in model.async_info(node_id).awaits:
                if site.target is None:
                    continue
                resolved = graph.resolve_target(info.module, site.target)
                if resolved is None or resolved[0] != "external":
                    continue
                dotted = ".".join(resolved[1])
                if any(
                    dotted == allowed or dotted.startswith(allowed + ".")
                    for allowed in allowlist
                ):
                    continue
                self.report(
                    graph,
                    info.path,
                    site.line,
                    f"task-reachable coroutine '{info.dotted}' awaits foreign "
                    f"'{dotted}' — only scheduler primitives may suspend a "
                    "registered task (anything else stalls virtual time)",
                    evidence=(
                        *model.chain(node_id),
                        f"{info.dotted} awaits {dotted}() "
                        f"({info.path}:{site.line})",
                    ),
                )
        return self.findings


@register_graph
class LockOrderInversionRule(_ConcurrencyRule):
    id = "R013"
    title = "lock-order inversion across ServiceLock acquisitions"
    example = "async with self._b:  # elsewhere: a taken before b"
    rationale = """Two tasks acquiring the same locks in opposite orders
    deadlock the moment their schedules interleave — and under the virtual
    scheduler that interleaving is deterministic, so the hang reproduces
    every run.  This rule builds the acquisition graph from the lock-set
    dataflow (an edge per lock acquired while another is held, including
    sharded pools like TenantBankCache's crc32 shards, which count as one
    identity) and flags every cycle with each acquisition site."""

    def run(self, graph) -> list[Finding]:
        model = concurrency_model(graph)
        edges: dict[str, dict[str, tuple[str, int, str]]] = {}
        for node_id in sorted(graph.nodes):
            info = graph.nodes[node_id]
            entry = model.entry.get(node_id, frozenset())
            regions = model.regions.get(node_id, ())
            for start, _end, key in regions:
                held = set(entry)
                held.update(
                    other_key
                    for o_start, o_end, other_key in regions
                    if o_start <= start <= o_end and other_key != key
                )
                for holder in held:
                    if holder != key:
                        edges.setdefault(holder, {}).setdefault(
                            key, (info.path, start, info.dotted)
                        )
        for cycle in self._cycles(edges):
            path, line, _dotted = edges[cycle[0]][cycle[1]]
            pretty = " -> ".join([*cycle, cycle[0]])
            evidence = []
            for i, held in enumerate(cycle):
                acquired = cycle[(i + 1) % len(cycle)]
                e_path, e_line, e_dotted = edges[held][acquired]
                evidence.append(
                    f"{e_dotted} acquires {acquired} while holding {held} "
                    f"({e_path}:{e_line})"
                )
            self.report(
                graph,
                path,
                line,
                f"lock-order inversion: {pretty} — tasks taking these locks "
                "in opposite orders deadlock",
                evidence=tuple(evidence),
            )
        return self.findings

    @staticmethod
    def _cycles(edges) -> list[tuple[str, ...]]:
        """Simple cycles, each enumerated once, rooted at its smallest
        lock key; bounded depth keeps pathological graphs cheap."""
        cycles: list[tuple[str, ...]] = []
        for start in sorted(edges):
            stack = [(start, (start,))]
            while stack:
                node, trail = stack.pop()
                for nxt in sorted(edges.get(node, ()), reverse=True):
                    if nxt == start and len(trail) >= 2:
                        cycles.append(trail)
                    elif nxt > start and nxt not in trail and len(trail) < 8:
                        stack.append((nxt, trail + (nxt,)))
        return cycles


@register_graph
class BlockingCallRule(_ConcurrencyRule):
    id = "R014"
    title = "blocking call under a ServiceLock or inside a scheduler task"
    example = "async with self._lock: results = engine.map_batches(fn, clips)"
    rationale = """time.sleep, file I/O, or a whole ExecutionEngine.map_batches fan-out
    executed while a ServiceLock is held serializes every contending session
    behind wall-clock work; executed inside a scheduler task it freezes the
    cooperative event loop outright (and deadlocks the virtual driver, which
    may only advance when every task is parked).  Blocking work belongs
    before the spawn or behind an executor boundary."""

    def run(self, graph) -> list[Finding]:
        model = concurrency_model(graph)
        for node_id in sorted(graph.nodes):
            info = graph.nodes[node_id]
            if model.is_scheduler_path(info.path):
                continue
            for site in model.async_info(node_id).blocking:
                self._check(graph, model, node_id, site.line, site.detail)
        for module, summary in sorted(graph.modules.items()):
            if model.is_scheduler_path(summary.path):
                continue
            for site in summary.map_sites:
                node_id = f"{module}:{site.func}"
                if node_id in graph.nodes:
                    self._check(
                        graph, model, node_id, site.line,
                        "ExecutionEngine.map_batches",
                    )
        return self.findings

    def _check(self, graph, model, node_id: str, line: int, detail: str) -> None:
        info = graph.nodes[node_id]
        held = model.locks_at(node_id, line)
        if held:
            locks = ", ".join(sorted(held))
            self.report(
                graph,
                info.path,
                line,
                f"'{info.dotted}' performs blocking {detail} while holding "
                f"{locks} — every contender stalls behind wall-clock work",
                evidence=(
                    *model.chain(node_id),
                    f"{info.dotted} blocks on {detail} holding [{locks}] "
                    f"({info.path}:{line})",
                ),
            )
        elif node_id in model.task_reach:
            self.report(
                graph,
                info.path,
                line,
                f"scheduler task '{info.dotted}' performs blocking {detail} — "
                "a task must never block the cooperative event loop",
                evidence=(
                    *model.chain(node_id),
                    f"{info.dotted} blocks on {detail} ({info.path}:{line})",
                ),
            )


@register_graph
class UnboundedWaitRule(_ConcurrencyRule):
    id = "R015"
    title = "unbounded wait with no wall_guard_s anywhere up the chain"
    example = "item = await queue.get()  # no timeout on any caller"
    rationale = """A park/get/join with no timeout only resolves if some other
    task resolves it; when that task died or never ran, the service hangs
    forever.  Scheduler.run's wall_guard_s is the safety net that turns the
    hang into a TimeoutError, so every run site must pass it — and a
    timeout-less wait is only tolerable when every run root above it is
    guarded.  Both halves are flagged with their chain."""

    def run(self, graph) -> list[Finding]:
        model = concurrency_model(graph)
        for node_id in sorted(graph.nodes):
            info = graph.nodes[node_id]
            if model.is_scheduler_path(info.path):
                continue
            for site in model.async_info(node_id).runs:
                if not site.has_guard:
                    self.report(
                        graph,
                        info.path,
                        site.line,
                        f"'{info.dotted}' drives a scheduler run without "
                        "wall_guard_s — a wedged task hangs the process "
                        "instead of raising TimeoutError",
                    )
        for node_id in sorted(model.unguarded):
            info = graph.nodes[node_id]
            if model.is_scheduler_path(info.path):
                continue
            for site in model.async_info(node_id).awaits:
                if site.method not in PARKING_METHODS or site.has_timeout:
                    continue
                self.report(
                    graph,
                    info.path,
                    site.line,
                    f"'{info.dotted}' awaits {site.method}() with no timeout "
                    "and no wall_guard_s anywhere up the chain — nothing "
                    "bounds this wait",
                    evidence=(
                        *model.chain(node_id),
                        f"{info.dotted} awaits {site.method}() unbounded "
                        f"({info.path}:{site.line})",
                    ),
                )
        return self.findings


@register_graph
class SharedStateRaceRule(_ConcurrencyRule):
    id = "R016"
    title = "shared state written from distinct spawn sites with no common lock"
    example = "self._sessions[sid] = state  # two tasks, no shared lock"
    rationale = """Cooperative tasks interleave at every await: two tasks from
    different spawn sites writing the same object attribute or module global
    with no lock in both writers' may-hold locksets is a check-then-act race
    — rare enough to pass tests, deterministic enough under the virtual
    scheduler to corrupt a load test run.  Writers that never suspend are
    exempt (they are atomic between awaits by construction)."""

    def run(self, graph) -> list[Finding]:
        model = concurrency_model(graph)
        ignore = frozenset(
            graph.config.options_for(self.id).get("ignore-attrs", ())
        )
        writers: dict[str, list[tuple[str, object]]] = {}
        for node_id in sorted(model.task_reach):
            info = graph.nodes[node_id]
            if model.is_scheduler_path(info.path):
                continue
            if not model.origins.get(node_id):
                continue
            for write in model.async_info(node_id).writes:
                if write.attr in ignore:
                    continue
                scope = "<global>." if write.is_global else ""
                writers.setdefault(
                    f"{info.module}:{scope}{write.attr}", []
                ).append((node_id, write))
        for attr_key in sorted(writers):
            self._check_attr(graph, model, attr_key, writers[attr_key])
        return self.findings

    @staticmethod
    def _racy(model, node_id: str) -> bool:
        info = model.async_info(node_id)
        return info.is_async and bool(info.awaits)

    def _check_attr(self, graph, model, attr_key: str, sites) -> None:
        for i, (node_a, write_a) in enumerate(sites):
            for node_b, write_b in sites[i:]:
                origins_a = model.origins[node_a]
                origins_b = model.origins[node_b]
                if not any(a != b for a in origins_a for b in origins_b):
                    continue
                if model.locks_at(node_a, write_a.line) & model.locks_at(
                    node_b, write_b.line
                ):
                    continue
                if not (self._racy(model, node_a) or self._racy(model, node_b)):
                    continue
                info_a = graph.nodes[node_a]
                info_b = graph.nodes[node_b]
                attr = attr_key.split(":", 1)[1]
                self.report(
                    graph,
                    info_a.path,
                    write_a.line,
                    f"'{attr}' is written from distinct spawn sites with no "
                    "common lock — a cross-task check-then-act race",
                    evidence=(
                        f"{info_a.dotted} writes {attr} "
                        f"({info_a.path}:{write_a.line})",
                        *model.chain(node_a),
                        f"{info_b.dotted} writes {attr} "
                        f"({info_b.path}:{write_b.line})",
                        *model.chain(node_b),
                    ),
                )
                return
