"""Fixed-point lock-set dataflow and task reachability over the graph.

:class:`ConcurrencyModel` is built once per :class:`~repro.analysis.
graph.callgraph.ProgramGraph` (memoized on the graph object, so the
five rules R012-R016 share one computation) and answers four questions:

* **lock identity** — which ``with`` regions really guard a lock, and
  which lock.  Shapes recorded at summarize time are resolved here
  against the constructor tables (``ClassSummary.attr_ctors``,
  ``ModuleSummary.var_ctors``) and the configured lock classes, so the
  same ``TenantBankCache._locks[*]`` shard pool is one identity whether
  it is acquired directly or through a ``_shard_of``-style getter;
* **may-hold locksets** — a forward fixed point over the call graph:
  the locks possibly held at a function's entry are the union, over
  every call site reaching it, of the caller's entry set plus the
  regions enclosing that call site.  Monotone over a finite lattice,
  iterated in sorted order, hence terminating and deterministic;
* **task reachability** — BFS from every resolvable ``spawn``/``run``
  site, with first-discovery parent pointers so each finding can print
  a ``spawned at file:line -> a -> b`` chain;
* **guard status** — nodes reachable from a ``run`` site that passes no
  ``wall_guard_s`` (including tasks spawned from such nodes; the same
  BFS, seeded from those runs alone) are the only places R015 flags
  unbounded parks, because a guarded run bounds every wait under it.

Both fixed points (locksets and R016's spawn origins) run on the shared
:func:`~repro.analysis.graph.callgraph.propagate` solver.
"""

from __future__ import annotations

from ..config import LintConfig
from ..graph.callgraph import propagate

__all__ = ["ConcurrencyModel", "concurrency_model", "DEFAULT_LOCK_CLASSES"]

#: Class names (last dotted segment) treated as locks by default;
#: ``[tool.reprolint.rules.R013] lock-classes`` extends the set.
DEFAULT_LOCK_CLASSES = frozenset(
    {"ServiceLock", "Lock", "RLock", "Semaphore", "BoundedSemaphore", "Condition"}
)

#: Await-method names that park until externally resolved (R015's
#: unbounded-wait candidates); ``sleep`` always has a timer.
PARKING_METHODS = frozenset({"park", "get", "join"})


def _scheduler_modules(config: LintConfig) -> tuple[str, ...]:
    return tuple(config.scheduler_modules)


class ConcurrencyModel:
    """Lock identities, may-hold locksets, and task reachability."""

    def __init__(self, graph) -> None:
        self.graph = graph
        config = graph.config
        self._scheduler_suffixes = _scheduler_modules(config)
        self.lock_classes = DEFAULT_LOCK_CLASSES | frozenset(
            config.options_for("R013").get("lock-classes", ())
        )
        #: node_id -> sorted tuple of (start, end, lock_key) regions.
        self.regions: dict[str, tuple[tuple[int, int, str], ...]] = {}
        #: node_id -> locks possibly held at entry.
        self.entry: dict[str, frozenset[str]] = {}
        #: (site_path, site_line, kind, target_node, guarded) roots.
        self.roots: list[tuple[str, int, str, str, bool]] = []
        #: nodes reachable from any spawn/run root.
        self.task_reach: set[str] = set()
        #: nodes reachable from an unguarded run root (incl. spawns).
        self.unguarded: set[str] = set()
        #: BFS tree: node -> (parent_node | None, hop_line, root_index).
        self._parents: dict[str, tuple[str | None, int, int]] = {}
        #: node -> spawn-site origins {(path, line), ...} for R016.
        self.origins: dict[str, frozenset[tuple[str, int]]] = {}
        self._build()

    # ------------------------------------------------------------------
    # Scheduler-module blessing
    # ------------------------------------------------------------------

    def is_scheduler_path(self, path: str) -> bool:
        """The blessed modules that *implement* the primitives — the one
        place foreign awaits and raw asyncio are the point, not a bug."""
        return path.endswith(self._scheduler_suffixes)

    # ------------------------------------------------------------------
    # Lock identity
    # ------------------------------------------------------------------

    def _is_lock_ctor(self, ctor) -> bool:
        return ctor is not None and ctor.target.split(".")[-1] in self.lock_classes

    def _class_lock_attr(self, module: str, cls: str, attr: str) -> bool | None:
        """True/False when the class records a ctor for ``attr``; None
        when it records nothing (fall back to the name heuristic)."""
        summary = self.graph.modules.get(module)
        cls_summary = summary.classes.get(cls) if summary is not None else None
        if cls_summary is None:
            return None
        for name, ctor, _container in cls_summary.attr_ctors:
            if name == attr:
                return self._is_lock_ctor(ctor)
        return None

    @staticmethod
    def _name_heuristic(name: str) -> bool:
        lowered = name.lower()
        return "lock" in lowered and "clock" not in lowered

    def _lock_key(self, node_id: str, site) -> str | None:
        """Resolve one recorded lock region to a project-wide identity,
        or None when the shape turns out not to be a lock."""
        info = self.graph.nodes[node_id]
        module = info.module
        if site.shape in ("self_attr", "self_item"):
            cls = info.qual.split(".")[0] if "." in info.qual else None
            if cls is None:
                return None
            known = self._class_lock_attr(module, cls, site.name)
            if known is False:
                return None
            if known is None and not self._name_heuristic(site.name):
                return None
            suffix = "[*]" if site.shape == "self_item" else ""
            return f"{module}.{cls}.{site.name}{suffix}"
        if site.shape == "name":
            summary = self.graph.modules.get(module)
            module_ctor = (
                summary.var_ctors.get(site.name) if summary is not None else None
            )
            if site.ctor is not None:
                if not self._is_lock_ctor(site.ctor):
                    return None
                return f"{module}.{info.qual}.{site.name}"
            if module_ctor is not None:
                if not self._is_lock_ctor(module_ctor):
                    return None
                return f"{module}.{site.name}"
            if self._name_heuristic(site.name):
                return f"{module}.{info.qual}.{site.name}"
            return None
        if site.shape == "call":
            resolved = self.graph.resolve_target(module, site.getter)
            if resolved is None or resolved[0] != "func":
                return None
            getter = self.graph.nodes.get(resolved[1])
            if getter is None:
                return None
            g_summary = self.graph.modules[getter.module]
            g_fn = g_summary.functions.get(getter.qual)
            if g_fn is None:
                return None
            attr = g_fn.async_info.returns_lock_attr
            if attr is None:
                return None
            cls = getter.qual.split(".")[0] if "." in getter.qual else None
            if cls is not None:
                known = self._class_lock_attr(getter.module, cls, attr)
                if known is False:
                    return None
                if known is None and not self._name_heuristic(attr):
                    return None
                suffix = "[*]" if g_fn.async_info.returns_lock_item else ""
                return f"{getter.module}.{cls}.{attr}{suffix}"
            return None
        return None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _async_info(self, node_id: str):
        info = self.graph.nodes[node_id]
        return self.graph.modules[info.module].functions[info.qual].async_info

    def async_info(self, node_id: str):
        return self._async_info(node_id)

    def _build(self) -> None:
        graph = self.graph
        for node_id in sorted(graph.nodes):
            regions = []
            for site in self._async_info(node_id).locks:
                key = self._lock_key(node_id, site)
                if key is not None:
                    regions.append((site.line, site.end_line, key))
            self.regions[node_id] = tuple(sorted(regions))
        self._fixpoint_locksets()
        self._collect_roots()
        self._parents = self._reach(
            [(index, root[3]) for index, root in enumerate(self.roots)]
        )
        self.task_reach = set(self._parents)
        self.unguarded = set(
            self._reach(
                [
                    (index, target)
                    for index, (_p, _l, kind, target, guarded) in enumerate(self.roots)
                    if kind == "run" and not guarded
                ]
            )
        )
        self._propagate_origins()

    def _fixpoint_locksets(self) -> None:
        entry: dict[str, set[str]] = {n: set() for n in self.graph.nodes}

        def step(edge) -> bool:
            if edge.callee not in entry:
                return False
            held = entry[edge.caller] | self._regions_at(edge.caller, edge.line)
            if held <= entry[edge.callee]:
                return False
            entry[edge.callee] |= held
            return True

        propagate(self.graph, step)
        self.entry = {n: frozenset(locks) for n, locks in entry.items()}

    def _regions_at(self, node_id: str, line: int) -> set[str]:
        return {
            key
            for start, end, key in self.regions.get(node_id, ())
            if start <= line <= end
        }

    def locks_at(self, node_id: str, line: int) -> frozenset[str]:
        """Locks possibly held when ``node_id`` executes ``line``."""
        return self.entry.get(node_id, frozenset()) | frozenset(
            self._regions_at(node_id, line)
        )

    def _collect_roots(self) -> None:
        graph = self.graph
        for node_id in sorted(graph.nodes):
            info = graph.nodes[node_id]
            async_info = self._async_info(node_id)
            for spawn in async_info.spawns:
                target = self._resolve_root(info.module, spawn.target)
                if target is not None:
                    self.roots.append((info.path, spawn.line, "spawn", target, True))
            for run in async_info.runs:
                target = self._resolve_root(info.module, run.target)
                if target is not None:
                    self.roots.append(
                        (info.path, run.line, "run", target, run.has_guard)
                    )

    def _resolve_root(self, module: str, target) -> str | None:
        if target is None:
            return None
        resolved = self.graph.resolve_target(module, target)
        if resolved is None or resolved[0] != "func":
            return None
        return resolved[1]

    def _spawn_targets(self, node_id: str) -> list[tuple[str, int]]:
        info = self.graph.nodes[node_id]
        out = []
        for spawn in self._async_info(node_id).spawns:
            target = self._resolve_root(info.module, spawn.target)
            if target is not None:
                out.append((target, spawn.line))
        return out

    def _reach(self, seeds: list[tuple[int, str]]) -> dict[str, tuple[str | None, int, int]]:
        """Level-order BFS over call edges and spawn sites from the
        ``(root index, node)`` seeds: node -> (first-discovery parent or
        None, hop line, root index).  Levels are visited in sorted order,
        so the recorded parents (the evidence chains) are deterministic."""
        graph = self.graph
        parents: dict[str, tuple[str | None, int, int]] = {}
        frontier: list[str] = []
        for index, target in seeds:
            if target not in parents:
                parents[target] = (None, 0, index)
                frontier.append(target)
        while frontier:
            frontier.sort()
            next_frontier: list[str] = []
            for node_id in frontier:
                root_index = parents[node_id][2]
                hops = [
                    (edge.callee, edge.line)
                    for edge in graph.edges.get(node_id, ())
                    if edge.callee in graph.nodes
                ]
                for target, line in [*hops, *self._spawn_targets(node_id)]:
                    if target not in parents:
                        parents[target] = (node_id, line, root_index)
                        next_frontier.append(target)
            frontier = next_frontier
        return parents

    def _propagate_origins(self) -> None:
        """Which *spawn sites* each node may execute under — the
        distinct-task relation R016 races are defined over.  (Run roots
        are excluded: two ``run`` calls are two executions, not two
        concurrent tasks.)"""
        origins: dict[str, set[tuple[str, int]]] = {n: set() for n in self.graph.nodes}
        for path, line, kind, target, _guarded in self.roots:
            if kind == "spawn":
                origins[target].add((path, line))

        def step(edge) -> bool:
            mine = origins[edge.caller]
            if edge.callee not in origins or mine <= origins[edge.callee]:
                return False
            origins[edge.callee] |= mine
            return True

        # Spawned tasks are their own origin (seeded above), not their
        # spawner's, so origins only flow along ordinary call edges.
        propagate(self.graph, step)
        self.origins = {n: frozenset(o) for n, o in origins.items()}

    # ------------------------------------------------------------------
    # Evidence
    # ------------------------------------------------------------------

    def chain(self, node_id: str) -> tuple[str, ...]:
        """Hop list from the root site down to ``node_id``."""
        graph = self.graph
        hops: list[str] = []
        current: str | None = node_id
        root_index = None
        for _ in range(len(graph.nodes) + 1):
            if current is None or current not in self._parents:
                break
            parent, line, root_index = self._parents[current]
            if parent is None:
                break
            info = graph.nodes[parent]
            hops.append(
                f"{info.dotted} -> {graph.dotted_name(current)} ({info.path}:{line})"
            )
            current = parent
        if root_index is not None and current is not None:
            path, line, kind, _target, guarded = self.roots[root_index]
            guard = "" if kind == "spawn" else (
                " [guarded]" if guarded else " [no wall_guard_s]"
            )
            hops.append(
                f"task root '{graph.dotted_name(current)}' {kind}ed at "
                f"{path}:{line}{guard}"
            )
        hops.reverse()
        return tuple(hops)


def concurrency_model(graph) -> ConcurrencyModel:
    """The memoized :class:`ConcurrencyModel` for ``graph``."""
    model = getattr(graph, "_concurrency_model", None)
    if model is None:
        model = ConcurrencyModel(graph)
        graph._concurrency_model = model
    return model
