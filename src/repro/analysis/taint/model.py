"""The secret-flow model: per-function dataflow + return-level propagation.

One :class:`TaintModel` is built per program graph (memoized on the
graph object, like the concurrency model) and feeds all five taint
rules.  It evaluates the cached :class:`~repro.analysis.graph.summarize.TaintInfo` records
against the ``[tool.reprolint.taint]`` policy:

* every identifier is typed by name through
  :meth:`TaintPolicy.name_level` (``protocol_secret`` → secret,
  ``ack_tag`` → tag) — the lattice is ``clean < tag < secret``, where
  tag-level values (digests, ack tags) are *emit-safe but
  compare-sensitive*: printing one is fine, ``==`` on one is R020;
* a per-function dataflow pushes levels through assignments to a local
  fixed point (loops converge because levels only rise);
* calls follow the precedence **redactor → source → sanitizer →
  pass-through**: a listed redactor clears to clean, a listed source
  (the PRF hierarchy) returns secret, a sanitizer caps its inputs at
  tag, and everything else — including resolved project calls, whose
  interprocedural return level is folded in — passes the maximum of
  its receiver and argument levels through;
* return levels propagate on the one call-graph solver,
  :func:`~repro.analysis.graph.callgraph.propagate`, with no round
  bound, so ``key = self._derive(); print(key)`` is caught however deep
  the derivation lives; a function's last evaluation is its final env.

The level constants are deliberately named ``*_LEVEL`` — a module
constant literally called ``SECRET`` would be typed secret by the
analyzer's own name policy, and the pass lints this tree too.

Every non-clean value carries a **flow chain**: one ``file:line`` hop
per step from the source read to the value under inspection, so a
finding shows *how* the secret got to the sink, not just where it
landed.  Chains are deterministic — atoms and calls are evaluated in
sorted order and a level tie never replaces an existing chain.

Test modules are excluded from the model entirely: test code does not
ship, and tests legitimately print, compare and pickle the synthetic
secrets they construct.
"""

from __future__ import annotations

import dataclasses

from ..config import TaintConfig
from ..context import is_test_path
from ..graph.callgraph import Edge, propagate
from ..graph.summarize import CallUse, ValueExpr

__all__ = [
    "CLEAN_LEVEL",
    "TAG_LEVEL",
    "SECRET_LEVEL",
    "TaintPolicy",
    "TaintValue",
    "TaintModel",
    "taint_model",
]

CLEAN_LEVEL = 0
TAG_LEVEL = 1
SECRET_LEVEL = 2

_LEVEL_NAMES = {CLEAN_LEVEL: "clean", TAG_LEVEL: "tag", SECRET_LEVEL: "secret"}

#: Flow chains are truncated (head + tail) beyond this many hops.
_MAX_CHAIN = 8


@dataclasses.dataclass(frozen=True)
class TaintValue:
    """A lattice level plus the ``file:line`` flow chain that set it."""

    level: int
    chain: tuple[str, ...] = ()

    @property
    def level_name(self) -> str:
        return _LEVEL_NAMES[self.level]


CLEAN_VALUE = TaintValue(CLEAN_LEVEL)


def _join(current: TaintValue, candidate: TaintValue) -> TaintValue:
    """Lattice join; on a tie the existing chain wins (determinism)."""
    return candidate if candidate.level > current.level else current


def _extend(chain: tuple[str, ...], hop: str) -> tuple[str, ...]:
    if hop in chain:
        return chain  # cycles in the local dataflow repeat hops
    if len(chain) >= _MAX_CHAIN:
        return (*chain[: _MAX_CHAIN - 2], "...", hop)
    return (*chain, hop)


class TaintPolicy:
    """The configured source/sink/sanitizer matchers."""

    def __init__(self, config: TaintConfig) -> None:
        self.config = config

    # -- identifiers ----------------------------------------------------

    @staticmethod
    def _name_matches(ident: str, entries: tuple[str, ...]) -> bool:
        norm = ident.strip("_").lower()
        return any(
            norm == entry or norm.endswith("_" + entry) for entry in entries
        )

    def name_level(self, ident: str) -> int:
        if self._name_matches(ident, self.config.source_attrs):
            return SECRET_LEVEL
        if self._name_matches(ident, self.config.tag_names):
            return TAG_LEVEL
        return CLEAN_LEVEL

    # -- calls ----------------------------------------------------------

    @staticmethod
    def _match(entries: tuple[str, ...], use: CallUse, dotted: str | None) -> bool:
        for entry in entries:
            if "@" in entry:
                method, _, recv = entry.partition("@")
                if use.method == method and (
                    recv in use.receiver if recv else bool(use.receiver)
                ):
                    return True
            elif "." in entry:
                if dotted is None:
                    continue
                if entry.endswith("."):
                    if dotted.startswith(entry):
                        return True
                elif dotted == entry or dotted.endswith("." + entry):
                    return True
            elif use.method == entry:
                return True
        return False

    def is_redactor(self, use: CallUse, dotted: str | None) -> bool:
        return self._match(self.config.redactors, use, dotted)

    def is_source(self, use: CallUse, dotted: str | None) -> bool:
        return self._match(self.config.source_returns, use, dotted)

    def is_sanitizer(self, use: CallUse, dotted: str | None) -> bool:
        return self._match(self.config.sanitizers, use, dotted)

    def sink_kind(self, use: CallUse, dotted: str | None) -> str | None:
        if self._match(self.config.output_sinks, use, dotted):
            return "output"
        if self._match(self.config.pickle_sinks, use, dotted):
            return "pickle"
        return None


class TaintModel:
    """Dataflow results for every non-test function in the graph."""

    def __init__(self, graph) -> None:  # graph: ProgramGraph
        self.graph = graph
        self.policy = TaintPolicy(graph.config.taint)
        self._node_ids = [
            node_id
            for node_id in sorted(graph.nodes)
            if not is_test_path(graph.nodes[node_id].path)
        ]
        #: node_id -> return-level TaintValue (interprocedural table).
        self.returns = {node_id: CLEAN_VALUE for node_id in self._node_ids}
        #: node_id -> local name -> TaintValue (final environments).
        self.envs: dict[str, dict[str, TaintValue]] = {}
        self._solve()

    # -- construction ---------------------------------------------------

    def _solve(self) -> None:
        """Evaluate every function once in sorted order, then re-evaluate
        a caller whenever a callee's return level rose after the caller's
        last evaluation.  Levels only rise over three values, so the
        solver ends."""
        # Rises are numbered in order; a caller evaluated at clock c has
        # seen every rise numbered <= c.
        clock = 0
        raised_at: dict[str, int] = {}
        evaluated_at: dict[str, int] = {}

        def evaluate(node_id: str) -> bool:
            nonlocal clock
            evaluated_at[node_id] = clock
            if not self._evaluate(node_id):
                return False
            clock += 1
            raised_at[node_id] = clock
            return True

        for node_id in self._node_ids:
            evaluate(node_id)

        def step(edge: Edge) -> bool:
            seen = evaluated_at.get(edge.caller)
            if seen is None or raised_at.get(edge.callee, 0) <= seen:
                return False
            return evaluate(edge.caller)

        propagate(self.graph, step)

    def _evaluate(self, node_id: str) -> bool:
        """Store ``node_id``'s env; True when its return level rose."""
        env = self.envs[node_id] = self._function_env(node_id)
        value = CLEAN_VALUE
        node = self.graph.nodes[node_id]
        for record in self.taint_info(node_id).returns:
            returned = self.expr_value(record.value, env, node_id)
            if returned.level > value.level:
                value = TaintValue(
                    returned.level,
                    _extend(
                        returned.chain,
                        f"{node.dotted} returns {returned.level_name} "
                        f"material ({node.path}:{record.line})",
                    ),
                )
        if value.level > self.returns[node_id].level:
            self.returns[node_id] = value
            return True
        return False

    def _function_env(self, node_id: str) -> dict[str, TaintValue]:
        info = self.graph.nodes[node_id]
        taint = self.taint_info(node_id)
        env: dict[str, TaintValue] = {}
        for param in taint.params:
            level = self.policy.name_level(param)
            if level > CLEAN_LEVEL:
                env[param] = TaintValue(
                    level,
                    (
                        f"{info.dotted} takes {_LEVEL_NAMES[level]}-typed "
                        f"parameter '{param}' ({info.path}:{info.line})",
                    ),
                )
        changed = True
        while changed:
            changed = False
            for record in taint.assigns:
                value = self.expr_value(record.value, env, node_id)
                if value.level == CLEAN_LEVEL:
                    continue
                hop = (
                    f"{info.dotted} assigns {value.level_name} material to "
                    f"'{', '.join(record.targets)}' ({info.path}:{record.line})"
                )
                candidate = TaintValue(value.level, _extend(value.chain, hop))
                for target in record.targets:
                    current = env.get(target, CLEAN_VALUE)
                    if candidate.level > current.level:
                        env[target] = candidate
                        changed = True
        return env

    # -- evaluation -----------------------------------------------------

    def dotted_for(self, use: CallUse, node_id: str) -> str | None:
        """The resolved dotted name of a call's target, when known."""
        target = use.target
        if target is None:
            return None
        if target.kind == "dotted":
            return target.target
        module = self.graph.nodes[node_id].module
        resolved = self.graph.resolve_target(module, target)
        if resolved is None:
            return None
        if resolved[0] == "func":
            return self.graph.nodes[resolved[1]].dotted
        if resolved[0] == "class":
            return f"{resolved[1]}.{resolved[2]}"
        return ".".join(resolved[1])

    def expr_value(
        self, expr: ValueExpr, env: dict[str, TaintValue], node_id: str
    ) -> TaintValue:
        info = self.graph.nodes[node_id]
        value = CLEAN_VALUE
        for atom in expr.atoms:
            level = self.policy.name_level(atom.ident)
            if atom.kind == "name":
                local = env.get(atom.ident, CLEAN_VALUE)
                if local.level >= level and local.level > value.level:
                    value = local
                    continue
            if level > value.level:
                value = TaintValue(
                    level,
                    (
                        f"{info.dotted} reads {_LEVEL_NAMES[level]}-typed "
                        f"'{atom.text or atom.ident}' ({info.path}:{atom.line})",
                    ),
                )
        for use in expr.calls:
            value = _join(value, self.call_value(use, env, node_id))
        return value

    def call_value(
        self, use: CallUse, env: dict[str, TaintValue], node_id: str
    ) -> TaintValue:
        info = self.graph.nodes[node_id]
        dotted = self.dotted_for(use, node_id)
        if self.policy.is_redactor(use, dotted):
            return CLEAN_VALUE
        if self.policy.is_source(use, dotted):
            return TaintValue(
                SECRET_LEVEL,
                (
                    f"{info.dotted} derives key material from "
                    f"{dotted or use.method}() ({info.path}:{use.line})",
                ),
            )
        inner = _join(
            self.expr_value(use.recv, env, node_id),
            self.expr_value(use.args, env, node_id),
        )
        if self.policy.is_sanitizer(use, dotted):
            if inner.level <= TAG_LEVEL:
                return inner
            return TaintValue(
                TAG_LEVEL,
                _extend(
                    inner.chain,
                    f"{info.dotted} sanitizes through "
                    f"{dotted or use.method}() ({info.path}:{use.line})",
                ),
            )
        if use.target is not None:
            resolved = self.graph.resolve_target(info.module, use.target)
            if resolved is not None and resolved[0] == "func":
                # A resolved project call answers with its interprocedural
                # return level, NOT an argument pass-through: verify_ack(key,
                # nonce, tag) returns a bool, and treating every consumer of
                # a secret as secret-producing would drown the rules.  The
                # callee's own dataflow (name-typed parameters, sources it
                # reads) is what its return level is built from.
                callee = self.returns.get(resolved[1])
                if callee is None:
                    return inner  # test-only or unanalyzed callee
                if callee.level == CLEAN_LEVEL:
                    return CLEAN_VALUE
                return TaintValue(
                    callee.level,
                    _extend(
                        callee.chain,
                        f"{info.dotted} -> "
                        f"{self.graph.nodes[resolved[1]].dotted} "
                        f"({info.path}:{use.line})",
                    ),
                )
        return inner

    # -- rule-facing queries --------------------------------------------

    def node_ids(self) -> list[str]:
        """Every analyzed (non-test) function, sorted."""
        return self._node_ids

    def env(self, node_id: str) -> dict[str, TaintValue]:
        return self.envs.get(node_id, {})

    def taint_info(self, node_id: str):
        info = self.graph.nodes[node_id]
        return self.graph.modules[info.module].functions[info.qual].taint_info


def taint_model(graph) -> TaintModel:
    """The memoized :class:`TaintModel` for ``graph``."""
    model = getattr(graph, "_taint_model", None)
    if model is None:
        model = TaintModel(graph)
        graph._taint_model = model
    return model
