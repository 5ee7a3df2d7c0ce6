"""The five secret-flow rules (R017-R021).

All five run over the assembled program graph through the shared
:class:`~repro.analysis.taint.model.TaintModel` — one per-function
dataflow plus one interprocedural return fixed point feed every rule.
Findings carry the flow chain as evidence (``a reads secret-typed
'cfg.protocol_secret' (file:line) -> a assigns ... -> flows into
print()``), the same per-hop file:line idiom as R007-R016.

The lattice split matters to which rule fires where: secret-level
material (the deployment secret, tenant keys, session nonces, PRF
outputs) must never be emitted, pickled or repr'd — R017/R018/R019/
R021; tag-level material (digests, ack tags) is emit-safe but still
compare-sensitive, so R020 alone also covers it.  Test modules are skipped throughout —
test code does not ship and legitimately prints the synthetic secrets
it constructs.
"""

from __future__ import annotations

from ..context import is_test_path
from ..findings import Finding
from ..rulebase import GraphRule, register_graph
from .model import SECRET_LEVEL, TAG_LEVEL, taint_model

__all__: list[str] = []


class _TaintRule(GraphRule):
    category = "taint"


@register_graph
class SecretToOutputSinkRule(_TaintRule):
    id = "R017"
    title = "key material reaches an output sink"
    rationale = """The paper's threat model assumes the attacker reads
    everything the verifier emits — logs, CLI text, JSON/SLO/BENCH reports,
    trace spans, metrics labels.  Key material (the deployment secret,
    tenant keys, session nonces, raw PRF output) in any of those hands an
    adaptive attacker the challenge schedule and re-opens the replay hole
    the commitment ledger closed.  Digest-truncated tags are emit-safe;
    emit those instead, or route the value through redact()."""
    example = 'print(f"payload {handshake_payload(nonce, sid)}")'

    def run(self, graph) -> list[Finding]:
        model = taint_model(graph)
        for node_id in model.node_ids():
            info = graph.nodes[node_id]
            env = model.env(node_id)
            for use in model.taint_info(node_id).calls:
                dotted = model.dotted_for(use, node_id)
                if model.policy.sink_kind(use, dotted) != "output":
                    continue
                value = model.expr_value(use.args, env, node_id)
                if value.level != SECRET_LEVEL:
                    continue
                sink = dotted or use.method
                self.report(
                    graph,
                    info.path,
                    use.line,
                    f"'{info.dotted}' sends key material to output sink "
                    f"'{sink}' — emit a digest-truncated tag or redact() "
                    "the value instead",
                    snippet=f"{use.method}(...)",
                    evidence=(
                        *value.chain,
                        f"flows into {sink}() ({info.path}:{use.line})",
                    ),
                )
        return self.findings


@register_graph
class SecretInMessageRule(_TaintRule):
    id = "R018"
    title = "key material in an exception or assert message"
    rationale = """Exception text escapes every containment the code has:
    it lands in tracebacks, service SLO reports, CI logs, and operator
    terminals, none of which are secret-scoped.  An assert message is worse
    — it only renders in the failure report.  Raise with the session id or
    a digest tag; never interpolate the secret itself."""
    example = 'raise ValueError(f"bad ack for key {tenant_key!r}")'

    def run(self, graph) -> list[Finding]:
        model = taint_model(graph)
        for node_id in model.node_ids():
            info = graph.nodes[node_id]
            env = model.env(node_id)
            for record in model.taint_info(node_id).messages:
                value = model.expr_value(record.value, env, node_id)
                if value.level != SECRET_LEVEL:
                    continue
                where = (
                    "exception message"
                    if record.kind == "raise"
                    else "assert message"
                )
                self.report(
                    graph,
                    info.path,
                    record.line,
                    f"'{info.dotted}' interpolates key material into an "
                    f"{where} — tracebacks and failure reports are not "
                    "secret-scoped; use the session id or a digest tag",
                    evidence=(
                        *value.chain,
                        f"flows into {where} ({info.path}:{record.line})",
                    ),
                )
        return self.findings


@register_graph
class SecretAcrossPickleRule(_TaintRule):
    id = "R019"
    title = "key material crosses the pickle boundary"
    rationale = """ExecutionEngine.map_batches payloads and shared-
    memory packs are pickled into worker processes: the bytes traverse
    pipes and /dev/shm segments that outlive the call and are readable by
    anything sharing the machine.  Workers that need challenge state
    should receive the derived schedule or a digest tag, not the key that
    derives every future session."""
    example = "engine.map_batches(verify_worker, [(clip, tenant_key)])"

    def run(self, graph) -> list[Finding]:
        model = taint_model(graph)
        for node_id in model.node_ids():
            info = graph.nodes[node_id]
            env = model.env(node_id)
            for use in model.taint_info(node_id).calls:
                dotted = model.dotted_for(use, node_id)
                if model.policy.sink_kind(use, dotted) != "pickle":
                    continue
                value = model.expr_value(use.args, env, node_id)
                if value.level != SECRET_LEVEL:
                    continue
                sink = dotted or use.method
                self.report(
                    graph,
                    info.path,
                    use.line,
                    f"'{info.dotted}' ships key material across the pickle "
                    f"boundary via '{sink}' — send the derived schedule or "
                    "a digest tag to workers, never the key",
                    snippet=f"{use.method}(...)",
                    evidence=(
                        *value.chain,
                        f"pickled via {sink}() ({info.path}:{use.line})",
                    ),
                )
        return self.findings


@register_graph
class NonConstantTimeCompareRule(_TaintRule):
    id = "R020"
    title = "non-constant-time comparison of tag or key material"
    rationale = """``==`` short-circuits on the first differing byte, so
    response time leaks how much of a forged tag matched — a classic
    oracle that recovers an HMAC tag byte by byte over the network the
    protocol already assumes is hostile.  Compare tags, nonces and keys
    with hmac.compare_digest, which runs in constant time."""
    example = "if tag == expected_tag:  # use hmac.compare_digest"

    def run(self, graph) -> list[Finding]:
        model = taint_model(graph)
        for node_id in model.node_ids():
            info = graph.nodes[node_id]
            env = model.env(node_id)
            for record in model.taint_info(node_id).compares:
                value = model.expr_value(record.value, env, node_id)
                if value.level < TAG_LEVEL:
                    continue
                self.report(
                    graph,
                    info.path,
                    record.line,
                    f"'{info.dotted}' compares {value.level_name} material "
                    f"with '{record.op}' — short-circuit comparison leaks a "
                    "timing oracle; use hmac.compare_digest",
                    snippet=record.text,
                    evidence=(
                        *value.chain,
                        f"compared with '{record.op}' "
                        f"({info.path}:{record.line})",
                    ),
                )
        return self.findings


@register_graph
class SecretDataclassFieldRule(_TaintRule):
    id = "R021"
    title = "secret-bearing dataclass field without repr=False"
    rationale = """Dataclasses write every field into __repr__, and reprs
    leak through paths no dataflow can follow: error messages that format
    the config, debuggers, logging of whole objects, pytest assertion
    rewriting.  A field holding key material must opt out with
    field(repr=False) so the default rendering never contains it."""
    example = 'protocol_secret: str = "change-me"  # field(repr=False)'

    def run(self, graph) -> list[Finding]:
        model = taint_model(graph)
        for module in sorted(graph.modules):
            summary = graph.modules[module]
            if summary.error is not None or is_test_path(summary.path):
                continue
            for name in sorted(summary.classes):
                cls = summary.classes[name]
                for field in cls.fields:
                    if model.policy.name_level(field.name) != SECRET_LEVEL:
                        continue
                    if field.repr_hidden:
                        continue
                    self.report(
                        graph,
                        summary.path,
                        field.line,
                        f"dataclass field '{module}.{name}.{field.name}' "
                        "holds key material but is rendered by the default "
                        "__repr__ — declare it field(repr=False)",
                        snippet=field.name,
                        evidence=(
                            f"secret-typed field '{field.name}' declared on "
                            f"{name} ({summary.path}:{field.line})",
                        ),
                    )
        return self.findings
