"""reprograph: the whole-program layer beneath reprolint.

Per-module summaries (:mod:`.summarize`, one fact pass per function,
content-hash cached by :mod:`.cache` through the generic :mod:`.codec`)
are assembled into a project-wide symbol table and call graph
(:mod:`.callgraph`) with fixed-point transitive effect propagation on
the shared :func:`~.callgraph.propagate` solver; the interprocedural
rules R007-R011 (:mod:`.rules`) run over the result and report
findings with per-hop call-chain evidence.  ``--dump-graph``
serialization lives in :mod:`.dump`.
"""

from __future__ import annotations

from .cache import SummaryCache, content_hash
from .callgraph import Edge, NodeInfo, ProgramGraph, build_graph
from .dump import GRAPH_SCHEMA_VERSION, dump_dot, dump_json
from .summarize import ModuleSummary, error_summary, summarize_module
from .symbols import Binding, collect_bindings, module_name_for

__all__ = [
    "Binding",
    "Edge",
    "GRAPH_SCHEMA_VERSION",
    "ModuleSummary",
    "NodeInfo",
    "ProgramGraph",
    "SummaryCache",
    "build_graph",
    "collect_bindings",
    "content_hash",
    "dump_dot",
    "dump_json",
    "error_summary",
    "module_name_for",
    "summarize_module",
]
