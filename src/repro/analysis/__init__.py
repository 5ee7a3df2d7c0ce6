"""reprolint — an AST-based determinism & contract analyzer for this repo.

The system's headline guarantees (pool==serial bit-identity in the
execution engine, seeded fault schedules, reproducible z1-z4 features)
are invariants of *how code is written*, not just of what the tests
assert: one stray ``np.random.*`` global call, wall-clock read, or
unpicklable closure handed to the pool silently breaks them.  This
package is a static pass that catches exactly those defect classes
before a single frame is simulated.

Per-file rules (one module at a time):

========  ==========================================================
E000      file cannot be analyzed (syntax error / not UTF-8)
R001      unseeded global randomness (np.random.* / random.*)
R002      wall-clock reads outside the configured clock allowlist
R003      unpicklable payloads handed to ``ExecutionEngine.map_batches``
R004      exact float equality on computed values
R005      mutable default arguments / dataclass field defaults
R006      DetectorConfig contract violations (unknown field names in
          ``with_overrides`` keywords and attribute strings)
========  ==========================================================

Whole-program rules (reprograph: project-wide call graph with
fixed-point effect propagation, see :mod:`repro.analysis.graph`):

========  ==========================================================
R007      transitively-unseeded randomness reachable from a pool
          payload or ``run_*`` entry point
R008      transitive wall-clock reachability outside the allowlist
R009      public functions referenced only from tests, or not at all
R010      ``repro.api`` facade drift (both directions)
R011      unpicklable objects flowing into pool payloads across
          module boundaries
R012-16   concurrency safety (:mod:`repro.analysis.async_`)
R017-21   secret flow (:mod:`repro.analysis.taint`)
========  ==========================================================

All fifteen read the same per-module summaries: one fact pass per
function (:mod:`repro.analysis.graph.summarize`) over the one-pass module
index the per-file rules query (:mod:`repro.analysis.context`), cached
through one generic dataclass/JSON codec (:mod:`repro.analysis.graph.codec`), and
every fixed point runs on one solver
(:func:`repro.analysis.graph.callgraph.propagate`).

Run it as ``python -m repro lint [--format json]`` (the graph pass is
on by default; ``--no-graph`` for per-file only, ``--changed-only``
for the incremental pre-commit path); suppress a single finding inline
with ``# reprolint: disable=R001`` and grandfather legacy findings via
the checked-in baseline file (see :mod:`repro.analysis.baseline`).
How to add a rule is documented in :mod:`repro.analysis.rulebase` and
DESIGN.md §3d/§3f.  Knobs live in ``[tool.reprolint]`` in
pyproject.toml (see :mod:`repro.analysis.config`).
"""

from . import rules  # noqa: F401  (importing registers the per-file rules)
from .baseline import (
    DEFAULT_BASELINE_NAME,
    load_baseline,
    split_baselined,
    write_baseline,
)
from .config import DEFAULT_LINT_CONFIG, LintConfig, load_lint_config
from .context import ModuleContext
from .findings import Finding, fingerprint_findings
from .graph import rules as graph_rules  # noqa: F401  (registers R007-R011)
from .linter import LintResult, analyze_source, collect_files, lint_paths
from .reporters import render_json, render_text
from .rulebase import (
    GraphRule,
    Rule,
    registered_graph_rules,
    registered_rules,
    rule_metadata,
)

__all__ = [
    "DEFAULT_BASELINE_NAME",
    "DEFAULT_LINT_CONFIG",
    "Finding",
    "GraphRule",
    "LintConfig",
    "LintResult",
    "ModuleContext",
    "Rule",
    "analyze_source",
    "collect_files",
    "fingerprint_findings",
    "lint_paths",
    "load_baseline",
    "load_lint_config",
    "registered_graph_rules",
    "registered_rules",
    "render_json",
    "render_text",
    "rule_metadata",
    "split_baselined",
    "write_baseline",
]
