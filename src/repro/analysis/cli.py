"""Argument wiring for ``python -m repro lint``.

Kept inside the analysis package so ``repro.cli`` only registers the
subcommand; everything lint-specific (defaults, exit codes, baseline
handling) lives next to the code it drives.

The whole-program pass (R007-R011, the concurrency rules R012-R016 and
the secret-flow taint rules R017-R021, all fed by one fact pass per
function) is on by default; ``--no-graph`` restores the per-file-only
behavior.
``--explain RULE_ID`` prints one rule's rationale, an example finding
and the suppression syntax.  ``--changed-only`` is the fast
pre-commit path: per-file rules and findings are restricted to files
``git diff --name-only HEAD`` reports as modified, while module
summaries for the unchanged rest come from the content-hash cache
(``.cache/reprolint/summaries.json``).  Outside a git checkout it
silently falls back to a full run.

Exit codes: 0 = clean (no non-baselined findings), 1 = findings
(including ``E000`` for files that cannot be analyzed), 2 = bad
invocation (missing path, malformed [tool.reprolint]).
"""

from __future__ import annotations

import argparse
import subprocess
from pathlib import Path, PurePath

from .baseline import (
    DEFAULT_BASELINE_NAME,
    load_baseline,
    split_baselined,
    write_baseline,
)
from .config import load_lint_config
from .graph import SummaryCache, dump_dot, dump_json
from .linter import lint_paths
from .reporters import render_json, render_text
from .rulebase import explain_rule, rule_metadata

__all__ = ["add_lint_arguments", "run_lint"]

#: Where the incremental summary cache lives, relative to the cwd.
CACHE_PATH = Path(".cache") / "reprolint" / "summaries.json"


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests", "examples"],
        help="files or directories to lint (default: src tests examples)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (json is stable and machine-parseable)",
    )
    parser.add_argument(
        "--baseline",
        default=DEFAULT_BASELINE_NAME,
        help="baseline file of grandfathered findings "
        f"(default: {DEFAULT_BASELINE_NAME}; ignored when absent)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="report every finding, including baselined ones",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="grandfather the current findings into the baseline file and exit 0",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule table and exit",
    )
    parser.add_argument(
        "--explain",
        metavar="RULE_ID",
        default=None,
        help="print one rule's rationale, an example finding, and the "
        "suppression syntax (R001-R021, W001/W002), then exit",
    )
    parser.add_argument(
        "--graph",
        dest="graph",
        action="store_true",
        default=True,
        help="run the whole-program rules R007-R021 (default: on)",
    )
    parser.add_argument(
        "--no-graph",
        dest="graph",
        action="store_false",
        help="per-file rules only; skip call-graph analysis",
    )
    parser.add_argument(
        "--dump-graph",
        choices=("json", "dot"),
        default=None,
        help="print the program graph (json: stable schema; dot: Graphviz) "
        "instead of the findings report",
    )
    parser.add_argument(
        "--changed-only",
        action="store_true",
        help="lint only files changed vs. git HEAD (summaries for the rest "
        "come from the cache); full run when not in a git checkout",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore and do not write the summary cache",
    )


def _changed_report_paths(cwd: Path) -> set[str] | None:
    """Report paths of files modified vs. HEAD, or None outside git."""
    try:
        toplevel = subprocess.run(
            ["git", "rev-parse", "--show-toplevel"],
            capture_output=True, text=True, cwd=cwd, timeout=30, check=True,
        ).stdout.strip()
        diff = subprocess.run(
            ["git", "diff", "--name-only", "HEAD"],
            capture_output=True, text=True, cwd=cwd, timeout=30, check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return None
    changed: set[str] = set()
    root = Path(toplevel)
    for line in diff.splitlines():
        name = line.strip()
        if not name.endswith(".py"):
            continue
        try:
            changed.add(PurePath((root / name).resolve().relative_to(cwd.resolve())).as_posix())
        except ValueError:
            continue  # changed file outside the lint cwd
    return changed


def run_lint(args: argparse.Namespace) -> int:
    if args.list_rules:
        for rule in rule_metadata():
            print(f"{rule['id']}  [{rule['category']}]  {rule['title']}")
            print(f"      {rule['rationale']}")
        return 0

    if args.explain is not None:
        info = explain_rule(args.explain.strip().upper())
        if info is None:
            print(f"reprolint: unknown rule id '{args.explain}' "
                  "(see --list-rules)")
            return 2
        print(f"{info['id']}  {info['title']}  [{info['category']}]")
        print(f"  why       {info['rationale']}")
        if info["example"]:
            print(f"  example   {info['example']}")
        print(f"  suppress  # reprolint: disable={info['id']}  "
              "(on the reported line, with a justification)")
        return 0

    cwd = Path.cwd()
    try:
        config = load_lint_config(cwd)
    except ValueError as exc:
        print(f"reprolint: {exc}")
        return 2

    only: set[str] | None = None
    if args.changed_only:
        only = _changed_report_paths(cwd)  # None -> full run fallback

    cache = None
    if args.graph and not args.no_cache:
        cache = SummaryCache(cwd / CACHE_PATH)

    try:
        result = lint_paths(
            args.paths,
            relative_to=cwd,
            graph=args.graph,
            config=config,
            cache=cache,
            only=only,
        )
    except FileNotFoundError as exc:
        print(f"reprolint: {exc}")
        return 2

    if args.dump_graph is not None:
        if result.graph is None:
            print("reprolint: --dump-graph requires the graph pass (drop --no-graph)")
            return 2
        renderer = dump_json if args.dump_graph == "json" else dump_dot
        print(renderer(result.graph))
        return 0

    if args.write_baseline:
        write_baseline(args.baseline, result.findings)
        print(
            f"reprolint: wrote {len(result.findings)} finding(s) to {args.baseline}"
        )
        return 0

    baseline: set[str] = set()
    if not args.no_baseline and Path(args.baseline).is_file():
        baseline = load_baseline(args.baseline)
    new, baselined = split_baselined(result.findings, baseline)

    renderer = render_json if args.format == "json" else render_text
    print(renderer(new, baselined, result.files_scanned))
    return 1 if new else 0
