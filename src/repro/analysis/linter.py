"""File walking and rule execution: the linter's outer loop.

``analyze_source`` runs the registered per-file rules over one
in-memory module (what the analyzer's own tests use); ``lint_paths``
walks directories, parses every ``.py`` file, and returns
fingerprinted findings.  A file that cannot be analyzed at all — a
syntax error or bytes that are not UTF-8 — is itself a finding (rule
``E000``) rather than a crash, so one broken file cannot hide the rest
of the report.

With ``graph=True`` the walk additionally builds a per-module summary
for every file — one fact pass per function (see
:mod:`.graph.summarize`), served from the content-hash
:class:`SummaryCache` when the bytes are unchanged — assembles the
program graph, and runs every whole-program rule over it: R007-R011,
the concurrency rules R012-R016 and the secret-flow rules R017-R021.
``only`` restricts which files get per-file rule execution and which
findings are reported — the ``--changed-only`` fast path — while
summaries still cover the whole tree, because interprocedural analysis
is only sound over the whole program.

After the rules, suppression hygiene runs over every selected file:
a ``# reprolint: disable=`` declaration that silenced nothing is W001,
one naming an id no rule has is W002 (as is an unknown id configured
under ``[tool.reprolint.rules]``).
"""

from __future__ import annotations

from pathlib import Path, PurePath

from .async_ import rules as _async_rules  # noqa: F401 - import registers R012-R016
from .config import DEFAULT_LINT_CONFIG, LintConfig
from .context import ModuleContext
from .findings import Finding, fingerprint_findings
from .graph import (
    ProgramGraph,
    SummaryCache,
    build_graph,
    content_hash,
    error_summary,
    summarize_module,
)
from .rulebase import (
    Rule,
    registered_graph_rules,
    registered_rule_ids,
    registered_rules,
)
from .taint import rules as _taint_rules  # noqa: F401 - import registers R017-R021

__all__ = ["analyze_source", "collect_files", "lint_paths", "LintResult"]

#: Directories never descended into.
_SKIP_DIRS = frozenset(
    {".git", "__pycache__", ".cache", ".venv", "venv", "build", "dist", ".eggs"}
)


class LintResult:
    """Findings plus the file count, pre-sorted and fingerprinted.

    ``graph`` carries the assembled :class:`ProgramGraph` when the
    whole-program pass ran (``--dump-graph`` renders it), else None.
    """

    def __init__(
        self,
        findings: list[Finding],
        files_scanned: int,
        graph: ProgramGraph | None = None,
    ) -> None:
        self.findings = fingerprint_findings(findings)
        self.files_scanned = files_scanned
        self.graph = graph


def analyze_source(  # reprolint: disable=R009 -- library API for in-memory source
    source: str,
    path: str = "module.py",
    rules: list[type[Rule]] | None = None,
    config: LintConfig | None = None,
) -> list[Finding]:
    """Run rules over one source string; findings are fingerprinted."""
    try:
        ctx = ModuleContext(path, source, config=config)
    except SyntaxError as exc:
        return fingerprint_findings([_syntax_finding(path, exc)])
    findings: list[Finding] = []
    for rule_cls in rules if rules is not None else registered_rules():
        findings.extend(rule_cls(ctx).run())
    return fingerprint_findings(findings)


def _syntax_finding(path: str, exc: SyntaxError) -> Finding:
    return Finding(
        path=PurePath(path).as_posix(),
        line=exc.lineno or 1,
        col=(exc.offset or 0) + 1,
        rule="E000",
        message=f"file does not parse: {exc.msg}",
        snippet=(exc.text or "").strip(),
    )


def _encoding_finding(path: str, exc: UnicodeDecodeError) -> Finding:
    return Finding(
        path=PurePath(path).as_posix(),
        line=1,
        col=1,
        rule="E000",
        message=(
            f"file is not valid UTF-8 ({exc.reason} at byte {exc.start}); "
            "reprolint cannot analyze it"
        ),
    )


def collect_files(paths: list[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted, deduplicated .py list."""
    files: set[Path] = set()
    for entry in paths:
        path = Path(entry)
        if path.is_file():
            if path.suffix == ".py":
                files.add(path)
        elif path.is_dir():
            for candidate in path.rglob("*.py"):
                if not _SKIP_DIRS.intersection(candidate.parts):
                    files.add(candidate)
        else:
            raise FileNotFoundError(f"lint target does not exist: {path}")
    return sorted(files)


def _report_path(file_path: Path, relative_to: str | Path | None) -> str:
    if relative_to is not None:
        try:
            return PurePath(
                file_path.resolve().relative_to(Path(relative_to).resolve())
            ).as_posix()
        except ValueError:
            pass
    return PurePath(file_path).as_posix()


def _count_summary(metrics, result: str) -> None:
    if metrics is not None:
        metrics.counter("reprograph_summaries_total", result=result).inc()


def lint_paths(
    paths: list[str | Path],
    rules: list[type[Rule]] | None = None,
    relative_to: str | Path | None = None,
    *,
    graph: bool = False,
    config: LintConfig | None = None,
    cache: SummaryCache | None = None,
    metrics=None,
    only: set[str] | None = None,
) -> LintResult:
    """Lint every ``.py`` file under ``paths``.

    Finding paths are reported relative to ``relative_to`` when given
    (the CLI passes the working directory), else as provided.  ``only``
    is a set of report paths: files outside it are summarized (the
    graph needs the whole program) but get no per-file rule execution
    and contribute no findings.
    """
    config = config if config is not None else DEFAULT_LINT_CONFIG
    rules = rules if rules is not None else registered_rules()
    files = collect_files(paths)
    findings: list[Finding] = []
    summaries = []
    tracked: list[tuple[str, ModuleContext]] = []
    for file_path in files:
        report_path = _report_path(file_path, relative_to)
        selected = only is None or report_path in only
        raw = file_path.read_bytes()

        summary = None
        if graph:
            digest = content_hash(raw)
            if cache is not None:
                summary = cache.get(report_path, digest)
            if summary is not None:
                _count_summary(metrics, "hit")
                cache.mark_source(report_path, str(file_path))
                if not selected:
                    summaries.append(summary)
                    continue  # fast path: no parse needed at all

        ctx = None
        try:
            ctx = ModuleContext(report_path, raw.decode("utf-8"), config=config)
        except UnicodeDecodeError as exc:
            failure, reason = _encoding_finding(report_path, exc), "not valid UTF-8"
        except SyntaxError as exc:
            failure, reason = _syntax_finding(report_path, exc), f"syntax error: {exc.msg}"

        if ctx is None:
            if selected:
                findings.append(failure)
        elif selected:
            tracked.append((report_path, ctx))
            for rule_cls in rules:
                findings.extend(rule_cls(ctx).run())
        if graph:
            if summary is None:
                summary = (
                    summarize_module(ctx, report_path)
                    if ctx is not None
                    else error_summary(report_path, reason)
                )
                _count_summary(metrics, "miss")
                if cache is not None:
                    cache.put(report_path, digest, summary, str(file_path))
            summaries.append(summary)

    graph_rule_classes = registered_graph_rules()

    program_graph: ProgramGraph | None = None
    if graph:
        if cache is not None:
            cache.save()
        program_graph = build_graph(summaries, config)
        for rule_cls in graph_rule_classes:
            for finding in rule_cls().run(program_graph):
                if only is None or finding.path in only:
                    findings.append(finding)

    assessable = {rule_cls.id for rule_cls in rules}
    if graph:
        assessable.update(rule_cls.id for rule_cls in graph_rule_classes)
    findings.extend(
        _suppression_hygiene(tracked, program_graph, assessable, config, only)
    )
    return LintResult(findings, files_scanned=len(files), graph=program_graph)


def _meta_finding(
    rule: str, path: str, line: int, message: str, snippet: str = ""
) -> Finding:
    return Finding(
        path=path, line=line, col=1, rule=rule, message=message, snippet=snippet
    )


def _suppression_hygiene(
    tracked: list[tuple[str, ModuleContext]],
    program_graph: ProgramGraph | None,
    assessable: set[str],
    config: LintConfig,
    only: set[str] | None,
) -> list[Finding]:
    """W001 (suppression silenced nothing) and W002 (unknown rule id).

    A suppression is only judged unused when every rule it could have
    silenced actually ran — a graph-rule id with ``graph=False`` is left
    alone.  Wildcards (``all``, ``*``) are always assessable: they claim
    to silence everything, so silencing nothing is always reportable.
    """
    known = registered_rule_ids()
    graph_uses = (
        program_graph.suppression_uses if program_graph is not None else set()
    )
    out: list[Finding] = []
    for report_path, ctx in tracked:
        used = set(ctx.used_suppressions)
        used.update(
            (line, token)
            for path, line, token in graph_uses
            if path == report_path
        )
        for line, tokens in sorted(ctx.suppression_table().items()):
            for token in tokens:
                wildcard = token in ("all", "*")
                if not wildcard and token not in known:
                    out.append(
                        _meta_finding(
                            "W002",
                            report_path,
                            line,
                            f"suppression names unknown rule id '{token}'",
                            ctx.snippet_at(line),
                        )
                    )
                elif (wildcard or token in assessable) and (line, token) not in used:
                    out.append(
                        _meta_finding(
                            "W001",
                            report_path,
                            line,
                            f"suppression for '{token}' silences nothing — "
                            "delete the stale comment",
                            ctx.snippet_at(line),
                        )
                    )
    config_path = "pyproject.toml"
    if only is None or config_path in only:
        for rule_id, _options in config.rule_options:
            if rule_id not in known:
                out.append(
                    _meta_finding(
                        "W002",
                        config_path,
                        1,
                        f"[tool.reprolint.rules.{rule_id}] configures an "
                        "unknown rule id",
                    )
                )
    return out
