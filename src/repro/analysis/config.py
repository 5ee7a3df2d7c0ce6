"""Lint run configuration, loaded once from ``[tool.reprolint]``.

Knobs that used to be hardcoded in the rules (the R002/R008 wall-clock
allowlist, the facade module R010 audits, the packages R009 considers
project-owned) live in ``pyproject.toml``::

    [tool.reprolint]
    wall-clock-allowlist = ["engine/perf.py", "obs/clock.py"]
    facade = "repro/api.py"
    project-packages = ["repro"]

    [tool.reprolint.rules.R013]
    lock-classes = ["MyLock"]

A missing section (or a missing pyproject.toml) yields the defaults
below, which reproduce the historical hardcoded behavior exactly — so
repositories without the section lint identically to before.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

__all__ = [
    "LintConfig",
    "TaintConfig",
    "DEFAULT_LINT_CONFIG",
    "DEFAULT_TAINT_CONFIG",
    "load_lint_config",
]


@dataclasses.dataclass(frozen=True)
class TaintConfig:
    """Parsed ``[tool.reprolint.taint]`` options for R017-R021.

    Three matcher grammars, chosen by shape:

    * a **bare name** (``print``, ``redact``) matches the final callable
      segment of any call;
    * a **dotted entry** matches the resolved dotted target — trailing
      ``.`` is a prefix match (``hashlib.`` hits every hash
      constructor), otherwise exact or ``.``-suffix match;
    * ``method@receiver`` matches an attribute call whose receiver text
      contains the substring (``write@stdout`` hits
      ``sys.stdout.write``); an empty receiver part (``counter@``)
      matches any attribute call of that method.

    Name entries in ``source_attrs`` / ``tag_names`` match identifiers
    case-insensitively after stripping underscores, exactly or as a
    ``_``-separated suffix (``secret`` hits ``_DEMO_SECRET`` and
    ``protocol_secret``).
    """

    #: Identifiers (attributes, parameters, dataclass fields) that ARE
    #: key material wherever they appear.
    source_attrs: tuple[str, ...] = (
        "secret",
        "protocol_secret",
        "tenant_key",
        "session_nonce",
        "nonce",
    )
    #: Callables whose return value is key material regardless of
    #: arguments (the PRF hierarchy).
    source_returns: tuple[str, ...] = (
        "prf",
        "prf_stream",
        "derive_tenant_key",
        "derive_session_nonce",
    )
    #: Calls that cap taint at TAG: cryptographic one-way digests whose
    #: output is emit-safe but still compare-sensitive.
    sanitizers: tuple[str, ...] = (
        "hashlib.",
        "hmac.new",
        "ack_tag",
    )
    #: Calls that clear taint entirely (explicit redaction, and
    #: value-shape builtins that never echo their argument).
    redactors: tuple[str, ...] = (
        "redact",
        "len",
        "bool",
        "isinstance",
        "type",
        "id",
    )
    #: Identifiers that are TAG-typed by name (emit-safe, but R020
    #: still demands constant-time comparison).  ``digest`` is
    #: deliberately absent: content-hash digests (cache keys, finding
    #: fingerprints) are legitimately compared with ``==``, and a
    #: digest actually derived from key material is already TAG via
    #: the sanitizer dataflow.
    tag_names: tuple[str, ...] = ("tag", "hmac")
    #: Output sinks for R017: anything the verifier emits where an
    #: attacker could read it.
    output_sinks: tuple[str, ...] = (
        "print",
        "pprint",
        "logging.",
        "json.dump",
        "json.dumps",
        "write@stdout",
        "write@stderr",
        "debug@log",
        "info@log",
        "warning@log",
        "error@log",
        "exception@log",
        "critical@log",
        "span@trac",
        "emit@",
        "counter@",
        "gauge@",
        "histogram@",
    )
    #: Pickle-boundary sinks for R019: payloads serialized into worker
    #: processes.
    pickle_sinks: tuple[str, ...] = (
        "map_batches@engine",
        "pickle.",
    )


DEFAULT_TAINT_CONFIG = TaintConfig()


@dataclasses.dataclass(frozen=True)
class LintConfig:
    """Parsed ``[tool.reprolint]`` options (defaults == historical behavior)."""

    #: Path suffixes of the only modules allowed to read the real clock
    #: (R002 per-file; R008 masks propagation out of these modules).
    wall_clock_allowlist: tuple[str, ...] = ("engine/perf.py", "obs/clock.py")
    #: Path suffix of the public facade whose re-exports R010 audits.
    facade: str = "repro/api.py"
    #: Top-level packages whose public functions R009 audits for
    #: reachability (files outside these packages are exempt).
    project_packages: tuple[str, ...] = ("repro",)
    #: Path suffixes of the modules that *implement* the scheduler
    #: primitives — the only places R012-R015 bless raw asyncio usage,
    #: foreign awaits, and timeout-less parks.
    scheduler_modules: tuple[str, ...] = (
        "service/scheduler.py",
        "service/realtime.py",
    )
    #: Per-rule option tables from ``[tool.reprolint.rules.Rxxx]``.
    rule_options: tuple[tuple[str, tuple[tuple[str, tuple[str, ...]], ...]], ...] = ()
    #: Secret-flow policy from ``[tool.reprolint.taint]`` (R017-R021).
    taint: TaintConfig = DEFAULT_TAINT_CONFIG

    def options_for(self, rule_id: str) -> dict[str, tuple[str, ...]]:
        for rid, options in self.rule_options:
            if rid == rule_id:
                return dict(options)
        return {}


DEFAULT_LINT_CONFIG = LintConfig()


def _string_tuple(value: object, where: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ValueError(f"[tool.reprolint] {where} must be a list of strings")
    return tuple(value)


def load_lint_config(root: str | Path | None = None) -> LintConfig:
    """Parse ``<root>/pyproject.toml``'s ``[tool.reprolint]`` section.

    Returns the defaults when the file or section is absent, or when no
    TOML parser is available (Python < 3.11 without tomli).
    """
    pyproject = Path(root or ".") / "pyproject.toml"
    if not pyproject.is_file():
        return DEFAULT_LINT_CONFIG
    try:
        import tomllib
    except ImportError:  # pragma: no cover - py3.10 fallback, no tomli baked in
        return DEFAULT_LINT_CONFIG
    try:
        document = tomllib.loads(pyproject.read_text(encoding="utf-8"))
    except (tomllib.TOMLDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"unparseable pyproject.toml: {exc}") from exc
    section = document.get("tool", {}).get("reprolint")
    if not isinstance(section, dict):
        return DEFAULT_LINT_CONFIG

    kwargs: dict = {}
    if "wall-clock-allowlist" in section:
        kwargs["wall_clock_allowlist"] = _string_tuple(
            section["wall-clock-allowlist"], "wall-clock-allowlist"
        )
    if "facade" in section:
        facade = section["facade"]
        if not isinstance(facade, str):
            raise ValueError("[tool.reprolint] facade must be a string path")
        kwargs["facade"] = facade
    if "project-packages" in section:
        kwargs["project_packages"] = _string_tuple(
            section["project-packages"], "project-packages"
        )
    if "scheduler-modules" in section:
        kwargs["scheduler_modules"] = _string_tuple(
            section["scheduler-modules"], "scheduler-modules"
        )
    taint = section.get("taint")
    if taint is not None:
        if not isinstance(taint, dict):
            raise ValueError("[tool.reprolint.taint] must be a table")
        taint_kwargs: dict = {}
        for toml_key, attr in (
            ("source-attrs", "source_attrs"),
            ("source-returns", "source_returns"),
            ("sanitizers", "sanitizers"),
            ("redactors", "redactors"),
            ("tag-names", "tag_names"),
            ("output-sinks", "output_sinks"),
            ("pickle-sinks", "pickle_sinks"),
        ):
            if toml_key in taint:
                taint_kwargs[attr] = _string_tuple(
                    taint[toml_key], f"taint.{toml_key}"
                )
        unknown = set(taint) - {
            "source-attrs",
            "source-returns",
            "sanitizers",
            "redactors",
            "tag-names",
            "output-sinks",
            "pickle-sinks",
        }
        if unknown:
            raise ValueError(
                f"[tool.reprolint.taint] unknown keys: {sorted(unknown)}"
            )
        kwargs["taint"] = TaintConfig(**taint_kwargs)
    rules = section.get("rules", {})
    if rules:
        if not isinstance(rules, dict):
            raise ValueError("[tool.reprolint.rules] must be a table")
        parsed = []
        for rule_id in sorted(rules):
            options = rules[rule_id]
            if not isinstance(options, dict):
                raise ValueError(f"[tool.reprolint.rules.{rule_id}] must be a table")
            parsed.append(
                (
                    rule_id,
                    tuple(
                        (key, _string_tuple(value, f"rules.{rule_id}.{key}"))
                        for key, value in sorted(options.items())
                    ),
                )
            )
        kwargs["rule_options"] = tuple(parsed)
    return LintConfig(**kwargs)
