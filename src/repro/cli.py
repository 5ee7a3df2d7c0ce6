"""Command-line interface.

Eleven subcommands mirroring the library's main uses::

    python -m repro demo                 # quick genuine-vs-attacker demo
    python -m repro verify --role attack # simulate + verify one session
    python -m repro simulate --trace t.jsonl  # instrumented session batch
    python -m repro trace t.jsonl        # per-stage latency percentiles
    python -m repro figures --only fig11 # regenerate paper figures
    python -m repro faults --jobs 2      # fault-severity robustness matrix
    python -m repro serve --sessions 8   # multi-tenant verification service
    python -m repro loadtest --json b.json  # deterministic open-loop load test
    python -m repro protocol             # challenge-binding protocol demo
    python -m repro lint --format json   # reprolint static analysis
    python -m repro info                 # configuration + paper constants

The CLI exists so the reproduction can be driven without writing Python
— handy for spot checks and for embedding in shell pipelines (exit code
of ``verify`` reflects the verdict).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from collections.abc import Sequence

from .api import (
    PAPER_CONFIG,
    ChatVerifier,
    ExecutionEngine,
    simulate_genuine_session,
)
from .engine import jobs_count
from .experiments.simulate import SessionSpec

__all__ = ["main", "build_parser"]


def _enrolled_verifier(enroll_sessions: int, seed: int) -> ChatVerifier:
    verifier = ChatVerifier()
    verifier.enroll(
        [
            simulate_genuine_session(duration_s=15.0, seed=seed + i)
            for i in range(enroll_sessions)
        ]
    )
    return verifier


def _small_env(args: argparse.Namespace):
    """The default room at the ``--frame`` / ``--verifier-frame`` raster.

    Small frames keep batches interactive; detection quality is
    unaffected (the ROI probe only needs the nasal bridge resolved).
    """
    from .experiments.profiles import DEFAULT_ENVIRONMENT

    return DEFAULT_ENVIRONMENT.replace(
        frame_size=(args.frame, args.frame),
        verifier_frame_size=(args.verifier_frame, args.verifier_frame),
    )


def _simulate_session_task(payload: tuple) -> dict:
    """One instrumented session: simulate, verify, ship metrics home.

    Module-level and self-contained (picklable).  The worker builds its
    *own* enabled :class:`~repro.obs.instrument.Instrumentation` — an
    enabled handle never crosses a process boundary — and returns its
    deterministic :class:`~repro.obs.metrics.MetricsSnapshot` plus the
    buffered span records for the parent to merge in submission order
    (what keeps ``--jobs N`` output bit-identical to ``--jobs 1``).
    """
    bank, config, env, spec = payload
    from .core.pipeline import ChatVerifier
    from .obs import Instrumentation

    instr = Instrumentation.enabled()
    with instr.span("session", stage="simulate", role=spec.kind, seed=spec.seed):
        record = spec.simulate(env, instrumentation=instr)
        verifier = ChatVerifier(config, instrumentation=instr)
        verifier.detector.fit(bank)
        report = verifier.verify_session(record)
    return {
        "role": spec.kind,
        "seed": spec.seed,
        "verdict": "ATTACKER" if report.is_attacker else "live",
        "clips": len(report.attempts),
        "snapshot": instr.snapshot(),
        "spans": instr.drain_spans(),
    }


def cmd_demo(args: argparse.Namespace) -> int:
    """Enroll, then verify one genuine and one attack session."""
    print("enrolling verifier on genuine sessions ...")
    verifier = _enrolled_verifier(args.enroll, seed=args.seed)
    for role in ("genuine", "attack"):
        record = SessionSpec(role, seed=args.seed + 100).simulate()
        verdict = verifier.verify_session(record)
        attempt = verdict.attempts[0]
        z = attempt.features
        label = "ATTACKER" if verdict.is_attacker else "live person"
        print(
            f"{role:>8s}: z=({z.z1:.2f}, {z.z2:.2f}, {z.z3:.2f}, {z.z4:.2f}) "
            f"LOF={min(attempt.lof_score, 999.0):6.2f} -> {label}"
        )
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    """Simulate one session of the given role and verify it.

    Exit code 0 = accepted as live, 1 = flagged as attacker (so the
    shell can branch on the verdict).
    """
    verifier = _enrolled_verifier(args.enroll, seed=args.seed)
    record = SessionSpec(
        args.role, args.seed + 1000, args.duration, args.delay
    ).simulate()
    verdict = verifier.verify_session(record)
    for i, attempt in enumerate(verdict.attempts):
        z = attempt.features
        print(
            f"clip {i}: z=({z.z1:.2f}, {z.z2:.2f}, {z.z3:.2f}, {z.z4:.2f}) "
            f"LOF={min(attempt.lof_score, 999.0):6.2f} "
            f"{'reject' if attempt.rejected else 'accept'}"
        )
    print(
        f"verdict: {'ATTACKER' if verdict.is_attacker else 'live'} "
        f"({verdict.verdict.reject_votes}/{verdict.verdict.total_votes} reject votes)"
    )
    return 1 if verdict.is_attacker else 0


def cmd_simulate(args: argparse.Namespace) -> int:
    """Run an instrumented batch of verified chat sessions.

    The observability showcase: every session runs under a full
    :class:`~repro.obs.instrument.Instrumentation` handle, spans cover
    the whole pipeline (simulate -> luminance -> preprocessing ->
    matching -> verdict), ``--trace`` streams them to JSONL, and
    ``--metrics`` prints the merged deterministic registry — bit-identical
    at any ``--jobs`` count.
    """
    import contextlib

    from .core.config import DetectorConfig
    from .engine import task_rng
    from .experiments.matrix import enrollment_bank
    from .experiments.simulate import default_user
    from .obs import (
        Instrumentation,
        JsonlTraceSink,
        render_json,
        render_prometheus,
    )

    env = _small_env(args)
    config = DetectorConfig()
    user = default_user()

    with contextlib.ExitStack() as stack:
        sink = None
        if args.trace:
            sink = stack.enter_context(JsonlTraceSink(args.trace))
        instr = Instrumentation.enabled(sink=sink)
        engine = stack.enter_context(
            ExecutionEngine(jobs=args.jobs, instrumentation=instr)
        )
        with instr.span("simulate.batch", stage="simulate", sessions=args.sessions):
            with instr.span("simulate.enroll", stage="simulate"):
                bank = enrollment_bank(
                    config, env, user, args.enroll, args.seed, engine
                )
            payloads = [
                (
                    bank,
                    config,
                    env,
                    SessionSpec(
                        args.role,
                        int(task_rng(args.seed, 500, i).integers(0, 2**31 - 1)),
                        args.duration,
                        args.delay,
                    ),
                )
                for i in range(args.sessions)
            ]
            rows = engine.map_batches(
                _simulate_session_task, payloads, stage="sessions"
            )
        # Merge worker results in submission order: metric merge is
        # associative, so this is the jobs-invariant reduction.
        for row in rows:
            instr.registry.merge_snapshot(row["snapshot"])
            instr.tracer.adopt(row["spans"])
        for row in rows:
            print(
                f"session seed={row['seed']:>10d} role={row['role']:>8s} "
                f"clips={row['clips']} -> {row['verdict']}"
            )
        if args.trace:
            print(f"trace written to {args.trace}")
        if args.metrics == "json":
            print(render_json(instr.snapshot()))
        elif args.metrics == "prom":
            print(render_prometheus(instr.snapshot()), end="")
        if args.perf:
            print()
            print(engine.perf_report())
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Aggregate a JSONL trace into per-stage latency percentiles."""
    from .obs.trace_cli import run_trace

    return run_trace(args)


def cmd_figures(args: argparse.Namespace) -> int:
    """Regenerate paper figures (thin wrapper over experiments.figures)."""
    from .experiments.figures import generate_all

    with ExecutionEngine(jobs=args.jobs) as engine:
        generate_all(args.out, only=args.only or None, engine=engine)
        if args.perf:
            print()
            print(engine.perf_report())
    return 0


def cmd_faults(args: argparse.Namespace) -> int:
    """Sweep the fault-severity grid through the gated streaming verifier."""
    from .experiments.matrix import run_fault_matrix

    env = _small_env(args)
    with ExecutionEngine(jobs=args.jobs) as engine:
        result = run_fault_matrix(
            severities=tuple(args.severities),
            roles=tuple(args.roles),
            sessions_per_cell=args.sessions,
            duration_s=args.duration,
            enroll_sessions=args.enroll,
            env=env,
            seed=args.seed,
            engine=engine,
        )
        print(result)
        if args.perf:
            print()
            print(engine.perf_report())
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve a demo workload through the multi-tenant verification service."""
    from .service.cli import run_serve

    return run_serve(args)


def cmd_loadtest(args: argparse.Namespace) -> int:
    """Open-loop load test of the service (deterministic virtual time)."""
    from .service.cli import run_loadtest

    return run_loadtest(args)


def cmd_protocol(args: argparse.Namespace) -> int:
    """Demo of the cryptographic challenge-binding protocol."""
    from .protocol.cli import run_protocol

    return run_protocol(args)


def cmd_lint(args: argparse.Namespace) -> int:
    """Static determinism/contract analysis (reprolint) over the tree."""
    from .analysis.cli import run_lint

    return run_lint(args)


def cmd_info(args: argparse.Namespace) -> int:
    """Print the paper configuration and the library version."""
    del args
    from . import __version__

    print(f"repro {__version__} - reproduction of Shang & Wu, ICDCS 2020")
    print("paper configuration (DetectorConfig defaults):")
    for field in dataclasses.fields(PAPER_CONFIG):
        print(f"  {field.name:24s} = {getattr(PAPER_CONFIG, field.name)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Liveness defense for video chat (ICDCS 2020 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help=cmd_demo.__doc__)
    demo.add_argument("--seed", type=int, default=0)
    demo.add_argument("--enroll", type=int, default=12, help="enrollment sessions")
    demo.set_defaults(func=cmd_demo)

    verify = sub.add_parser("verify", help="simulate and verify one session")
    verify.add_argument(
        "--role",
        choices=("genuine", "attack", "replay", "adaptive"),
        default="genuine",
    )
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--duration", type=float, default=15.0)
    verify.add_argument("--enroll", type=int, default=12)
    verify.add_argument(
        "--delay", type=float, default=1.0, help="adaptive forger's processing delay"
    )
    verify.set_defaults(func=cmd_verify)

    simulate = sub.add_parser(
        "simulate",
        help="instrumented batch of verified sessions (spans + metrics)",
    )
    simulate.add_argument(
        "--role",
        choices=("genuine", "attack", "replay", "adaptive"),
        default="genuine",
    )
    simulate.add_argument("--sessions", type=int, default=2, help="sessions to run")
    simulate.add_argument(
        "--duration", type=float, default=15.0, help="seconds of chat per session"
    )
    simulate.add_argument("--enroll", type=int, default=8, help="enrollment sessions")
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument(
        "--delay", type=float, default=1.0, help="adaptive forger's processing delay"
    )
    simulate.add_argument(
        "--frame", type=int, default=72, help="prover frame edge (pixels)"
    )
    simulate.add_argument(
        "--verifier-frame", type=int, default=48, help="verifier frame edge (pixels)"
    )
    simulate.add_argument(
        "--jobs",
        type=jobs_count,
        default=1,
        help="worker processes for the execution engine (1 = serial; "
        "results and merged metrics are identical at any job count)",
    )
    simulate.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write every pipeline span to this JSONL file (repro-trace-v1)",
    )
    simulate.add_argument(
        "--metrics",
        choices=("json", "prom"),
        default=None,
        help="print the merged metrics registry (deterministic across --jobs)",
    )
    simulate.add_argument(
        "--perf",
        action="store_true",
        help="print the engine's PerfReport after the batch",
    )
    simulate.set_defaults(func=cmd_simulate)

    trace = sub.add_parser(
        "trace",
        help="per-stage latency percentiles from a --trace JSONL file",
    )
    from .obs.trace_cli import add_trace_arguments

    add_trace_arguments(trace)
    trace.set_defaults(func=cmd_trace)

    figures = sub.add_parser("figures", help="regenerate paper figures")
    figures.add_argument("--out", default="results")
    figures.add_argument("--only", nargs="*")
    figures.add_argument(
        "--jobs",
        type=jobs_count,
        default=1,
        help="worker processes for the execution engine (1 = serial; "
        "results are identical at any job count)",
    )
    figures.add_argument(
        "--perf",
        action="store_true",
        help="print the engine's PerfReport (per-stage wall time, cache "
        "hits/misses, tasks/sec) after the figures",
    )
    figures.set_defaults(func=cmd_figures)

    faults = sub.add_parser(
        "faults", help="fault-injection robustness matrix (severity x role)"
    )
    faults.add_argument(
        "--severities",
        type=float,
        nargs="*",
        default=(0.0, 0.25, 0.5, 1.0),
        help="fault-severity multipliers applied to the default profile",
    )
    faults.add_argument(
        "--roles", nargs="*", default=("genuine", "attack"), help="cell roles"
    )
    faults.add_argument("--sessions", type=int, default=2, help="sessions per cell")
    faults.add_argument(
        "--duration", type=float, default=30.0, help="seconds of chat per session"
    )
    faults.add_argument("--enroll", type=int, default=8, help="enrollment sessions")
    faults.add_argument("--seed", type=int, default=97)
    faults.add_argument(
        "--frame", type=int, default=72, help="prover frame edge (pixels)"
    )
    faults.add_argument(
        "--verifier-frame", type=int, default=48, help="verifier frame edge (pixels)"
    )
    faults.add_argument(
        "--jobs",
        type=jobs_count,
        default=1,
        help="worker processes for the execution engine (1 = serial; "
        "results are identical at any job count)",
    )
    faults.add_argument(
        "--perf",
        action="store_true",
        help="print the engine's PerfReport (incl. quality-gate counters)",
    )
    faults.set_defaults(func=cmd_faults)

    serve = sub.add_parser(
        "serve",
        help="run a demo workload through the multi-tenant verification "
        "service (virtual time by default; --realtime for the wall clock)",
    )
    from .service.cli import add_loadtest_arguments, add_serve_arguments

    add_serve_arguments(serve)
    serve.set_defaults(func=cmd_serve)

    loadtest = sub.add_parser(
        "loadtest",
        help="deterministic open-loop load test: hundreds of concurrent "
        "sessions under virtual time, with a serial byte-identity check",
    )
    add_loadtest_arguments(loadtest)
    loadtest.set_defaults(func=cmd_loadtest)

    protocol = sub.add_parser(
        "protocol",
        help="challenge-binding protocol demo: nonce handshake, derived "
        "schedules, and binding verdicts (--matrix for the full-stack sweep)",
    )
    from .protocol.cli import add_protocol_arguments

    add_protocol_arguments(protocol)
    protocol.set_defaults(func=cmd_protocol)

    lint = sub.add_parser(
        "lint",
        help="reprolint: AST + whole-program determinism & contract analysis "
        "(per-file R001-R006, call-graph R007-R011; see --list-rules)",
    )
    from .analysis.cli import add_lint_arguments

    add_lint_arguments(lint)
    lint.set_defaults(func=cmd_lint)

    info = sub.add_parser("info", help=cmd_info.__doc__)
    info.set_defaults(func=cmd_info)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
