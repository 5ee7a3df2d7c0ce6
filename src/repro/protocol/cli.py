"""`repro protocol` command implementation.

Kept out of :mod:`repro.cli` so the top-level module stays a thin
argparse shell (the same split as ``service.cli``).

The default run is a fast, fully deterministic walk through the
cryptographic layer itself — nonce handshake, schedule derivation, and
the binding verdicts for a genuine / replayed / stale / unbound
response — with no detector or chat simulation involved.  ``--matrix``
runs the full-stack role × protocol-on/off sweep
(:func:`~repro.experiments.matrix.run_protocol_matrix`) through
the real chat endpoints instead.
"""

from __future__ import annotations

import argparse

from ..core.redact import redact
from ..engine import jobs_count
from .gate import ProtocolGate
from .nonce import ack_tag, handshake_payload, verify_ack
from .provision import ProtocolProvisioner
from .schedule import ProtocolConfig

__all__ = ["add_protocol_arguments", "run_protocol"]

#: Demo deployment secret.  Real deployments provision their own via
#: ``ServerConfig.protocol_secret``.
_DEMO_SECRET = "repro-demo-secret"

#: Synthetic lags of the demo's response signals: the smoothing chain's
#: group delay, a live round trip, and a relay's processing delay.
_CHAIN_LAG_S = 0.45
_PATH_DELAY_S = 0.35
_RELAY_DELAY_S = 4.2


def add_protocol_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tenant", default="tenant-demo")
    parser.add_argument("--seed", type=int, default=211)
    parser.add_argument(
        "--matrix",
        action="store_true",
        help="run the full-stack role x protocol-on/off chat matrix "
        "instead of the fast crypto-layer demo",
    )
    parser.add_argument(
        "--sessions", type=int, default=1, help="matrix sessions per cell"
    )
    parser.add_argument(
        "--enroll", type=int, default=6, help="matrix enrollment sessions"
    )
    parser.add_argument(
        "--frame", type=int, default=72, help="prover frame edge (pixels)"
    )
    parser.add_argument(
        "--verifier-frame", type=int, default=48, help="verifier frame edge (pixels)"
    )
    parser.add_argument(
        "--jobs",
        type=jobs_count,
        default=1,
        help="matrix worker processes (1 = serial; results are identical "
        "at any job count)",
    )


def _provision_pair(tenant: str) -> tuple[ProtocolGate, ProtocolGate, int]:
    """A (prior, live) gate pair as one tenant's ledger would hold them."""
    provisioner = ProtocolProvisioner(_DEMO_SECRET, protocol=ProtocolConfig())
    prior = provisioner.provision(tenant, "2026-08-07-call")
    live = provisioner.provision(tenant, "2026-08-08-call")
    return prior, live, provisioner.ledger_size(tenant)


def _schedule_lines(gate: ProtocolGate, attempts: int) -> list[str]:
    out = []
    for schedule in gate.schedules(attempts):
        challenges = "  ".join(
            f"{c.time_s:5.2f}s->{c.spot:<6s}({c.delta_lux:g} lx)"
            for c in schedule.challenges
        )
        out.append(f"  [{schedule.fingerprint()}] {challenges}")
    return out


def _demo(args: argparse.Namespace) -> int:
    print("challenge-response binding demo (deterministic)")
    print()
    prior, live, ledger = _provision_pair(args.tenant)
    payload = handshake_payload(live.session_id, live.nonce)
    tag = ack_tag(live.tenant_key, live.nonce)
    # The ledger size is a public count; R017 fires only because the
    # tuple unpack from _provision_pair is graded conservatively.
    print(f"handshake: tenant={args.tenant} ledger_depth={ledger}")  # reprolint: disable=R017
    # live.session_id is public; the nonce half of the payload is key
    # material and renders only as its redaction token.
    print(
        f"  payload   session={live.session_id} "
        f"nonce={redact(payload['nonce'])}"
    )
    print(f"  ack tag   {tag.hex()[:16]}...  verify="
          f"{verify_ack(live.tenant_key, live.nonce, tag)}")
    tampered = bytes([tag[0] ^ 1]) + tag[1:]
    print(f"  tampered  {tampered.hex()[:16]}...  verify="
          f"{verify_ack(live.tenant_key, live.nonce, tampered)}")
    print()
    print(f"prior session schedule ({prior.session_id}):")
    print("\n".join(_schedule_lines(prior, 2)))
    print(f"live session schedule ({live.session_id}):")
    print("\n".join(_schedule_lines(live, 2)))
    print()
    print("binding verdicts (one clip, transmitted lag "
          f"{_CHAIN_LAG_S:g}s):")
    sched = live.schedule_for(0)
    transmitted = [t + _CHAIN_LAG_S for t in sched.times]
    responses = {
        "genuine": [t + _CHAIN_LAG_S + _PATH_DELAY_S for t in sched.times],
        "replay": [
            t + _CHAIN_LAG_S + _PATH_DELAY_S
            for t in prior.schedule_for(0).times
        ],
        "stale": [t + _CHAIN_LAG_S + _RELAY_DELAY_S for t in sched.times],
        "unbound": [2.2, 6.9],
    }
    for name, received in responses.items():
        # A fresh gate per row: grade() advances the attempt counter.
        _, gate, _ = _provision_pair(args.tenant)
        report = gate.grade(transmitted, received)
        # Binding verdict fields (outcome, lag, rejects) are public by
        # design; the gate merely *holds* key material.
        print(  # reprolint: disable=R017
            f"  {name:>8s}: outcome={report.outcome.value:<12s} "
            f"lag={report.lag_s:+5.2f}s rejects={report.rejects}"
        )
    return 0


def _matrix(args: argparse.Namespace) -> int:
    from ..engine import ExecutionEngine
    from ..experiments.matrix import run_protocol_matrix
    from ..experiments.profiles import DEFAULT_ENVIRONMENT

    env = DEFAULT_ENVIRONMENT.replace(
        frame_size=(args.frame, args.frame),
        verifier_frame_size=(args.verifier_frame, args.verifier_frame),
    )
    with ExecutionEngine(jobs=args.jobs) as engine:
        result = run_protocol_matrix(
            sessions_per_cell=args.sessions,
            enroll_sessions=args.enroll,
            env=env,
            seed=args.seed,
            engine=engine,
        )
        print(result)
    return 0


def run_protocol(args: argparse.Namespace) -> int:
    """Demonstrate the challenge-binding protocol layer."""
    if args.matrix:
        return _matrix(args)
    return _demo(args)
