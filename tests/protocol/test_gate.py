"""ProtocolGate and ProtocolProvisioner: ledger discipline and grading."""

import numpy as np
import pytest

from repro.core.config import DetectorConfig
from repro.core.detector import LivenessDetector
from repro.core.features import FeatureVector
from repro.core.streaming import StreamingVerifier
from repro.protocol.commitment import BindingOutcome
from repro.protocol.gate import ProtocolGate
from repro.protocol.nonce import ack_tag
from repro.protocol.provision import ProtocolProvisioner
from repro.protocol.schedule import ProtocolConfig

SECRET = "unit-test-secret"
CHAIN = 0.5


@pytest.fixture()
def provisioner():
    return ProtocolProvisioner(SECRET)


def echo(gate: ProtocolGate, attempt: int = 0, delay: float = 0.35):
    """The (transmitted, received) peak pair of a clean genuine clip."""
    times = gate.schedule_for(attempt).times
    return [t + CHAIN for t in times], [t + CHAIN + delay for t in times]


class TestProvisioner:
    def test_provision_is_deterministic(self, provisioner):
        again = ProtocolProvisioner(SECRET)
        a = provisioner.provision("t", "s1")
        b = again.provision("t", "s1")
        assert a.nonce == b.nonce
        assert a.schedules(2) == b.schedules(2)

    def test_priors_snapshot_in_submit_order(self, provisioner):
        first = provisioner.provision("t", "s1")
        second = provisioner.provision("t", "s2")
        assert first.priors == ()
        assert {c.session_id for c in second.priors} == {"s1"}

    def test_ledger_is_bounded(self):
        protocol = ProtocolConfig(ledger_depth=2)
        provisioner = ProtocolProvisioner(SECRET, protocol=protocol)
        for i in range(5):
            provisioner.provision("t", f"s{i}")
        assert provisioner.ledger_size("t") == 2
        assert provisioner.ledger_size("other") == 0

    def test_tenants_do_not_share_ledgers(self, provisioner):
        provisioner.provision("a", "s1")
        gate = provisioner.provision("b", "s1")
        assert gate.priors == ()
        assert provisioner.ledger_size("a") == 1


class TestGate:
    def test_grade_advances_attempts(self, provisioner):
        gate = provisioner.provision("t", "s1")
        assert gate._attempt == 0
        gate.grade(*echo(gate, attempt=0))
        report = gate.grade(*echo(gate, attempt=1))
        assert gate._attempt == 2
        assert report.attempt_index == 1
        assert report.outcome is BindingOutcome.BOUND

    def test_replayed_prior_grades_replay(self, provisioner):
        prior = provisioner.provision("t", "s1")
        live = provisioner.provision("t", "s2")
        tx, _ = echo(live)
        _, replayed = echo(prior)
        report = live.grade(tx, replayed)
        assert report.outcome is BindingOutcome.REPLAY
        assert report.rejects

    def test_bound_report_does_not_reject(self, provisioner):
        gate = provisioner.provision("t", "s1")
        report = gate.grade(*echo(gate))
        assert not report.rejects
        assert report.lag_s == pytest.approx(0.35, abs=0.05)

    def test_unbound_rejects_only_when_enforced(self, provisioner):
        strict = ProtocolProvisioner(
            SECRET, protocol=ProtocolConfig(enforce_binding=True)
        )
        for source, expect in ((provisioner, False), (strict, True)):
            gate = source.provision("t", "s1")
            tx, _ = echo(gate)
            report = gate.grade(tx, [1.2, 2.1])
            assert report.outcome is BindingOutcome.UNBOUND
            assert report.rejects is expect

    def test_note_ack_accepts_hex_and_bytes(self, provisioner):
        gate = provisioner.provision("t", "s1")
        tag = ack_tag(gate.tenant_key, gate.nonce)
        assert gate.note_ack(tag)
        assert gate.note_ack(tag.hex())
        assert not gate.note_ack(b"\x00" * 32)


class TestStreamingBinding:
    def test_bind_protocol_exposes_the_gate(self, provisioner):
        rng = np.random.default_rng(1)
        bank = [
            FeatureVector(
                z1=1.0, z2=1.0, z3=0.95, z4=float(rng.uniform(0.02, 0.2))
            )
            for _ in range(20)
        ]
        verifier = StreamingVerifier(LivenessDetector(DetectorConfig()).fit(bank))
        assert verifier._protocol_gate is None
        gate = provisioner.provision("t", "s1")
        verifier.bind_protocol(gate)
        assert verifier._protocol_gate is gate
        verifier.reset()
        assert verifier._protocol_gate is None
