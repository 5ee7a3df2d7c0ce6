"""Layer-by-layer counter contracts: streaming, chat, net, faults.

Each hot-path layer exposes a small fixed metric vocabulary; these tests
pin the names, labels, and the invariant that instrumentation never
perturbs the seeded signal chain it observes.
"""

import numpy as np
import pytest

from repro.chat.session import VideoChatSession
from repro.core.config import DetectorConfig
from repro.core.detector import DetectionResult, LivenessDetector
from repro.core.features import FeatureVector
from repro.core.streaming import ClipQuality, QualityIssue, StreamingVerifier
from repro.experiments.profiles import Environment
from repro.experiments.simulate import (
    build_genuine_prover,
    build_links,
    build_verifier,
    default_user,
)
from repro.faults import FaultSpec, FaultyChannel, apply_faults_to_record
from repro.net.channel import NetworkChannel
from repro.net.packet import Packetizer
from repro.obs import Instrumentation
from repro.video.codec import VideoCodec

from ..conftest import blank_frame


def _packets(n=60, dt=0.1):
    codec = VideoCodec()
    packetizer = Packetizer(mtu_bytes=200)
    packets = []
    for i in range(n):
        encoded = codec.encode(blank_frame(16, 16, timestamp=i * dt))
        packets.extend(packetizer.packetize(encoded, send_time=i * dt))
    return packets


class TestNetworkChannelCounters:
    def test_sent_lost_and_jitter_series(self):
        instr = Instrumentation.enabled()
        channel = NetworkChannel(
            base_delay_s=0.05, jitter_s=0.02, loss_rate=0.5, seed=3,
            instrumentation=instr,
        )
        channel.transmit_all(_packets(100))
        snap = instr.snapshot()
        assert snap.counter_value("net_packets_sent_total") == channel.stats.sent
        assert snap.counter_value("net_packets_lost_total") == channel.stats.lost
        assert channel.stats.lost > 0
        jitter = snap.get("net_jitter_seconds", kind="histogram")
        assert jitter.count == channel.stats.sent

    def test_instrumentation_never_perturbs_arrivals(self):
        packets = _packets(80)
        bare = NetworkChannel(base_delay_s=0.05, jitter_s=0.02, loss_rate=0.2, seed=7)
        watched = NetworkChannel(
            base_delay_s=0.05, jitter_s=0.02, loss_rate=0.2, seed=7,
            instrumentation=Instrumentation.enabled(),
        )
        a = [(d.packet.send_time, d.arrival_time) for d in bare.transmit_all(packets)]
        b = [(d.packet.send_time, d.arrival_time) for d in watched.transmit_all(packets)]
        assert a == b


class TestFaultCounters:
    def _schedule(self, spec, duration=6.0, seed=0):
        return spec.schedule(duration, 10.0, seed=seed)

    def test_loss_burst_counted_per_dropped_packet(self):
        instr = Instrumentation.enabled()
        wrapped = FaultyChannel(
            NetworkChannel(loss_rate=0.0, seed=1),
            self._schedule(FaultSpec(loss_burst_rate=1.0)),
            instrumentation=instr,
        )
        packets = _packets(50)
        assert wrapped.transmit_all(packets) == []
        assert instr.snapshot().counter_value(
            "faults_injected_total", kind="loss_burst"
        ) == len(packets)

    def test_jitter_spike_counted(self):
        instr = Instrumentation.enabled()
        wrapped = FaultyChannel(
            NetworkChannel(loss_rate=0.0, seed=1),
            self._schedule(FaultSpec(jitter_spike_rate=1.0, jitter_spike_s=0.2)),
            instrumentation=instr,
        )
        delivered = wrapped.transmit_all(_packets(50))
        spikes = instr.snapshot().counter_value(
            "faults_injected_total", kind="jitter_spike"
        )
        assert spikes > 0
        assert spikes <= len(delivered)

    def test_record_faults_counted_only_when_present(self):
        from repro.chat.session import SessionRecord
        from repro.video.frame import Frame
        from repro.video.stream import VideoStream

        rng = np.random.default_rng(0)
        transmitted, received = VideoStream(fps=10.0), VideoStream(fps=10.0)
        for i in range(40):
            transmitted.append(
                Frame(pixels=rng.uniform(0.2, 0.8, (8, 8, 3)), timestamp=i / 10.0)
            )
            received.append(
                Frame(
                    pixels=rng.uniform(0.2, 0.8, (8, 8, 3)),
                    timestamp=i / 10.0,
                    metadata={"fresh": True},
                )
            )
        record = SessionRecord(
            transmitted=transmitted, received=received, fps=10.0, stats={}
        )

        clean = Instrumentation.enabled()
        apply_faults_to_record(record, self._schedule(FaultSpec(), duration=4.0), clean)
        assert clean.snapshot().counter_value("faults_injected_total", kind="freeze") == 0
        assert len(clean.snapshot().series) == 0  # zero-valued series suppressed

        instr = Instrumentation.enabled()
        spec = FaultSpec(freeze_rate=0.5, landmark_dropout_rate=0.5)
        apply_faults_to_record(record, self._schedule(spec, duration=4.0), instr)
        snap = instr.snapshot()
        assert snap.counter_value("faults_injected_total", kind="freeze") > 0
        assert snap.counter_value("faults_injected_total", kind="landmark_dropout") > 0


class TestChatSessionCounters:
    def test_ticks_and_span(self):
        instr = Instrumentation.enabled()
        env = Environment(frame_size=(64, 64), verifier_frame_size=(48, 48))
        uplink, downlink = build_links(env, 2)
        session = VideoChatSession(
            verifier=build_verifier(env, 0),
            prover=build_genuine_prover(default_user(), env, 1),
            uplink=uplink,
            downlink=downlink,
            fps=10.0,
            warmup_s=1.0,
            instrumentation=instr,
        )
        record = session.run(duration_s=3.0)
        snap = instr.snapshot()
        assert snap.counter_value("chat_ticks_total") == len(record.transmitted)
        assert snap.counter_value("chat_frozen_ticks_total") == record.stats[
            "frozen_ticks"
        ]
        spans = instr.drain_spans()
        assert [r["name"] for r in spans] == ["chat.session"]
        assert spans[0]["stage"] == "simulate"
        assert spans[0]["attrs"] == {"duration_s": 3.0}


def _bank(config):
    rng = np.random.default_rng(0)
    return [
        FeatureVector(
            z1=1.0,
            z2=float(rng.choice([1.0, 1.0, 1.0, 0.667])),
            z3=float(rng.uniform(0.9, 1.0)),
            z4=float(rng.uniform(0.02, 0.2)),
        )
        for _ in range(20)
    ]


def _result(rejected):
    return DetectionResult(
        features=FeatureVector(z1=1.0, z2=1.0, z3=1.0, z4=0.1),
        lof_score=10.0 if rejected else 1.0,
        threshold=3.0,
    )


def _short_clip_verifier(instr, rejected=False, quality=None, **kwargs):
    """A streaming verifier with 3 s clips and a stubbed detector core,
    so tests exercise the counting path without the full signal chain."""
    config = DetectorConfig().with_overrides(clip_duration_s=3.0)
    detector = LivenessDetector(config).fit(_bank(config))
    detector.verify_clip = lambda t, r, instrumentation=None: _result(rejected)
    verifier = StreamingVerifier(detector, instrumentation=instr, **kwargs)
    if quality is not None:
        verifier._grade = lambda *a, **kw: quality
    return verifier


def _feed_clips(verifier, clips):
    samples = verifier.config.samples_per_clip
    for i in range(clips * samples):
        frame = blank_frame(16, 16, timestamp=i / 10.0)
        verifier.push(frame, frame)


class TestStreamingCounters:
    def test_every_quality_issue_has_a_label(self):
        instr = Instrumentation.enabled()
        quality = ClipQuality(
            landmark_hit_fraction=0.0,
            frozen_fraction=1.0,
            transmitted_changes=0,
            received_changes=1,
            issues=tuple(QualityIssue),
        )
        verifier = _short_clip_verifier(instr, quality=quality)
        _feed_clips(verifier, 1)
        snap = instr.snapshot()
        for issue in QualityIssue:
            assert snap.counter_value(
                "streaming_quality_issues_total", issue=issue.name.lower()
            ) == 1
        # CHALLENGE_OBSCURED / SPURIOUS_RECEIVED_CHANGE explicitly covered.
        assert snap.counter_value(
            "streaming_quality_issues_total", issue="challenge_obscured"
        ) == 1
        assert snap.counter_value(
            "streaming_quality_issues_total", issue="spurious_received_change"
        ) == 1
        assert snap.counter_value(
            "streaming_attempts_total", verdict="inconclusive"
        ) == 1

    def test_conclusive_attempts_counted_by_verdict(self):
        instr = Instrumentation.enabled()
        good = ClipQuality(
            landmark_hit_fraction=1.0,
            frozen_fraction=0.0,
            transmitted_changes=2,
            received_changes=2,
        )
        verifier = _short_clip_verifier(instr, rejected=False, quality=good)
        _feed_clips(verifier, 2)
        assert instr.snapshot().counter_value(
            "streaming_attempts_total", verdict="accept"
        ) == 2

    def test_alert_counted_once(self):
        instr = Instrumentation.enabled()
        alerts = []
        good = ClipQuality(
            landmark_hit_fraction=1.0,
            frozen_fraction=0.0,
            transmitted_changes=2,
            received_changes=2,
        )
        verifier = _short_clip_verifier(
            instr, rejected=True, quality=good, on_alert=alerts.append
        )
        _feed_clips(verifier, 3)
        assert len(alerts) == 1
        assert instr.snapshot().counter_value("streaming_alerts_total") == 1
        assert instr.snapshot().counter_value(
            "streaming_attempts_total", verdict="reject"
        ) == 3
