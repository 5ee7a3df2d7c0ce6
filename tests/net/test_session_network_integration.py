"""Network-path integration: how impairments surface in the chat loop."""

import numpy as np
import pytest

from repro.chat.session import VideoChatSession
from repro.experiments.profiles import Environment
from repro.experiments.simulate import (
    build_genuine_prover,
    build_links,
    build_verifier,
    default_user,
    simulate_genuine_session,
)
from repro.core.features import extract_features_batch
from repro.core.luminance import received_luminance_signal, transmitted_luminance_signal


def _run(env, seed=0, duration=15.0):
    verifier = build_verifier(env, seed)
    prover = build_genuine_prover(default_user(), env, seed + 1)
    uplink, downlink = build_links(env, seed + 2)
    session = VideoChatSession(
        verifier=verifier, prover=prover, uplink=uplink, downlink=downlink, fps=env.fps
    )
    return session.run(duration)


def _features(record):
    t = transmitted_luminance_signal(record.transmitted)
    r = received_luminance_signal(record.received).luminance
    return extract_features_batch([(t, r)])[0]


BASE = Environment(frame_size=(64, 64), verifier_frame_size=(48, 48))


class TestDelayPropagation:
    @pytest.mark.parametrize("one_way_ms", [40, 120])
    def test_estimated_delay_tracks_network(self, one_way_ms):
        env = BASE.replace(
            uplink_delay_s=one_way_ms / 1000.0, downlink_delay_s=one_way_ms / 1000.0
        )
        fx = _features(_run(env, seed=20 + one_way_ms))
        # Round trip plus two playout deadlines (adaptive, see
        # simulate._playout_delay); display/AE add a little on top.
        delay = one_way_ms / 1000.0
        playout = max(env.playout_delay_s, delay + 2 * env.jitter_s + 0.02)
        nominal_rtt = 2 * delay + 2 * playout
        assert fx.delay_s == pytest.approx(nominal_rtt, abs=0.5)

    def test_high_latency_path_still_verifiable(self):
        """With the adaptive playout deadline, even a 250 ms one-way path
        (a poor intercontinental link) keeps the reflection lag inside
        the matching tolerance and the clip verifies normally."""
        env = BASE.replace(uplink_delay_s=0.25, downlink_delay_s=0.25)
        fx = _features(_run(env, seed=31))
        assert fx.features.z1 == pytest.approx(1.0)
        assert fx.features.z3 > 0.7
        assert 0.4 < fx.delay_s < 1.0


class TestLossResilience:
    def test_moderate_loss_preserves_evidence(self):
        env = BASE.replace(loss_rate=0.05)
        record = _run(env, seed=41)
        assert record.stats["frozen_ticks"] > 0
        fx = _features(record)
        assert fx.features.z1 >= 0.5
        assert fx.features.z3 > 0.6

    def test_loss_statistics_exposed(self):
        env = BASE.replace(loss_rate=0.1)
        record = _run(env, seed=42)
        assert record.stats["uplink_loss_rate"] > 0.02
        assert record.stats["downlink_loss_rate"] > 0.02


class TestJitterResilience:
    def test_heavy_jitter_preserves_evidence(self):
        env = BASE.replace(jitter_s=0.06)
        fx = _features(_run(env, seed=51))
        assert fx.features.z3 > 0.6

    def test_jitter_does_not_reorder_playout(self):
        env = BASE.replace(jitter_s=0.08)
        record = _run(env, seed=52)
        sources = [
            f.metadata.get("frame_id", -1)
            for f in record.received
            if "frame_id" in f.metadata
        ]
        assert sources == sorted(sources)


class TestCodecQuality:
    def test_coarse_codec_still_verifiable(self):
        # Quantization at step 4 leaves the luminance steps intact.
        from repro.net.link import MediaLink
        from repro.net.channel import NetworkChannel
        from repro.net.jitterbuffer import JitterBuffer
        from repro.video.codec import VideoCodec

        env = BASE
        verifier = build_verifier(env, 61)
        prover = build_genuine_prover(default_user(), env, 62)
        uplink = MediaLink(
            codec=VideoCodec(quality=0.25),
            channel=NetworkChannel(seed=63),
            jitter_buffer=JitterBuffer(),
        )
        downlink = MediaLink(
            codec=VideoCodec(quality=0.25),
            channel=NetworkChannel(seed=64),
            jitter_buffer=JitterBuffer(),
        )
        session = VideoChatSession(
            verifier=verifier, prover=prover, uplink=uplink, downlink=downlink, fps=env.fps
        )
        fx = _features(session.run(15.0))
        assert fx.features.z3 > 0.7
        assert fx.features.z1 >= 0.5
