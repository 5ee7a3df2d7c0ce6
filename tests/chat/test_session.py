"""VideoChatSession: the Fig. 4 loop."""

import dataclasses

import numpy as np
import pytest

from repro.chat.session import VideoChatSession
from repro.core.pipeline import ChatVerifier
from repro.experiments import simulate
from repro.experiments.profiles import Environment
from repro.experiments.simulate import (
    SessionSpec,
    build_genuine_prover,
    build_links,
    build_verifier,
    default_user,
)
from repro.video.codec import VideoCodec
from repro.video.luminance import frame_mean_luminance
from repro.video.stream import VideoStream


def _session(seed=0, env=None, fps=10.0, warmup=2.0):
    env = env or Environment(frame_size=(64, 64), verifier_frame_size=(48, 48))
    verifier = build_verifier(env, seed)
    prover = build_genuine_prover(default_user(), env, seed + 1)
    uplink, downlink = build_links(env, seed + 2)
    return VideoChatSession(
        verifier=verifier,
        prover=prover,
        uplink=uplink,
        downlink=downlink,
        fps=fps,
        warmup_s=warmup,
    )


class TestRecordShape:
    def test_stream_lengths_match_duration(self):
        record = _session(seed=1).run(duration_s=6.0)
        assert len(record.transmitted) == 60
        assert len(record.received) == 60
        assert record.fps == pytest.approx(10.0)
        assert record.duration_s == pytest.approx(6.0)

    def test_timestamps_aligned_on_verifier_clock(self):
        record = _session(seed=2).run(duration_s=4.0)
        assert np.allclose(
            record.transmitted.timestamps, record.received.timestamps
        )

    def test_warmup_excluded_from_record(self):
        record = _session(seed=3, warmup=2.0).run(duration_s=4.0)
        assert record.transmitted[0].timestamp == pytest.approx(2.0)

    def test_stats_populated(self):
        record = _session(seed=4).run(duration_s=4.0)
        assert "round_trip_delay_s" in record.stats
        assert record.stats["round_trip_delay_s"] > 0


class TestCausality:
    def test_reflection_follows_challenge(self):
        """The physical heart of the paper: Bob's face luminance must rise
        and fall with Alice's video luminance, delayed by the round trip."""
        record = _session(seed=5).run(duration_s=15.0)
        t_lum = np.array([frame_mean_luminance(f) for f in record.transmitted])
        r_lum = np.array([frame_mean_luminance(f) for f in record.received])
        # Cross-correlate at the nominal round-trip lag (4 samples).
        lag = 4
        t_c = t_lum[:-lag] - t_lum[:-lag].mean()
        r_c = r_lum[lag:] - r_lum[lag:].mean()
        corr = (t_c * r_c).sum() / np.sqrt((t_c**2).sum() * (r_c**2).sum())
        assert corr > 0.5

    def test_loss_freezes_but_does_not_stop(self):
        env = Environment(
            frame_size=(64, 64), verifier_frame_size=(48, 48), loss_rate=0.3
        )
        record = _session(seed=6, env=env).run(duration_s=5.0)
        assert record.stats["frozen_ticks"] > 0
        assert len(record.received) == 50


class TestReceivedStorage:
    """The received stream holds the decoder's 8-bit raster: one uint8
    array of h*w*3 bytes per distinct frame, shared by frozen repeats."""

    def test_received_pixels_are_the_uint8_raster(self):
        env = Environment(
            frame_size=(64, 64), verifier_frame_size=(48, 48), loss_rate=0.3
        )
        record = _session(seed=7, env=env).run(duration_s=5.0)
        arrays = list({id(f.pixels): f.pixels for f in record.received}.values())
        assert record.stats["frozen_ticks"] > 0
        assert len(arrays) < len(record.received)
        assert {a.dtype for a in arrays} == {np.dtype(np.uint8)}
        assert all(a.base is None and a.shape == (64, 64, 3) for a in arrays)
        assert sum(a.nbytes for a in arrays) == len(arrays) * 64 * 64 * 3

    def test_concealment_is_an_8bit_black_frame(self):
        # With no warm-up the first ticks precede any arrival.
        record = _session(seed=8, warmup=0.0).run(duration_s=3.0)
        concealed = [f for f in record.received if f.metadata.get("concealed")]
        assert 0 < len(concealed) < len(record.received)
        assert {f.pixels.dtype for f in record.received} == {np.dtype(np.uint8)}
        for frame in concealed:
            assert frame.pixels.shape == (64, 64, 3)
            assert not frame.pixels.any()


class _SpyCodec(VideoCodec):
    """The uplink codec, keeping every frame handed to it: Alice's float
    captures, the frames the chat loop recorded before it kept the sent
    8-bit raster instead."""

    def __init__(self, codec):
        super().__init__(quality=codec.quality, base_compression=codec.base_compression)
        self.inputs = []

    def encode(self, frame):
        self.inputs.append(frame)
        return super().encode(frame)


ORACLE_ENV = Environment(frame_size=(64, 64), verifier_frame_size=(48, 48))


def _with_float_twin(spec, monkeypatch):
    """Simulate ``spec`` with a spy on Alice's uplink codec; return the
    record and its twin whose transmitted stream is her float capture."""
    spies = []
    real_build_links = simulate.build_links

    def spied_links(*args, **kwargs):
        uplink, downlink = real_build_links(*args, **kwargs)
        uplink.codec = _SpyCodec(uplink.codec)
        spies.append(uplink.codec)
        return uplink, downlink

    monkeypatch.setattr(simulate, "build_links", spied_links)
    record = spec.simulate(ORACLE_ENV)
    (spy,) = spies
    # Warm-up frames went out first; the recorded ticks are the tail.
    twin = VideoStream(record.fps, spy.inputs[len(spy.inputs) - len(record.transmitted) :])
    return record, dataclasses.replace(record, transmitted=twin)


@pytest.fixture(scope="module")
def oracle_verifier():
    return ChatVerifier().enroll(
        SessionSpec("genuine", seed=600 + s).simulate(ORACLE_ENV) for s in range(6)
    )


class TestTransmittedRecord:
    """The transmitted stream is the 8-bit video Alice's uplink sent,
    checked against her float capture (the frames handed to the codec)."""

    def test_frames_are_the_sent_uint8_raster(self, monkeypatch):
        record, twin = _with_float_twin(SessionSpec("genuine", seed=31), monkeypatch)
        assert len(record.transmitted) == len(twin.transmitted) == 150
        for sent, capture in zip(record.transmitted, twin.transmitted):
            assert capture.pixels.dtype == np.float64
            assert sent.pixels.dtype == np.uint8
            assert sent.pixels.flags.owndata and sent.pixels.nbytes == 48 * 48 * 3
            assert sent.timestamp == capture.timestamp
            assert sent.metadata is capture.metadata

    def test_luminance_within_rounding_of_the_capture(self, monkeypatch):
        record, twin = _with_float_twin(SessionSpec("attack", seed=32), monkeypatch)
        sent = np.array([frame_mean_luminance(f) for f in record.transmitted])
        capture = np.array([frame_mean_luminance(f) for f in twin.transmitted])
        assert np.all(np.abs(sent - capture) <= 0.5)

    @pytest.mark.parametrize(
        "kind,seed",
        [("genuine", 41), ("genuine", 42), ("attack", 43), ("attack", 44),
         ("replay", 45), ("replay", 46)],
    )
    def test_verdict_matches_the_float_twin(self, oracle_verifier, monkeypatch, kind, seed):
        record, twin = _with_float_twin(SessionSpec(kind, seed=seed), monkeypatch)
        got = oracle_verifier.verify_session(record)
        want = oracle_verifier.verify_session(twin)
        assert got.is_attacker == want.is_attacker
        assert [a.lof_score for a in got.attempts] == pytest.approx(
            [a.lof_score for a in want.attempts], rel=1e-3
        )

    def test_sent_raster_is_read_only(self):
        record = _session(seed=9).run(duration_s=1.0)
        with pytest.raises(ValueError, match="read-only"):
            record.transmitted[0].pixels[0, 0, 0] = 0
        with pytest.raises(ValueError, match="read-only"):
            record.received[-1].pixels += 1


class TestValidation:
    def test_bad_duration(self):
        with pytest.raises(ValueError):
            _session().run(duration_s=0.0)

    def test_bad_fps(self):
        with pytest.raises(ValueError):
            VideoChatSession(verifier=None, prover=None, fps=0.0)
