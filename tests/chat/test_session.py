"""VideoChatSession: the Fig. 4 loop."""

import numpy as np
import pytest

from repro.chat.session import VideoChatSession
from repro.experiments.profiles import Environment
from repro.experiments.simulate import (
    build_genuine_prover,
    build_links,
    build_verifier,
    default_user,
)
from repro.video.luminance import frame_mean_luminance


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


class TestValidation:
    def test_bad_duration(self):
        with pytest.raises(ValueError):
            _session().run(duration_s=0.0)

    def test_bad_fps(self):
        with pytest.raises(ValueError):
            VideoChatSession(verifier=None, prover=None, fps=0.0)
