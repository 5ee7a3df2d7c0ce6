"""Network channel: delay, jitter, loss."""

import numpy as np
import pytest

from repro.net.channel import NetworkChannel
from repro.net.packet import Packetizer
from repro.video.codec import VideoCodec

from ..conftest import blank_frame


def _packets(n=200, mtu=200):
    codec = VideoCodec()
    packetizer = Packetizer(mtu_bytes=mtu)
    packets = []
    for i in range(n):
        encoded = codec.encode(blank_frame(16, 16, timestamp=i * 0.1))
        packets.extend(packetizer.packetize(encoded, send_time=i * 0.1))
    return packets


class TestDelay:
    def test_constant_delay_without_jitter(self):
        channel = NetworkChannel(base_delay_s=0.08, jitter_s=0.0, loss_rate=0.0)
        for delivered in channel.transmit_all(_packets(10)):
            assert delivered.arrival_time == pytest.approx(
                delivered.packet.send_time + 0.08
            )

    def test_jitter_adds_nonnegative_delay(self):
        channel = NetworkChannel(base_delay_s=0.05, jitter_s=0.02, seed=1)
        extra = [
            d.arrival_time - d.packet.send_time - 0.05
            for d in channel.transmit_all(_packets(100))
        ]
        assert min(extra) >= 0.0
        assert np.mean(extra) == pytest.approx(0.02, rel=0.3)


class TestLoss:
    def test_zero_loss_delivers_everything(self):
        channel = NetworkChannel(loss_rate=0.0)
        packets = _packets(50)
        assert len(channel.transmit_all(packets)) == len(packets)

    def test_loss_rate_approximated(self):
        channel = NetworkChannel(loss_rate=0.2, seed=2)
        packets = _packets(400)
        delivered = channel.transmit_all(packets)
        observed = 1.0 - len(delivered) / len(packets)
        assert observed == pytest.approx(0.2, abs=0.05)

    def test_stats_track_losses(self):
        channel = NetworkChannel(loss_rate=0.5, seed=3)
        packets = _packets(100)
        channel.transmit_all(packets)
        assert channel.stats.sent == len(packets)
        assert channel.stats.lost > 0
        assert channel.stats.loss_rate == pytest.approx(
            channel.stats.lost / channel.stats.sent
        )

    def test_bytes_counted(self):
        channel = NetworkChannel()
        packets = _packets(10)
        channel.transmit_all(packets)
        assert channel.stats.bytes_sent == sum(p.size_bytes for p in packets)


class TestDeterminism:
    def test_same_seed_same_outcome(self):
        packets = _packets(100)
        a = NetworkChannel(loss_rate=0.3, jitter_s=0.05, seed=7)
        b = NetworkChannel(loss_rate=0.3, jitter_s=0.05, seed=7)
        arrivals_a = [d.arrival_time for d in a.transmit_all(packets)]
        arrivals_b = [d.arrival_time for d in b.transmit_all(packets)]
        assert arrivals_a == arrivals_b


class TestDrawAlignment:
    """transmit() must consume the same RNG draws per packet no matter
    which knobs are active, so toggling one knob never reshuffles the
    randomness feeding another."""

    def test_jitter_knob_does_not_change_which_packets_drop(self):
        packets = _packets(300)
        no_jitter = NetworkChannel(loss_rate=0.3, jitter_s=0.0, seed=11)
        jittery = NetworkChannel(loss_rate=0.3, jitter_s=0.05, seed=11)
        lost_a = {d.packet.sequence for d in no_jitter.transmit_all(packets)}
        lost_b = {d.packet.sequence for d in jittery.transmit_all(packets)}
        assert lost_a == lost_b

    def test_loss_knob_does_not_change_arrival_times(self):
        packets = _packets(300)
        lossless = NetworkChannel(loss_rate=0.0, jitter_s=0.05, seed=12)
        lossy = NetworkChannel(loss_rate=0.3, jitter_s=0.05, seed=12)
        all_arrivals = {
            d.packet.sequence: d.arrival_time
            for d in lossless.transmit_all(packets)
        }
        delivered = lossy.transmit_all(packets)
        assert 0 < len(delivered) < len(packets)
        for d in delivered:
            assert d.arrival_time == all_arrivals[d.packet.sequence]


class TestValidation:
    def test_bad_loss_rate(self):
        with pytest.raises(ValueError):
            NetworkChannel(loss_rate=1.0)

    def test_negative_delay(self):
        with pytest.raises(ValueError):
            NetworkChannel(base_delay_s=-0.1)
