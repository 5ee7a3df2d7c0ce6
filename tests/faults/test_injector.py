"""Fault injection wrappers: FaultyChannel and record-level vision faults."""

import numpy as np
import pytest

from repro.chat.session import SessionRecord
from repro.faults import FaultSpec, FaultyChannel, apply_faults_to_record
from repro.net.channel import NetworkChannel
from repro.net.packet import Packetizer
from repro.video.codec import VideoCodec
from repro.video.frame import Frame
from repro.video.stream import VideoStream

from ..conftest import blank_frame


def _packets(n=60, dt=0.1):
    codec = VideoCodec()
    packetizer = Packetizer(mtu_bytes=200)
    packets = []
    for i in range(n):
        encoded = codec.encode(blank_frame(16, 16, timestamp=i * dt))
        packets.extend(packetizer.packetize(encoded, send_time=i * dt))
    return packets


def _schedule(spec, duration=10.0, seed=0):
    return spec.schedule(duration, 10.0, seed=seed)


class TestFaultyChannel:
    def test_clear_schedule_is_transparent(self):
        packets = _packets()
        clean = NetworkChannel(base_delay_s=0.05, jitter_s=0.01, seed=9)
        wrapped = FaultyChannel(
            NetworkChannel(base_delay_s=0.05, jitter_s=0.01, seed=9),
            _schedule(FaultSpec()),
        )
        a = clean.transmit_all(packets)
        b = wrapped.transmit_all(packets)
        assert [x.arrival_time for x in a] == [x.arrival_time for x in b]

    def test_burst_drops_packets_and_counts_them(self):
        schedule = _schedule(FaultSpec(loss_burst_rate=1.0))
        wrapped = FaultyChannel(NetworkChannel(loss_rate=0.0, seed=1), schedule)
        packets = _packets()
        assert wrapped.transmit_all(packets) == []
        assert wrapped.stats.lost == len(packets)

    def test_inner_rng_unaffected_by_bursts(self):
        # The inner channel must consume the same draws whether or not a
        # burst eats the packet, so post-burst arrivals are identical.
        packets = _packets()
        spec = FaultSpec(loss_burst_rate=0.4, mean_burst_s=0.5)
        clean = NetworkChannel(base_delay_s=0.05, jitter_s=0.02, seed=4)
        wrapped = FaultyChannel(
            NetworkChannel(base_delay_s=0.05, jitter_s=0.02, seed=4),
            _schedule(spec, seed=2),
        )
        clean_times = {
            d.packet.send_time: d.arrival_time for d in clean.transmit_all(packets)
        }
        for delivered in wrapped.transmit_all(packets):
            assert delivered.arrival_time == clean_times[delivered.packet.send_time]

    def test_jitter_spike_delays_arrivals(self):
        spec = FaultSpec(jitter_spike_rate=1.0, jitter_spike_s=0.2)
        schedule = _schedule(spec)
        wrapped = FaultyChannel(
            NetworkChannel(base_delay_s=0.05, jitter_s=0.0, seed=1), schedule
        )
        extra = [
            d.arrival_time - d.packet.send_time - 0.05
            for d in wrapped.transmit_all(_packets())
        ]
        assert min(extra) >= 0.0
        assert np.mean(extra) == pytest.approx(0.2, rel=0.5)

    def test_clock_skew_stretches_arrival_times(self):
        schedule = _schedule(FaultSpec(clock_skew=0.1))
        wrapped = FaultyChannel(
            NetworkChannel(base_delay_s=0.1, jitter_s=0.0, seed=1), schedule
        )
        for delivered in wrapped.transmit_all(_packets(20)):
            expected = (delivered.packet.send_time + 0.1) * 1.1
            assert delivered.arrival_time == pytest.approx(expected)


def _record(ticks=40, fps=10.0):
    rng = np.random.default_rng(0)
    transmitted = VideoStream(fps=fps)
    received = VideoStream(fps=fps)
    for i in range(ticks):
        t = i / fps
        transmitted.append(
            Frame(pixels=rng.uniform(0.2, 0.8, (8, 8, 3)), timestamp=t)
        )
        received.append(
            Frame(
                pixels=rng.uniform(0.2, 0.8, (8, 8, 3)),
                timestamp=t,
                metadata={"fresh": True},
            )
        )
    return SessionRecord(transmitted=transmitted, received=received, fps=fps, stats={})


class TestApplyFaultsToRecord:
    def test_clear_schedule_leaves_frames_alone(self):
        record = _record()
        schedule = _schedule(FaultSpec())
        faulted = apply_faults_to_record(record, schedule)
        for before, after in zip(record.received, faulted.received):
            assert np.array_equal(before.pixels, after.pixels)
        assert faulted.stats["fault_frozen_ticks"] == 0
        assert faulted.stats["fault_dropout_ticks"] == 0

    def test_freeze_repeats_previous_frame(self):
        record = _record()
        schedule = _schedule(FaultSpec(freeze_rate=1.0))
        faulted = apply_faults_to_record(record, schedule)
        frames = list(faulted.received)
        # First frame has no predecessor; every later one repeats it.
        for frame in frames[1:]:
            assert np.array_equal(frame.pixels, frames[0].pixels)
            assert frame.metadata["fresh"] is False
            assert frame.metadata["fault_frozen"] is True
        assert faulted.stats["fault_frozen_ticks"] == len(frames) - 1

    def test_dropout_blacks_out_pixels(self):
        record = _record()
        schedule = _schedule(FaultSpec(landmark_dropout_rate=1.0))
        faulted = apply_faults_to_record(record, schedule)
        for frame in faulted.received:
            assert frame.pixels.max() == pytest.approx(0.0)
            assert frame.pixels.dtype == np.uint8
            assert frame.metadata["landmark_dropout"] is True

    def test_transmitted_stream_is_untouched(self):
        record = _record()
        schedule = _schedule(
            FaultSpec(freeze_rate=1.0, landmark_dropout_rate=1.0)
        )
        faulted = apply_faults_to_record(record, schedule)
        for before, after in zip(record.transmitted, faulted.transmitted):
            assert np.array_equal(before.pixels, after.pixels)

    def test_freeze_timestamps_follow_the_clock(self):
        record = _record()
        schedule = _schedule(FaultSpec(freeze_rate=1.0))
        faulted = apply_faults_to_record(record, schedule)
        for original, frame in zip(record.received, faulted.received):
            assert frame.timestamp == original.timestamp

    def test_summary_attached_to_stats(self):
        faulted = apply_faults_to_record(
            _record(), _schedule(FaultSpec(freeze_rate=0.5))
        )
        assert "freeze_fraction" in faulted.stats["fault_summary"]
