"""Fault injection wrappers: replay a schedule against the live path.

Three injection points, none of which modifies the wrapped component's
happy path:

* :class:`FaultyChannel` wraps a :class:`~repro.net.channel.NetworkChannel`
  and applies scheduled loss bursts, jitter spikes, and clock skew to the
  packets flowing through it.  The inner channel is always consulted
  first (even for packets a burst will drop), so its seeded RNG consumes
  the same draws with or without faults — fault ablations stay
  apples-to-apples against the clean run.
* :func:`build_faulty_links` mirrors
  :func:`repro.experiments.simulate.build_links` but wraps both channel
  directions with one schedule.
* :func:`apply_faults_to_record` replays the receiver-side vision faults
  (landmark-dropout windows, frame freezes) over a finished
  :class:`~repro.chat.session.SessionRecord` — the faults that live
  *after* the jitter buffer, in the capture/track half of the stack.

Injected frames are marked in their metadata (``fresh=False`` for
freezes, ``landmark_dropout=True`` for dropout) so the streaming quality
gate can count frozen samples exactly like real loss concealment.
"""

from __future__ import annotations

import numpy as np

from ..chat.session import SessionRecord
from ..net.channel import DeliveredPacket, NetworkChannel
from ..net.link import MediaLink
from ..net.packet import Packet
from ..obs.instrument import Instrumentation
from ..video.frame import Frame
from ..video.stream import VideoStream
from .schedule import FaultSchedule

__all__ = ["FaultyChannel", "build_faulty_links", "apply_faults_to_record"]


class FaultyChannel:
    """A :class:`NetworkChannel` with a fault schedule riding on top.

    Duck-typed to the channel interface the :class:`MediaLink` uses
    (``transmit``/``transmit_all``/``stats``/``base_delay_s``); the inner
    channel keeps owning the statistics so session bookkeeping is
    unchanged.
    """

    def __init__(
        self,
        inner: NetworkChannel,
        schedule: FaultSchedule,
        instrumentation: Instrumentation | None = None,
    ) -> None:
        self.inner = inner
        self.schedule = schedule
        self._instr = Instrumentation.ensure(instrumentation)

    @property
    def stats(self):
        return self.inner.stats

    @property
    def base_delay_s(self) -> float:
        return self.inner.base_delay_s

    def transmit(self, packet: Packet) -> DeliveredPacket | None:
        # Always run the inner channel first: its RNG must consume the
        # same per-packet draws whether or not a burst eats the packet.
        delivered = self.inner.transmit(packet)
        tick = self.schedule.tick_of(packet.send_time)
        if self.schedule.loss_burst[tick]:
            if delivered is not None:
                self.inner.stats.lost += 1
            self._instr.count("faults_injected_total", kind="loss_burst")
            return None
        if delivered is None:
            return None
        extra = float(self.schedule.jitter_extra_s[tick])
        if extra > 0.0:
            self._instr.count("faults_injected_total", kind="jitter_spike")
        arrival = delivered.arrival_time + extra
        arrival *= 1.0 + self.schedule.clock_skew
        return DeliveredPacket(packet=delivered.packet, arrival_time=arrival)

    def transmit_all(self, packets: list[Packet]) -> list[DeliveredPacket]:
        delivered = []
        for packet in packets:
            result = self.transmit(packet)
            if result is not None:
                delivered.append(result)
        return delivered


def build_faulty_links(
    uplink: MediaLink,
    downlink: MediaLink,
    schedule: FaultSchedule,
    instrumentation: Instrumentation | None = None,
) -> tuple[MediaLink, MediaLink]:
    """Wrap both directions of an existing link pair with one schedule.

    Fresh :class:`MediaLink` objects are returned (codec, packetizer and
    jitter buffer are shared with the originals) so the clean links stay
    usable for a no-fault control run.
    """
    def _wrap(link: MediaLink) -> MediaLink:
        wrapped = MediaLink(
            codec=link.codec,
            packetizer=link.packetizer,
            jitter_buffer=link.jitter_buffer,
        )
        wrapped.channel = FaultyChannel(link.channel, schedule, instrumentation)
        return wrapped

    return _wrap(uplink), _wrap(downlink)


def apply_faults_to_record(
    record: SessionRecord,
    schedule: FaultSchedule,
    instrumentation: Instrumentation | None = None,
) -> SessionRecord:
    """Replay receiver-side vision faults over a finished session.

    Freeze windows repeat the previous (possibly already frozen) frame
    and mark it stale; landmark-dropout windows black the frame out so
    the landmark detector misses, exactly like a tracker losing the
    face.  The transmitted stream is never touched — Alice's own capture
    does not ride the faulty path.
    """
    received = VideoStream(fps=record.fps)
    previous: Frame | None = None
    frozen_ticks = 0
    dropout_ticks = 0
    for frame in record.received:
        tick = schedule.tick_of(frame.timestamp)
        if schedule.freeze[tick] and previous is not None:
            frame = Frame(
                pixels=previous.pixels,
                timestamp=frame.timestamp,
                metadata=dict(previous.metadata, fresh=False, fault_frozen=True),
            )
            frozen_ticks += 1
        elif schedule.landmark_dropout[tick]:
            frame = Frame(
                pixels=np.zeros(frame.pixels.shape, dtype=np.uint8),
                timestamp=frame.timestamp,
                metadata=dict(frame.metadata, landmark_dropout=True),
            )
            dropout_ticks += 1
        received.append(frame)
        previous = frame
    instr = Instrumentation.ensure(instrumentation)
    if frozen_ticks:
        instr.count("faults_injected_total", frozen_ticks, kind="freeze")
    if dropout_ticks:
        instr.count("faults_injected_total", dropout_ticks, kind="landmark_dropout")
    stats = dict(
        record.stats,
        fault_frozen_ticks=frozen_ticks,
        fault_dropout_ticks=dropout_ticks,
        fault_summary=schedule.summary(),
    )
    return SessionRecord(
        transmitted=record.transmitted,
        received=received,
        fps=record.fps,
        stats=stats,
    )
