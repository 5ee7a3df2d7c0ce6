"""The full video-chat loop of the paper's Fig. 4.

:class:`VideoChatSession` wires a verifier endpoint (Alice) and a prover
endpoint (Bob — genuine or attacker) through two :class:`MediaLink`\\ s and
drives the simulation clock.  The output is a :class:`SessionRecord`
holding exactly what Alice's detector needs: the video she transmitted
(the encoded 8-bit frames her uplink sent) and the video she received,
both on her own clock.

A warm-up period runs before recording starts so that auto-exposure loops
converge and the first frames propagate through both network paths (a
real call has been running before anyone triggers a liveness check).
"""

from __future__ import annotations

import dataclasses
from typing import Any

import numpy as np

from ..net.link import MediaLink
from ..obs.instrument import Instrumentation
from ..video.frame import Frame
from ..video.stream import VideoStream
from .endpoints import ProverEndpoint, VerifierEndpoint

__all__ = ["WARMUP_S", "SessionRecord", "VideoChatSession"]

#: Default simulated time before recording starts.  Anything scheduled
#: on absolute session time (derived challenge schedules, a replayed
#: response) shifts by it.
WARMUP_S = 2.0


@dataclasses.dataclass
class SessionRecord:
    """Everything the verifier side observed during a run.

    ``transmitted`` is the video Alice transmitted: the encoded ``uint8``
    frames her uplink sent, with her capture timestamps and metadata.
    ``received`` is what her decoder played out.  Both streams hold the
    codecs' read-only rasters without a copy, so a record costs the bytes
    its frames carry.
    """

    transmitted: VideoStream
    received: VideoStream
    fps: float
    stats: dict[str, Any] = dataclasses.field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return len(self.transmitted) / self.fps if self.fps > 0 else 0.0


class VideoChatSession:
    """Two endpoints, two media links, one clock.

    Parameters
    ----------
    verifier:
        Alice's endpoint (produces the transmitted video).
    prover:
        The untrusted side — any :class:`ProverEndpoint`.
    uplink:
        Alice -> prover media path (fills the prover's screen).
    downlink:
        Prover -> Alice media path (the received video).
    fps:
        Simulation tick rate; also the capture rate of both cameras.
    warmup_s:
        Time simulated before recording begins.
    instrumentation:
        Optional observability handle: ``chat.session`` span around the
        whole run, tick/freeze counters under ``chat_*``.
    """

    def __init__(
        self,
        verifier: VerifierEndpoint,
        prover: ProverEndpoint,
        uplink: MediaLink | None = None,
        downlink: MediaLink | None = None,
        fps: float = 10.0,
        warmup_s: float = WARMUP_S,
        instrumentation: Instrumentation | None = None,
    ) -> None:
        if fps <= 0:
            raise ValueError("fps must be positive")
        if warmup_s < 0:
            raise ValueError("warmup_s must be non-negative")
        self.verifier = verifier
        self.prover = prover
        self.uplink = uplink or MediaLink()
        self.downlink = downlink or MediaLink()
        self.fps = fps
        self.warmup_s = warmup_s
        self.instrumentation = Instrumentation.ensure(instrumentation)

    def run(self, duration_s: float) -> SessionRecord:
        """Simulate ``duration_s`` seconds of chat (after warm-up)."""
        if duration_s <= 0:
            raise ValueError("duration_s must be positive")
        with self.instrumentation.span(
            "chat.session", stage="simulate", duration_s=duration_s
        ):
            record = self._run(duration_s)
        self.instrumentation.count("chat_ticks_total", len(record.transmitted))
        self.instrumentation.count(
            "chat_frozen_ticks_total", record.stats["frozen_ticks"]
        )
        return record

    def _run(self, duration_s: float) -> SessionRecord:
        dt = 1.0 / self.fps
        total_ticks = int(round((self.warmup_s + duration_s) * self.fps))
        warmup_ticks = int(round(self.warmup_s * self.fps))

        transmitted = VideoStream(fps=self.fps)
        received = VideoStream(fps=self.fps)
        displayed_at_prover: Frame | None = None
        latest_received: Frame | None = None
        frozen_ticks = 0

        for tick in range(total_ticks):
            t = tick * dt

            # Step 1-2: Alice captures and sends her frame.  The record
            # keeps the 8-bit frame her uplink sent: that is what drives
            # the prover's screen.
            sent = self.uplink.send(self.verifier.produce_frame(t))

            # The prover's chat software plays out the newest frame.
            arrived = self.uplink.receive(t)
            if arrived is not None:
                displayed_at_prover = arrived

            # Step 3: the prover produces its frame (genuine reflection or
            # forged content) and sends it back.
            prover_frame = self.prover.produce_frame(t, displayed_at_prover)
            self.downlink.send(prover_frame)

            # Step 4: Alice's playout, with freeze concealment on loss.
            arrived_back = self.downlink.receive(t)
            fresh = arrived_back is not None
            if fresh:
                latest_received = arrived_back

            if tick >= warmup_ticks:
                transmitted.append(sent)
                if latest_received is None:
                    # Nothing has ever arrived (extreme loss): conceal
                    # with a black frame of the prover's size, in the
                    # decoder's 8-bit raster like every received frame.
                    concealed = Frame(
                        pixels=np.zeros(prover_frame.pixels.shape, dtype=np.uint8),
                        timestamp=t,
                        metadata={"concealed": True},
                    )
                    received.append(concealed)
                    frozen_ticks += 1
                else:
                    received.append(
                        Frame(
                            pixels=latest_received.pixels,
                            timestamp=t,
                            metadata=dict(latest_received.metadata, fresh=fresh),
                        )
                    )
                    if not fresh:
                        frozen_ticks += 1

        stats = {
            "uplink_loss_rate": self.uplink.channel.stats.loss_rate,
            "downlink_loss_rate": self.downlink.channel.stats.loss_rate,
            "uplink_lost_frames": self.uplink.jitter_buffer.stats.lost_frames,
            "downlink_lost_frames": self.downlink.jitter_buffer.stats.lost_frames,
            "frozen_ticks": frozen_ticks,
            "round_trip_delay_s": self.uplink.one_way_delay_s + self.downlink.one_way_delay_s,
        }
        return SessionRecord(
            transmitted=transmitted,
            received=received,
            fps=self.fps,
            stats=stats,
        )
