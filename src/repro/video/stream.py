"""Video streams: ordered frame sequences with rate bookkeeping.

A :class:`VideoStream` is what endpoints produce and the detector
consumes.  It supports the two stream operations the paper's pipeline
needs: *resampling* (the detector samples at 10 Hz regardless of capture
rate; Sec. VIII-H sweeps 5/8/10 Hz) and *clip segmentation* (the
evaluation cuts recordings into equal 15-second clips, Sec. VIII-A).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from .frame import Frame

__all__ = ["VideoStream"]


class VideoStream:
    """An append-only, timestamp-ordered sequence of frames."""

    def __init__(self, fps: float, frames: Iterable[Frame] | None = None) -> None:
        if fps <= 0:
            raise ValueError("fps must be positive")
        self.fps = fps
        self._frames: list[Frame] = []
        if frames is not None:
            for frame in frames:
                self.append(frame)

    def append(self, frame: Frame) -> None:
        """Append a frame; timestamps must strictly increase."""
        if self._frames and frame.timestamp <= self._frames[-1].timestamp:
            raise ValueError(
                "frame timestamps must strictly increase: "
                f"{frame.timestamp} after {self._frames[-1].timestamp}"
            )
        self._frames.append(frame)

    def __len__(self) -> int:
        return len(self._frames)

    def __iter__(self) -> Iterator[Frame]:
        return iter(self._frames)

    def __getitem__(self, index: int) -> Frame:
        return self._frames[index]

    @property
    def frames(self) -> tuple[Frame, ...]:
        """Immutable view of the frames."""
        return tuple(self._frames)

    @property
    def timestamps(self) -> np.ndarray:
        """Capture timestamps as an array, shape ``(n,)``."""
        return np.array([f.timestamp for f in self._frames], dtype=np.float64)

    @property
    def duration_s(self) -> float:
        """Span between first and last timestamp (0 for short streams)."""
        if len(self._frames) < 2:
            return 0.0
        return self._frames[-1].timestamp - self._frames[0].timestamp

    def resampled(self, target_hz: float) -> "VideoStream":
        """Nearest-frame resampling onto a uniform ``target_hz`` grid.

        This is how the detector extracts its 10 Hz (or 8/5 Hz in the
        Fig. 16 sweep) working signal from an arbitrary capture rate.
        Each grid instant picks the latest frame at or before it (a
        playout buffer never sees the future); grid points before the
        first frame are skipped.
        """
        if target_hz <= 0:
            raise ValueError("target_hz must be positive")
        if not self._frames:
            return VideoStream(fps=target_hz)
        times = self.timestamps
        start = times[0]
        end = times[-1]
        count = int(np.floor((end - start) * target_hz)) + 1
        grid = start + np.arange(count) / target_hz
        indices = np.searchsorted(times, grid + 1e-9, side="right") - 1
        out = VideoStream(fps=target_hz)
        for k, idx in enumerate(indices):
            source = self._frames[int(idx)]
            out.append(
                Frame(
                    pixels=source.pixels,
                    timestamp=float(grid[k]),
                    metadata=dict(source.metadata, source_timestamp=source.timestamp),
                )
            )
        return out

    def segments(self, duration_s: float) -> list["VideoStream"]:
        """Cut into consecutive clips of ``duration_s`` (Sec. VIII-A).

        Only full-length clips are returned; a trailing partial clip is
        dropped, mirroring the paper's equal-length clip dataset.
        """
        if duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if not self._frames:
            return []
        per_clip = int(round(duration_s * self.fps))
        if per_clip < 1:
            raise ValueError("clip shorter than one frame interval")
        clips: list[VideoStream] = []
        for start in range(0, len(self._frames) - per_clip + 1, per_clip):
            clip = VideoStream(fps=self.fps, frames=self._frames[start : start + per_clip])
            clips.append(clip)
        return clips
