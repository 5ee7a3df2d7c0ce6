"""What one measured phase of a workload hands back to the runner."""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass
class RunResult:
    """Raw outcome of one measured phase (timings, tallies, checks).

    Timings are kept as ``time.perf_counter`` instants, not durations,
    so the runner can convert them with the host clock: ``window`` is
    the measured phase, ``closes`` one ``(start, end, divisor)`` per
    verdict-delay sample (the sample is the interval over ``divisor``).

    ``layer`` carries the per-layer counts a workload can read from the
    program's public results (``SessionOutcome``, ``FeatureCache``,
    ``ChannelStats``); ``deterministic`` holds every value that must be a
    pure function of the seed, for the same-seed identity check.
    """

    window: tuple[float, float]
    frames: int
    closes: list[tuple[float, float, int]]
    genuine_accepted: int
    genuine_conclusive: int
    attack_caught: int
    attack_conclusive: int
    conclusive: int
    admitted: int
    attempted: int
    failed: int
    problems: list[str]
    wrappers_seen: list[str]
    layer: dict[str, float] = dataclasses.field(default_factory=dict)
    deterministic: dict[str, object] = dataclasses.field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        """Raw wall time of the measured phase."""
        return self.window[1] - self.window[0]
