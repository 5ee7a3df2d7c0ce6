"""Active challenge scheduling (an extension the paper motivates).

The paper's challenge is *passive*: the legitimate user happens to touch
the metering area while chatting, and each touch doubles as a luminance
challenge.  A clip with too few — or too weak — significant changes
carries little evidence either way; nothing in the paper forces the
challenges to exist.

:class:`ChallengeScheduler` closes that loop on the verifier's side: it
watches the transmitted video's luminance in real time, counts the
challenges issued inside the current detection window, and tells the
application when it should nudge the metering spot (or, equivalently,
prompt the user to touch the screen).  With the scheduler in charge,
every detection clip is guaranteed ``min_challenges`` significant
changes, spaced at least ``min_gap_s`` apart so the Sec. V smoothing
chain resolves them as distinct peaks.

:func:`challenge_quality` grades a finished clip: how many such
challenges it carries, and so whether it can support a verdict at all.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .config import DetectorConfig
from .preprocessing import preprocess_batch

__all__ = ["ChallengeQuality", "challenge_quality", "ChallengeScheduler"]


@dataclasses.dataclass(frozen=True)
class ChallengeQuality:
    """How much liveness evidence a transmitted clip carries."""

    challenge_count: int
    mean_prominence: float
    min_spacing_s: float
    sufficient: bool


def challenge_quality(
    transmitted_luminance: np.ndarray,
    config: DetectorConfig | None = None,
    min_challenges: int | None = None,
) -> ChallengeQuality:
    """Grade the challenge content of one transmitted-luminance clip.

    A clip is *sufficient* when it contains at least
    ``config.min_challenges`` significant changes inside the countable
    (guard-trimmed) window.  Passing ``min_challenges`` is shorthand for
    ``config.with_overrides(min_challenges=...)`` — it routes through the
    validated config copy, not around it.
    """
    config = config or DetectorConfig()
    if min_challenges is not None:
        config = config.with_overrides(min_challenges=min_challenges)
    pre = preprocess_batch([transmitted_luminance], config, config.peak_prominence_screen)[0]
    clip_end = (pre.raw.size - 1) / config.sample_rate_hz
    times = pre.peak_times
    keep = times <= clip_end - config.boundary_guard_s
    times = times[keep]
    prominences = np.array([p.prominence for p in pre.peaks])[keep]

    spacing = float(np.diff(times).min()) if times.size >= 2 else float("inf")
    return ChallengeQuality(
        challenge_count=int(times.size),
        mean_prominence=float(prominences.mean()) if prominences.size else 0.0,
        min_spacing_s=spacing,
        sufficient=times.size >= config.min_challenges,
    )


class ChallengeScheduler:
    """Decides, tick by tick, whether the verifier should issue a
    challenge *now* to keep the current detection window evidentiary.

    Parameters
    ----------
    config:
        Detection constants (window length, sampling rate, and the
        ``min_challenges`` / ``min_gap_s`` schedule the scheduler
        guarantees).
    min_challenges, min_gap_s:
        Optional overrides, routed through
        :meth:`DetectorConfig.with_overrides` so they stay inside the
        validated-config contract.
    """

    def __init__(
        self,
        config: DetectorConfig | None = None,
        min_challenges: int | None = None,
        min_gap_s: float | None = None,
    ) -> None:
        config = config or DetectorConfig()
        overrides: dict[str, object] = {}
        if min_challenges is not None:
            overrides["min_challenges"] = min_challenges
        if min_gap_s is not None:
            overrides["min_gap_s"] = min_gap_s
        if overrides:
            config = config.with_overrides(**overrides)
        self.config = config
        usable = config.clip_duration_s - config.boundary_guard_s
        if config.min_challenges * config.min_gap_s > usable:
            raise ValueError(
                f"{config.min_challenges} challenges at {config.min_gap_s}s "
                f"spacing do not fit the {usable:.1f}s usable window"
            )
        self.min_challenges = config.min_challenges
        self.min_gap_s = config.min_gap_s
        self._window_start: float | None = None
        self._issued: list[float] = []

    def note_challenge(self, t: float) -> None:
        """Record that a challenge happened (user touch or scheduled)."""
        self._issued.append(t)

    def should_challenge(self, t: float) -> bool:
        """Whether the application should issue a challenge at time ``t``.

        Strategy: never violate the spacing; beyond that, challenge
        whenever the remaining usable window is just enough to fit the
        challenges still owed.
        """
        if t < 0:
            raise ValueError("time must be non-negative")
        if self._window_start is None:
            self._window_start = t
        window_t = t - self._window_start
        if window_t >= self.config.clip_duration_s:
            # New detection window.
            self._window_start = t
            window_t = 0.0
            self._issued = [s for s in self._issued if s >= t - self.min_gap_s]

        in_window = [s for s in self._issued if s >= self._window_start]
        owed = self.min_challenges - len(in_window)
        if owed <= 0:
            return False
        if self._issued and t - self._issued[-1] < self.min_gap_s:
            return False
        # Latest moment the owed challenges still fit before the usable
        # window closes; challenge once we reach it.
        usable_end = self.config.clip_duration_s - self.config.boundary_guard_s
        last_chance = usable_end - owed * self.min_gap_s
        return window_t >= last_chance

    def tick(self, t: float) -> bool:
        """Convenience: ``should_challenge`` and, when true, record it."""
        if self.should_challenge(t):
            self.note_challenge(t)
            return True
        return False
