"""Decision combination across detection attempts (Sec. VII-B).

The detector is cheap enough to trigger repeatedly during a chat; the
paper combines ``D`` single-clip decisions in an equal-weight majority
voting game and declares an attacker when the attacker votes exceed
``0.7 * D`` (the 0.7 calibrated from single-detection accuracy).  This
tolerates individual mistakes in both directions and shrinks the
variance of the final decision (Fig. 14).
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

from .detector import DetectionResult

__all__ = ["Verdict", "VotingCombiner"]


@dataclasses.dataclass(frozen=True)
class Verdict:
    """Final decision over a set of detection attempts."""

    is_attacker: bool
    reject_votes: int
    total_votes: int
    vote_fraction: float


class VotingCombiner:
    """Equal-weight majority voting over detection attempts."""

    def __init__(self, vote_fraction: float = 0.7) -> None:
        if not 0 < vote_fraction < 1:
            raise ValueError("vote_fraction must lie in (0, 1)")
        self.vote_fraction = vote_fraction

    def combine(self, results: Sequence[DetectionResult]) -> Verdict:
        """:meth:`combine_bools` over the attempts' LOF rejections."""
        return self.combine_bools([r.rejected for r in results])

    def combine_bools(self, rejections: Sequence[bool]) -> Verdict:
        """The rule: attacker iff rejects exceed ``vote_fraction * D``.

        Takes raw per-attempt rejections because an attempt can reject
        for reasons its LOF result alone does not carry (the streaming
        gate's protocol ``REPLAY`` / ``STALE`` bindings).
        """
        if not rejections:
            raise ValueError("need at least one detection attempt")
        rejects = sum(bool(r) for r in rejections)
        total = len(rejections)
        return Verdict(
            is_attacker=rejects > self.vote_fraction * total,
            reject_votes=rejects,
            total_votes=total,
            vote_fraction=self.vote_fraction,
        )
