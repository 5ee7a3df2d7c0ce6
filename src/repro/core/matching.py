"""Matching significant luminance changes between the two signals.

Sec. VI defines the behaviour features through two counting functions:
``F(T, R)`` — how many of the transmitted video's significant changes
have a matched change in the received video — and ``G(T, R)`` — the same
from the received side.  The paper leaves the matcher itself unspecified;
we use the natural formulation: a greedy one-to-one assignment that pairs
changes closest in time first, accepting pairs whose time difference is
within a tolerance generous enough to absorb the network round-trip plus
the filter chain's group delay.

With one-to-one pairing ``F`` and ``G`` are both the number of matched
pairs; they differ as *proportions* because they are normalized by the
respective signal's change count (Eqs. 4-5).
"""

from __future__ import annotations

import dataclasses

__all__ = ["ChangeMatch"]


@dataclasses.dataclass(frozen=True)
class ChangeMatch:
    """One matched pair of significant luminance changes."""

    transmitted_index: int  # index into the transmitted change list
    received_index: int  # index into the received change list
    time_difference_s: float  # received time minus transmitted time

    # The feature extractor matches the boundary-guard-trimmed changes
    # with :func:`_greedy_pairs` and records each match's indices in the
    # untrimmed peak lists, so the contract above holds for downstream
    # consumers.


def _greedy_pairs(
    t_times: list[float], r_times: list[float], tolerance_s: float
) -> list[tuple[int, int, float]]:
    """Greedy one-to-one matching of change times (Python floats).

    Candidate pairs within ``tolerance_s`` are sorted by absolute time
    difference and accepted greedily, each change participating in at
    most one pair.  Returns ``(transmitted index, received index,
    received minus transmitted time)`` per match, sorted by transmitted
    time.
    """
    candidates = [
        (abs(r - t), i, j)
        for i, t in enumerate(t_times)
        for j, r in enumerate(r_times)
        if abs(r - t) <= tolerance_s
    ]
    candidates.sort()
    used_t: set[int] = set()
    used_r: set[int] = set()
    pairs: list[tuple[int, int]] = []
    for _, i, j in candidates:
        if i in used_t or j in used_r:
            continue
        used_t.add(i)
        used_r.add(j)
        pairs.append((i, j))
    pairs.sort(key=lambda ij: t_times[ij[0]])
    return [(i, j, r_times[j] - t_times[i]) for i, j in pairs]
