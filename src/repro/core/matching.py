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

import numpy as np

__all__ = ["ChangeMatch", "match_changes"]


@dataclasses.dataclass(frozen=True)
class ChangeMatch:
    """One matched pair of significant luminance changes."""

    transmitted_index: int  # index into the transmitted change list
    received_index: int  # index into the received change list
    time_difference_s: float  # received time minus transmitted time

    # The indices refer to whatever arrays were handed to
    # :func:`match_changes`.  Callers that match over a *filtered* view
    # must remap the indices back to the unfiltered lists before exposing
    # the matches, so the contract above holds for downstream consumers;
    # the feature extractor matches the boundary-guard-trimmed changes
    # and records their indices in the untrimmed peak lists.


def match_changes(
    transmitted_times: np.ndarray,
    received_times: np.ndarray,
    tolerance_s: float,
) -> list[ChangeMatch]:
    """Greedy one-to-one matching of change times.

    Candidate pairs within ``tolerance_s`` are sorted by absolute time
    difference and accepted greedily, each change participating in at
    most one pair.  Returns matches sorted by transmitted time.
    """
    t_times = np.asarray(transmitted_times, dtype=np.float64)
    r_times = np.asarray(received_times, dtype=np.float64)
    if t_times.ndim != 1 or r_times.ndim != 1:
        raise ValueError("change-time arrays must be 1-D")
    if tolerance_s <= 0:
        raise ValueError("tolerance_s must be positive")
    return [
        ChangeMatch(transmitted_index=i, received_index=j, time_difference_s=difference)
        for i, j, difference in _greedy_pairs(t_times.tolist(), r_times.tolist(), tolerance_s)
    ]


def _greedy_pairs(
    t_times: list[float], r_times: list[float], tolerance_s: float
) -> list[tuple[int, int, float]]:
    """:func:`match_changes` over Python floats, without its checks:
    ``(transmitted index, received index, received minus transmitted
    time)`` per match, sorted by transmitted time."""
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
