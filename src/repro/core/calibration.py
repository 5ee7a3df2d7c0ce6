"""Decision-threshold calibration from enrollment data alone.

The paper fixes tau = 3 after a testbed sweep (Fig. 12).  A deployed
system cannot sweep against attackers it has never seen — but it *can*
bound its false-rejection rate using only the legitimate bank:
leave-one-out LOF scores of the bank estimate the score distribution of
genuine clips, and the tau that accepts a target fraction of them is a
direct FRR calibration.  (FAR then lands wherever the attacker
distribution puts it; the paper's whole design makes that distribution
far from the genuine one.)

This is the "launch quickly on new devices" story taken one step
further: not only no attacker data and no per-user data, but also no
hand-tuned threshold.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .config import DetectorConfig
from .lof import LocalOutlierFactor

__all__ = ["CalibrationResult", "leave_one_out_scores", "calibrate_threshold"]


@dataclasses.dataclass(frozen=True)
class CalibrationResult:
    """A calibrated threshold and the evidence behind it."""

    threshold: float
    target_frr: float
    estimated_frr: float
    loo_scores: np.ndarray


def leave_one_out_scores(
    bank: np.ndarray,
    config: DetectorConfig | None = None,
) -> np.ndarray:
    """LOF score of each bank vector against the rest of the bank.

    This is the genuine-score distribution a fresh legitimate clip is
    expected to follow (slightly pessimistic: the evaluation model will
    be trained on the *full* bank, which is denser).
    """
    config = config or DetectorConfig()
    bank = np.asarray(bank, dtype=np.float64)
    if bank.ndim != 2:
        raise ValueError("bank must be 2-D (n_samples, n_features)")
    n = bank.shape[0]
    if n < 3:
        raise ValueError("need at least 3 bank vectors for leave-one-out")
    scores = np.empty(n)
    for i in range(n):
        rest = np.delete(bank, i, axis=0)
        model = LocalOutlierFactor(min(config.lof_neighbors, rest.shape[0] - 1))
        model.fit(rest)
        scores[i] = model.score(bank[i])
    return scores


def calibrate_threshold(  # reprolint: disable=R009 -- test-only, see ROADMAP
    bank: np.ndarray,
    target_frr: float = 0.08,
    config: DetectorConfig | None = None,
    min_threshold: float = 1.5,
    max_threshold: float = 50.0,
) -> CalibrationResult:
    """Pick the smallest tau whose estimated FRR meets the target.

    Parameters
    ----------
    bank:
        Legitimate feature vectors, shape ``(n, 4)``.
    target_frr:
        Acceptable fraction of genuine clips rejected per attempt (the
        paper's operating point corresponds to roughly 0.075).
    min_threshold:
        Floor on tau — below ~1.5 even inliers fluctuate across the line
        (LOF of a dense cluster hovers around 1).
    max_threshold:
        Ceiling; a bank so noisy that it needs more than this should be
        re-enrolled instead.
    """
    if not 0.0 < target_frr < 1.0:
        raise ValueError("target_frr must lie in (0, 1)")
    if min_threshold <= 1.0 or max_threshold <= min_threshold:
        raise ValueError("thresholds must satisfy 1 < min < max")
    scores = leave_one_out_scores(bank, config)
    finite = scores[np.isfinite(scores)]
    if finite.size == 0:
        raise ValueError("bank is degenerate: all leave-one-out scores infinite")

    # Smallest tau accepting >= (1 - target_frr) of the genuine scores.
    candidate = float(np.quantile(finite, 1.0 - target_frr))
    threshold = float(np.clip(candidate, min_threshold, max_threshold))
    estimated_frr = float((scores > threshold).mean())
    return CalibrationResult(
        threshold=threshold,
        target_frr=target_frr,
        estimated_frr=estimated_frr,
        loo_scores=scores,
    )
