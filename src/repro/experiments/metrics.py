"""Evaluation metrics (Sec. VIII-B).

* **true acceptance rate (TAR)** — accepted legitimate attempts / total
  legitimate attempts.
* **true rejection rate (TRR)** — rejected attack attempts / total attack
  attempts.
* **false acceptance rate (FAR)** = 1 - TRR; **false rejection rate
  (FRR)** = 1 - TAR.
* **equal error rate (EER)** — the rate at the threshold where FAR and
  FRR cross (Fig. 12 reads ~5.5 % off the sweep).

All helpers work on raw LOF scores (higher = more anomalous; accept when
``score <= threshold``) so a single scored dataset supports the whole
threshold sweep without re-classification.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "true_acceptance_rate",
    "true_rejection_rate",
    "equal_error_rate",
]


def _validate_scores(scores: np.ndarray) -> np.ndarray:
    arr = np.asarray(scores, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("scores must be a non-empty 1-D array")
    return arr


def true_acceptance_rate(genuine_scores: np.ndarray, threshold: float) -> float:
    """Fraction of genuine attempts with ``score <= threshold``."""
    scores = _validate_scores(genuine_scores)
    return float((scores <= threshold).mean())


def true_rejection_rate(attack_scores: np.ndarray, threshold: float) -> float:
    """Fraction of attack attempts with ``score > threshold``."""
    scores = _validate_scores(attack_scores)
    return float((scores > threshold).mean())


def equal_error_rate(
    genuine_scores: np.ndarray,
    attack_scores: np.ndarray,
) -> tuple[float, float]:
    """(EER, threshold at which it occurs).

    Sweeps every candidate threshold (the union of observed scores) and
    returns the point where |FAR - FRR| is smallest, averaging the two
    rates there — the discrete analogue of the curve crossing in Fig. 12.
    """
    genuine = _validate_scores(genuine_scores)
    attacks = _validate_scores(attack_scores)
    candidates = np.unique(np.concatenate([genuine, attacks]))
    best_gap = np.inf
    best_eer = 1.0
    best_threshold = float(candidates[0])
    for threshold in candidates:
        frr = float((genuine > threshold).mean())
        far = float((attacks <= threshold).mean())
        gap = abs(far - frr)
        if gap < best_gap:
            best_gap = gap
            best_eer = (far + frr) / 2.0
            best_threshold = float(threshold)
    return best_eer, best_threshold
