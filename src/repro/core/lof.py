"""Local Outlier Factor (Sec. VII-A), implemented from scratch.

The paper's classifier needs no attacker data and no per-user enrollment:
it scores a new feature vector against a small bank of *legitimate*
feature vectors by comparing local densities (Breunig et al., the paper's
[22]).  A genuine clip lands inside the legitimate cluster (LOF near 1);
an attack clip is isolated on at least one feature dimension, giving a
local density far below its neighbours' and an LOF well above 1.

Semantics here are *novelty detection*: the bank is fixed at fit time and
query points are scored against it (they never become each other's
neighbours), matching the paper's "dataset collected from legitimate
users plus one new data from the untrusted user".
"""

from __future__ import annotations

import warnings

import numpy as np

__all__ = ["LocalOutlierFactor", "SmallBankWarning"]

#: Queries scored per pass of the distance kernel.
_BLOCK_ROWS = 256


class SmallBankWarning(UserWarning):
    """The training bank is too small for the requested ``n_neighbors``.

    Raised (as a warning) when ``fit`` receives fewer than
    ``n_neighbors + 1`` points and silently-degrading ``k`` would hide a
    real operational problem: LRU-evicted tenant banks that refit from a
    handful of samples score with a much coarser density estimate than
    the paper's k=5 — acceptable as a degraded mode, but never silently.
    """


class LocalOutlierFactor:
    """k-NN local-density outlier scorer.

    Parameters
    ----------
    n_neighbors:
        ``k`` of the model (paper: 5).  Capped at ``n_train - 1`` when
        the bank is small; the cap emits :class:`SmallBankWarning` (or
        raises ``ValueError`` with ``strict_neighbors=True``) so a
        degraded per-tenant model is always an explicit event.
    strict_neighbors:
        When true, a bank smaller than ``n_neighbors + 1`` is an error
        instead of a clamp-and-warn.
    """

    def __init__(self, n_neighbors: int = 5, strict_neighbors: bool = False) -> None:
        if n_neighbors < 1:
            raise ValueError("n_neighbors must be >= 1")
        self.n_neighbors = n_neighbors
        self.strict_neighbors = strict_neighbors
        self._columns: np.ndarray | None = None  # (d, n): one row per feature
        self._train_k_distance: np.ndarray | None = None
        self._train_lrd: np.ndarray | None = None
        self._effective_k: int = n_neighbors

    @property
    def is_fitted(self) -> bool:
        return self._columns is not None

    @property
    def train_size(self) -> int:
        if self._columns is None:
            raise RuntimeError("model is not fitted")
        return int(self._columns.shape[1])

    def fit(self, X: np.ndarray) -> "LocalOutlierFactor":
        """Fit on the legitimate bank (shape ``(n, d)``, n >= 2)."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("training data must be 2-D (n_samples, n_features)")
        n = X.shape[0]
        if n < 2:
            raise ValueError("need at least 2 training points")
        if not np.all(np.isfinite(X)):
            raise ValueError("training data must be finite")
        if n - 1 < self.n_neighbors:
            if self.strict_neighbors:
                raise ValueError(
                    f"bank of {n} points cannot support n_neighbors="
                    f"{self.n_neighbors} (needs >= {self.n_neighbors + 1}); "
                    "pass a larger bank or lower n_neighbors"
                )
            warnings.warn(
                f"training bank of {n} points supports at most k={n - 1} "
                f"neighbors; clamping n_neighbors from {self.n_neighbors} "
                "— density estimates will be coarser than configured",
                SmallBankWarning,
                stacklevel=2,
            )
        self._columns = X.T.copy()  # C order: each feature's column contiguous
        self._effective_k = min(self.n_neighbors, n - 1)

        with np.errstate(divide="ignore", over="ignore"):
            # k-distance and k-neighbourhood of every bank point (a point
            # is not its own neighbour).
            dist = self._distances(X)
            np.fill_diagonal(dist, np.inf)
            nearest, near_dist = self._neighbours(dist)
            self._train_k_distance = near_dist[:, -1].copy()
            # Local reachability density of every bank point:
            # lrd(p) = |N_k(p)| / sum_{o in N_k(p)} max(k-dist(o), d(p, o))
            self._train_lrd = self._reach_density(nearest, near_dist)
        return self

    def _distances(self, Z: np.ndarray) -> np.ndarray:
        """Euclidean distance of every row of ``Z`` to every bank point,
        shape ``(m, n)``: each feature's squared differences against its
        bank column, for all rows at once, added feature after feature.
        Below eight features that is the order numpy sums one contiguous
        row in, so every distance equals the per-row ``sum`` bit for bit."""
        squares = Z[:, :, None] - self._columns
        squares *= squares
        total = squares.sum(axis=1)
        return np.sqrt(total, out=total)

    def _neighbours(self, dist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each row's ``k`` nearest bank points, nearest first, and their
        distances."""
        nearest = np.argsort(dist, axis=1)[:, : self._effective_k]
        rows = np.arange(dist.shape[0])[:, None]
        return nearest, dist[rows, nearest]

    def _reach_density(self, nearest: np.ndarray, near_dist: np.ndarray) -> np.ndarray:
        """Local reachability density (Eq. 7) of each row; ``inf`` when
        the reach distances sum to zero or ``k`` over them overflows."""
        assert self._train_k_distance is not None
        reach = np.maximum(self._train_k_distance[nearest], near_dist)
        return self._effective_k / reach.sum(axis=1)

    def score_samples(self, Z: np.ndarray) -> np.ndarray:
        """LOF value of each query point (shape ``(m, d)`` -> ``(m,)``).

        Values near 1 mean the point sits at its neighbours' density;
        values well above 1 mean outlier (the paper rejects above tau=3).
        Every row is scored independently of the others, so a query's
        score does not depend on the batch it rides in.  Queries are
        scored :data:`_BLOCK_ROWS` at a time, which bounds the working
        memory at about ``_BLOCK_ROWS * (d + 3) * n`` floats for a bank of
        ``n`` points whatever the number of queries.
        """
        if self._columns is None:
            raise RuntimeError("fit the model before scoring")
        Z = np.asarray(Z, dtype=np.float64)
        if Z.ndim == 1:
            Z = Z[None, :]
        if Z.ndim != 2 or Z.shape[1] != self._columns.shape[0]:
            raise ValueError(
                f"query shape {Z.shape} incompatible with training "
                f"dimension {self._columns.shape[0]}"
            )
        if not np.isfinite(Z).all():
            raise ValueError("query data must be finite")
        scores = np.empty(Z.shape[0], dtype=np.float64)
        for start in range(0, Z.shape[0], _BLOCK_ROWS):
            scores[start : start + _BLOCK_ROWS] = self._score_rows(Z[start : start + _BLOCK_ROWS])
        return scores

    def _score_rows(self, Z: np.ndarray) -> np.ndarray:
        """LOF of each row of a validated block of queries."""
        assert self._train_lrd is not None
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            nearest, near_dist = self._neighbours(self._distances(Z))
            lrd = self._reach_density(nearest, near_dist)
            # LOF (Eq. 8): mean neighbour density over own density.  An
            # infinite neighbour density (the neighbours duplicate each
            # other while the query is not among them) makes it infinite.
            scores = self._train_lrd[nearest].sum(axis=1) / self._effective_k / lrd
        # An infinite own density: the query coincides with a dense
        # cluster of bank points, a clear inlier.
        scores[np.isinf(lrd)] = 1.0
        return scores

    def score(self, z: np.ndarray) -> float:
        """LOF value of a single query point."""
        return float(self.score_samples(np.asarray(z))[0])
