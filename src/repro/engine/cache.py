"""Content-addressed memoization of feature extraction.

The 7-stage preprocessing chain plus the z1..z4 feature computation is
the per-clip hot path of every experiment; sweeps that reuse clips
(decision threshold, voting attempts, training-set size) re-run it on
byte-identical inputs.  :class:`FeatureCache` keys each extraction by a
SHA-256 over the two raw luminance signals *and* a fingerprint of every
:class:`~repro.core.config.DetectorConfig` field, so

* the same clip under the same config is extracted exactly once, and
* any config change (an ablation, a sampling-rate sweep) automatically
  misses — there is no version flag to forget to bump.

Only the final :class:`~repro.core.features.FeatureVector` is stored
(4 floats per clip), not the intermediate signals, so the cache stays
small enough to keep every clip of a full evaluation resident.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections.abc import Sequence

import numpy as np

from ..core.config import DetectorConfig
from ..core.features import FeatureVector

__all__ = ["FeatureCache", "config_fingerprint", "clip_signal_hash"]


def config_fingerprint(config: DetectorConfig) -> str:
    """Stable digest over every config field (sweep-proof cache key part)."""
    payload = json.dumps(dataclasses.asdict(config), sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def clip_signal_hash(
    transmitted_luminance: np.ndarray, received_luminance: np.ndarray
) -> str:
    """Content hash of one clip's raw luminance pair."""
    t = np.ascontiguousarray(transmitted_luminance, dtype=np.float64)
    r = np.ascontiguousarray(received_luminance, dtype=np.float64)
    digest = hashlib.sha256()
    digest.update(str(t.shape).encode())
    digest.update(t.tobytes())
    digest.update(str(r.shape).encode())
    digest.update(r.tobytes())
    return digest.hexdigest()[:32]


class FeatureCache:
    """In-memory content-addressed store of extracted feature vectors.

    Unbounded: entries are four floats each, and sweeps extract the whole
    dataset once and then reuse it.
    """

    def __init__(self) -> None:
        self._store: dict[str, FeatureVector] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._store)

    @staticmethod
    def keys_for(
        pairs: Sequence[tuple[np.ndarray, np.ndarray]],
        config: DetectorConfig,
    ) -> list[str]:
        """One key per ``(transmitted, received)`` luminance pair under
        ``config``: the pair's content hash, ``":"``, the config
        fingerprint.  The fingerprint is computed once per call; it is
        not memoized across calls, because config equality treats
        ``0.0 == -0.0`` while the fingerprint does not."""
        suffix = ":" + config_fingerprint(config)
        return [clip_signal_hash(t, r) + suffix for t, r in pairs]

    def get(self, key: str) -> FeatureVector | None:
        """Look up by key, counting the hit or miss."""
        found = self._store.get(key)
        if found is None:
            self.misses += 1
        else:
            self.hits += 1
        return found

    def put(self, key: str, features: FeatureVector) -> None:
        self._store[key] = features

    def clear(self) -> None:
        self._store.clear()
        self.hits = 0
        self.misses = 0
