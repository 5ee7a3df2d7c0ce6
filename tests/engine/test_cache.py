"""FeatureCache: content-addressed keys, hit/miss accounting, eviction."""

import numpy as np
import pytest

from repro.core.config import DetectorConfig
from repro.core.features import FeatureVector
from repro.engine import FeatureCache, clip_signal_hash, config_fingerprint


def _signals(seed=0, n=150):
    rng = np.random.default_rng(seed)
    return rng.uniform(0, 255, n), rng.uniform(0, 255, n)


class TestKeys:
    def test_same_inputs_same_key(self):
        t, r = _signals()
        config = DetectorConfig()
        assert FeatureCache.keys_for([(t, r)], config) == FeatureCache.keys_for(
            [(t.copy(), r.copy())], config
        )

    def test_keys_are_signal_hash_and_fingerprint(self):
        pairs = [_signals(seed) for seed in range(3)] + [_signals(0, n=40)]
        pairs.append(pairs[0])  # a repeat keeps its key
        for config in (DetectorConfig(), DetectorConfig().with_overrides(lof_threshold=2.5)):
            assert FeatureCache.keys_for(pairs, config) == [
                clip_signal_hash(t, r) + ":" + config_fingerprint(config) for t, r in pairs
            ]
        assert FeatureCache.keys_for([], DetectorConfig()) == []

    def test_signal_change_changes_key(self):
        t, r = _signals()
        assert clip_signal_hash(t, r) != clip_signal_hash(t, r + 1e-9)

    def test_swapping_signals_changes_key(self):
        t, r = _signals()
        assert clip_signal_hash(t, r) != clip_signal_hash(r, t)

    def test_shape_is_part_of_the_hash(self):
        flat = np.zeros(4)
        assert clip_signal_hash(flat, flat) != clip_signal_hash(
            flat.reshape(2, 2), flat.reshape(2, 2)
        )

    def test_dtype_and_contiguity_do_not_matter(self):
        t, r = _signals()
        strided = np.stack([t, t])[::2][0]  # non-trivially strided view
        int_valued = np.arange(150, dtype=np.int64)
        assert clip_signal_hash(t, r) == clip_signal_hash(strided, r)
        assert clip_signal_hash(int_valued, r) == clip_signal_hash(
            int_valued.astype(np.float64), r
        )

    def test_any_config_field_changes_fingerprint(self):
        base = DetectorConfig()
        assert config_fingerprint(base) == config_fingerprint(DetectorConfig())
        assert config_fingerprint(base) != config_fingerprint(
            base.with_overrides(lof_threshold=2.5)
        )


class TestAccounting:
    def test_miss_then_hit(self):
        cache = FeatureCache()
        t, r = _signals()
        (key,) = cache.keys_for([(t, r)], DetectorConfig())
        assert cache.get(key) is None
        cache.put(key, FeatureVector(1.0, 1.0, 0.9, 0.1))
        assert cache.get(key) == FeatureVector(1.0, 1.0, 0.9, 0.1)
        assert (cache.hits, cache.misses) == (1, 1)
        assert len(cache) == 1

    def test_clear_resets_everything(self):
        cache = FeatureCache()
        cache.put("k", FeatureVector(0, 0, 0, 0))
        cache.get("k")
        cache.get("absent")
        cache.clear()
        assert (len(cache), cache.hits, cache.misses) == (0, 0, 0)
