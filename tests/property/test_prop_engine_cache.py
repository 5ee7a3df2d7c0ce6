"""Property: cached extraction is indistinguishable from uncached.

The engine memoizes feature extraction by content hash; for any clip
whatsoever, routing through the cache (cold or warm) must return exactly
what a direct call returns — otherwise cached runs would silently drift
from uncached ones.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DetectorConfig
from repro.core.features import extract_features_batch
from repro.engine import ExecutionEngine, FeatureCache

CONFIG = DetectorConfig()


@st.composite
def random_clip(draw):
    """A random-but-plausible luminance pair (steps + noise)."""
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    n_steps = draw(st.integers(min_value=0, max_value=4))
    rng = np.random.default_rng(seed)
    t = np.full(150, 180.0)
    for _ in range(n_steps):
        at = int(rng.integers(10, 140))
        t[at:] += float(rng.uniform(-60, 60))
    scale = draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    noise = draw(st.floats(min_value=0.0, max_value=5.0, allow_nan=False))
    r = 120.0 + scale * t + rng.normal(0.0, noise, 150)
    return t, r


class TestCacheTransparency:
    @given(random_clip())
    @settings(max_examples=40, deadline=None)
    def test_cached_equals_uncached(self, clip):
        t, r = clip
        direct = extract_features_batch([(t, r)], CONFIG)[0].features
        with ExecutionEngine(jobs=1) as engine:
            cold = engine.extract_features_batch([(t, r)], CONFIG)[0]
            warm = engine.extract_features_batch([(t, r)], CONFIG)[0]
        assert cold == direct
        assert warm == direct

    @given(random_clip(), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_key_collisions_do_not_cross_clips(self, clip, seed):
        """Two different clips never read each other's cache entry."""
        t, r = clip
        rng = np.random.default_rng(seed)
        t2 = t + rng.uniform(0.1, 1.0)
        cache = FeatureCache()
        with ExecutionEngine(jobs=1, cache=cache) as engine:
            first = engine.extract_features_batch([(t, r)], CONFIG)[0]
            second = engine.extract_features_batch([(t2, r)], CONFIG)[0]
        assert first == extract_features_batch([(t, r)], CONFIG)[0].features
        assert second == extract_features_batch([(t2, r)], CONFIG)[0].features
