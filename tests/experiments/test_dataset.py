"""Dataset generation, selection, and disk cache."""

import numpy as np
import pytest

from repro.core.config import DetectorConfig
from repro.core.features import FeatureVector
from repro.experiments.dataset import (
    ATTACK,
    GENUINE,
    ClipInstance,
    FeatureDataset,
    _load,
    _save,
    build_dataset,
    clip_from_session,
)
from repro.experiments.profiles import Environment, make_population
from repro.experiments.simulate import simulate_genuine_session


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    env = Environment(frame_size=(64, 64), verifier_frame_size=(48, 48))
    return build_dataset(
        population=make_population(2, seed=123),
        clips_per_role=2,
        env=env,
        cache_dir=tmp_path_factory.mktemp("ds"),
    )


class TestBuild:
    def test_counts(self, tiny_dataset):
        assert len(tiny_dataset) == 8  # 2 users x 2 roles x 2 clips
        assert len(tiny_dataset.users) == 2

    def test_selectors(self, tiny_dataset):
        user = tiny_dataset.users[0]
        assert len(tiny_dataset.select(user)) == 4
        assert len(tiny_dataset.select(user, GENUINE)) == 2
        assert len(tiny_dataset.select(role=ATTACK)) == 4

    def test_feature_matrix_shape(self, tiny_dataset):
        X = tiny_dataset.features_of(role=GENUINE)
        assert X.shape == (4, 4)

    def test_empty_selection(self, tiny_dataset):
        assert tiny_dataset.features_of("nonexistent").shape == (0, 4)

    def test_signals_have_clip_length(self, tiny_dataset):
        for inst in tiny_dataset.instances:
            assert inst.transmitted_luminance.size == 150
            assert inst.received_luminance.size == 150


class TestCache:
    def test_round_trip_preserves_everything(self, tmp_path):
        env = Environment(frame_size=(64, 64), verifier_frame_size=(48, 48))
        population = make_population(1, seed=5)
        kwargs = dict(
            population=population,
            clips_per_role=2,
            env=env,
            cache_dir=tmp_path,
        )
        first = build_dataset(**kwargs)
        second = build_dataset(**kwargs)  # served from cache
        assert len(first) == len(second)
        for a, b in zip(first.instances, second.instances):
            assert a.user == b.user
            assert a.role == b.role
            assert a.seed == b.seed
            assert a.features == b.features
            assert np.allclose(a.transmitted_luminance, b.transmitted_luminance)
            assert np.allclose(a.received_luminance, b.received_luminance)

    def test_save_load_is_bit_identical_for_ragged_clips(self, tmp_path):
        rng = np.random.default_rng(11)
        instances = []
        for i, size in enumerate((150, 97, 150, 3)):
            signal = rng.normal(size=size)
            instances.append(
                ClipInstance(
                    user=f"user{i % 2}",
                    role=(GENUINE, ATTACK)[i % 2],
                    seed=1000 + i,
                    features=FeatureVector.from_array(rng.normal(size=4)),
                    transmitted_luminance=signal,
                    received_luminance=signal[::-1] * 0.5,
                )
            )
        path = tmp_path / "dataset.npz"
        _save(path, FeatureDataset(instances))
        loaded = _load(path)
        assert len(loaded) == len(instances)
        for a, b in zip(instances, loaded.instances):
            assert (a.user, a.role, a.seed, a.features) == (b.user, b.role, b.seed, b.features)
            for left, right in (
                (a.transmitted_luminance, b.transmitted_luminance),
                (a.received_luminance, b.received_luminance),
            ):
                assert right.dtype == np.float64 and right.flags.owndata
                assert left.tobytes() == right.tobytes()

    def test_cache_file_created(self, tmp_path):
        env = Environment(frame_size=(64, 64), verifier_frame_size=(48, 48))
        build_dataset(
            population=make_population(1, seed=6),
            clips_per_role=1,
            env=env,
            cache_dir=tmp_path,
        )
        assert list(tmp_path.glob("dataset_*.npz"))

    def test_config_change_invalidates_key(self, tmp_path):
        env = Environment(frame_size=(64, 64), verifier_frame_size=(48, 48))
        population = make_population(1, seed=7)
        build_dataset(population=population, clips_per_role=1, env=env, cache_dir=tmp_path)
        build_dataset(
            population=population,
            clips_per_role=1,
            env=env,
            config=DetectorConfig(lof_threshold=2.0),
            cache_dir=tmp_path,
        )
        assert len(list(tmp_path.glob("dataset_*.npz"))) == 2


class TestClipFromSession:
    def test_extracts_consistent_instance(self):
        env = Environment(frame_size=(64, 64), verifier_frame_size=(48, 48))
        record = simulate_genuine_session(duration_s=15.0, seed=31, env=env)
        clip = clip_from_session(record, "u", GENUINE, 31, DetectorConfig())
        assert clip.role == GENUINE
        assert clip.transmitted_luminance.size == 150
        assert np.isfinite(clip.features.as_array()).all()

    def test_bad_role_rejected(self):
        with pytest.raises(ValueError):
            build_dataset(
                population=make_population(1, seed=8),
                clips_per_role=1,
                roles=("bogus",),
                use_cache=False,
            )

    def test_merged_with(self, tiny_dataset):
        merged = tiny_dataset.merged_with(tiny_dataset)
        assert len(merged) == 2 * len(tiny_dataset)
