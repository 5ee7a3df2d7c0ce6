"""Environment-sweep runner mechanics on synthetic datasets.

The expensive sweep content is covered by the benchmarks; these tests
validate the *protocol plumbing* — especially the nominal-training rule
for environment sweeps — on hand-built feature banks.
"""

import numpy as np
import pytest

from repro.core.config import DetectorConfig
from repro.core.features import FeatureVector
from repro.engine import ExecutionEngine
from repro.experiments.dataset import ATTACK, GENUINE, ClipInstance, FeatureDataset
from repro.experiments.runner import _evaluate_dataset


def _dataset(genuine_center, attack_center, n=30, spread=0.04, seed=0, user="u0"):
    rng = np.random.default_rng(seed)
    instances = []
    for i in range(n):
        z = np.clip(np.asarray(genuine_center) + spread * rng.normal(size=4), -1, 2)
        instances.append(
            ClipInstance(user, GENUINE, i, FeatureVector(*z), np.zeros(150), np.zeros(150))
        )
    for i in range(n):
        z = np.clip(np.asarray(attack_center) + spread * rng.normal(size=4), -1, 2)
        instances.append(
            ClipInstance(user, ATTACK, i, FeatureVector(*z), np.zeros(150), np.zeros(150))
        )
    return FeatureDataset(instances)


NOMINAL_GENUINE = (1.0, 1.0, 0.95, 0.08)
ATTACK_CENTER = (0.3, 0.4, -0.3, 0.9)


class TestNominalTrainingRule:
    def test_degenerate_condition_caught_only_with_nominal_training(self):
        """In a reflection-free environment genuine AND attack clips both
        collapse to (0, 0, ...).  Per-condition training then accepts
        everyone; nominal training correctly rejects everyone."""
        config = DetectorConfig()
        nominal = _dataset(NOMINAL_GENUINE, ATTACK_CENTER, seed=2)
        degenerate = _dataset((0.0, 0.0, -0.2, 0.8), (0.0, 0.0, -0.3, 0.85), seed=3)

        # Per-condition training: flattering TAR, no security.
        tar_pc, _, trr_pc, _ = _evaluate_dataset(
            degenerate, config, rounds=5, train_size=15, seed=1, engine=ExecutionEngine()
        )
        assert tar_pc > 0.8
        assert trr_pc < 0.5

        # Nominal training: the degenerate clips are outliers for
        # everyone -> low TAR, high TRR (the honest picture).
        tar_nom, _, trr_nom, _ = _evaluate_dataset(
            degenerate, config, rounds=5, train_size=15, seed=1, engine=ExecutionEngine(),
            train_dataset=nominal,
        )
        assert tar_nom < 0.3
        assert trr_nom > 0.9

    def test_matching_conditions_agree(self):
        """When the swept condition IS the nominal one, both protocols
        give the same picture."""
        config = DetectorConfig()
        nominal = _dataset(NOMINAL_GENUINE, ATTACK_CENTER, seed=5)
        same = _dataset(NOMINAL_GENUINE, ATTACK_CENTER, seed=6)
        tar_pc, _, trr_pc, _ = _evaluate_dataset(
            same, config, rounds=5, train_size=15, seed=4, engine=ExecutionEngine()
        )
        tar_nom, _, trr_nom, _ = _evaluate_dataset(
            same, config, rounds=5, train_size=15, seed=40, engine=ExecutionEngine(),
            train_dataset=nominal,
        )
        assert tar_nom == pytest.approx(tar_pc, abs=0.15)
        assert trr_nom == pytest.approx(trr_pc, abs=0.1)

    def test_missing_user_in_train_dataset_raises(self):
        config = DetectorConfig()
        test_ds = _dataset(NOMINAL_GENUINE, ATTACK_CENTER, seed=8, user="u_new")
        train_ds = _dataset(NOMINAL_GENUINE, ATTACK_CENTER, seed=9, user="u_other")
        with pytest.raises(ValueError):
            _evaluate_dataset(
                test_ds, config, rounds=2, train_size=10, seed=7, engine=ExecutionEngine(),
                train_dataset=train_ds,
            )
