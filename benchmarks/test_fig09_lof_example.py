"""Fig. 9 — LOF classification example.

Paper: on the (z1, z2) plane, legitimate users' LOF values stay below
~1.5 while the attacker's reaches ~2+; a threshold separates them.  We
regenerate the example with real feature vectors from the main dataset.
"""

import numpy as np

from repro.core.lof import LocalOutlierFactor
from repro.experiments.dataset import ATTACK, GENUINE

from .conftest import run_once


def test_fig09_lof_example(benchmark, main_dataset, report):
    def experiment():
        user = main_dataset.users[0]
        genuine = main_dataset.features_of(user, GENUINE)[:, :2]  # (z1, z2)
        attacks = main_dataset.features_of(user, ATTACK)[:, :2]
        model = LocalOutlierFactor(5).fit(genuine[:20])
        genuine_scores = model.score_samples(genuine[20:])
        attack_scores = model.score_samples(attacks[:10])
        return genuine_scores, attack_scores

    genuine_scores, attack_scores = run_once(benchmark, experiment)
    report(
        "fig09_lof_example",
        [
            "Fig. 9 LOF example on the (z1, z2) plane",
            f"legitimate LOF median : {np.median(genuine_scores):6.2f} (paper: < 1.5)",
            f"legitimate LOF P90    : {np.quantile(genuine_scores, 0.9):6.2f}",
            # Over all ten scores: an infinite LOF is the strongest catch.
            f"attacker LOF median   : {np.median(attack_scores):.2f} (paper: ~2+)",
            f"attackers above tau=3 : {int((attack_scores > 3).sum())}/{attack_scores.size}",
        ],
    )
    assert np.median(genuine_scores) < 1.5
    assert (attack_scores > 3.0).mean() >= 0.7
