"""Ablation — contribution of the preprocessing stages and delay removal.

DESIGN.md calls out two design choices worth ablating:

* skipping the RMS + Savitzky-Golay smoothing splits one luminance
  change into several variance peaks, wrecking the matched-change counts;
* skipping delay removal lets ordinary network latency deflate the trend
  correlation of *legitimate* clips.
"""

import numpy as np

from repro.core.config import DetectorConfig
from repro.core.features import _pearson_rows, _unit, extract_features_batch
from repro.core.peaks import find_peaks
from repro.core.preprocessing import preprocess_batch
from repro.experiments.dataset import GENUINE

from .conftest import run_once


def test_ablation_smoothing_prevents_peak_splitting(benchmark, main_dataset, report):
    config = DetectorConfig()
    clips = main_dataset.select(role=GENUINE)[:60]

    def experiment():
        split_counts = []
        full_counts = []
        prominence = config.peak_prominence_face
        for full in preprocess_batch([c.received_luminance for c in clips], config, prominence):
            # The chain cut short after the threshold filter.
            cut = find_peaks(full.thresholded, prominence)
            full_counts.append(full.change_count)
            split_counts.append(len(cut))
        return float(np.mean(full_counts)), float(np.mean(split_counts))

    full_mean, cut_mean = run_once(benchmark, experiment)
    report(
        "ablation_smoothing",
        [
            "Ablation: peak counts with vs without RMS+SavGol+MA smoothing",
            f"full chain mean face peaks/clip : {full_mean:6.2f}",
            f"no smoothing mean peaks/clip    : {cut_mean:6.2f}",
            "expected: the raw variance fragments each change into several peaks",
        ],
    )
    # Without grouping, changes fragment into extra peaks (the threshold
    # filter alone absorbs some of the damage, so the inflation is
    # modest in clean conditions but systematic).
    assert cut_mean > 1.15 * full_mean


def test_ablation_delay_removal_saves_legitimate_trends(benchmark, main_dataset, report):
    config = DetectorConfig()
    clips = main_dataset.select(role=GENUINE)[:60]

    def experiment():
        with_removal = []
        without_removal = []
        for clip in clips:
            pair = (clip.transmitted_luminance, clip.received_luminance)
            fx = extract_features_batch([pair], config)[0]
            with_removal.append(fx.features.z3)
            # Recompute z3 with the delay forced to zero: both normalized
            # signals trimmed to their common length, cut into segments.
            t_norm = _unit(fx.transmitted.smoothed)
            r_norm = _unit(fx.received.smoothed)
            count = config.segment_count
            length = min(t_norm.size, r_norm.size) // count
            t_rows, r_rows = (x[: count * length].reshape(count, length) for x in (t_norm, r_norm))
            without_removal.append(min(_pearson_rows(t_rows, r_rows)))
        return float(np.mean(with_removal)), float(np.mean(without_removal))

    aligned_z3, unaligned_z3 = run_once(benchmark, experiment)
    report(
        "ablation_delay_removal",
        [
            "Ablation: mean legitimate z3 with vs without delay removal",
            f"with delay removal    : {aligned_z3:6.3f}",
            f"without delay removal : {unaligned_z3:6.3f}",
        ],
    )
    assert aligned_z3 >= unaligned_z3 - 1e-6
