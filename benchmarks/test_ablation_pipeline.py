"""Ablation — contribution of the preprocessing stages and delay removal.

DESIGN.md calls out two design choices worth ablating:

* skipping the RMS + Savitzky-Golay smoothing splits one luminance
  change into several variance peaks, wrecking the matched-change counts;
* skipping delay removal lets ordinary network latency deflate the trend
  correlation of *legitimate* clips.
"""

import numpy as np

from repro.core.config import DetectorConfig
from repro.core.delay import align_signals
from repro.core.features import (
    extract_features_batch,
    normalize_unit,
    pearson_correlation,
    split_segments,
)
from repro.core.peaks import find_peaks
from repro.core.preprocessing import (
    lowpass_filter,
    moving_variance,
    preprocess,
    threshold_filter,
)
from repro.experiments.dataset import GENUINE

from .conftest import run_once


def _peaks_without_smoothing(raw, config, prominence):
    """The chain cut short after the threshold filter."""
    lowpassed = lowpass_filter(
        raw, config.sample_rate_hz, config.lowpass_cutoff_hz, config.lowpass_taps
    )
    variance = moving_variance(lowpassed, config.variance_window)
    thresholded = threshold_filter(variance, config.variance_threshold)
    return find_peaks(thresholded, prominence)


def test_ablation_smoothing_prevents_peak_splitting(benchmark, main_dataset, report):
    config = DetectorConfig()
    clips = main_dataset.select(role=GENUINE)[:60]

    def experiment():
        split_counts = []
        full_counts = []
        for clip in clips:
            full = preprocess(clip.received_luminance, config, config.peak_prominence_face)
            cut = _peaks_without_smoothing(
                clip.received_luminance, config, config.peak_prominence_face
            )
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
            # Recompute z3 with the delay forced to zero.
            t_norm = normalize_unit(fx.transmitted.smoothed)
            r_norm = normalize_unit(fx.received.smoothed)
            t_aligned, r_aligned = align_signals(t_norm, r_norm, 0.0, config.sample_rate_hz)
            correlations = [
                pearson_correlation(a, b)
                for a, b in zip(
                    split_segments(t_aligned, config.segment_count),
                    split_segments(r_aligned, config.segment_count),
                )
            ]
            without_removal.append(min(correlations))
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
