"""Every Sec. VIII paper figure: one generator, one format, one writer.

Each ``figure_*`` function runs one experiment and returns ``(result,
lines)``: the runner's result object and the figure's printable rows.
:data:`FIGURES` keys are the results-file stems, and
:func:`write_results` writes ``<name>.txt`` headed by
:func:`results_stamp`.  Both ``repro figures`` (through
:func:`generate_all`) and the benchmark harness (``pytest benchmarks
--record``, which also times each figure and asserts its shape) write
through it, so the two produce the same files byte for byte.

Datasets are shared with the benchmarks through the same on-disk cache,
so whichever runs first pays the simulation cost.
"""

from __future__ import annotations

import pathlib
from collections.abc import Callable, Sequence
from typing import Any

from ..core.config import DetectorConfig
from ..engine import ExecutionEngine, config_fingerprint
from .dataset import GENERATOR_VERSION, FeatureDataset, build_dataset
from .profiles import DEFAULT_ENVIRONMENT
from .runner import (
    AttemptsResult,
    DelaySweepResult,
    OverallResult,
    RateSweepResult,
    ThresholdSweepResult,
    TrainingSizeResult,
    run_ambient_light,
    run_attempts,
    run_forgery_delay,
    run_overall,
    run_sampling_rate,
    run_screen_size,
    run_threshold_sweep,
    run_training_size,
)

__all__ = [
    "FIGURES",
    "figure_11_overall",
    "figure_12_threshold",
    "figure_13_screen_size",
    "figure_14_attempts",
    "figure_15_training_size",
    "figure_16_sampling_rate",
    "figure_17_forgery_delay",
    "figure_ambient_light",
    "generate_all",
    "headline_dataset",
    "results_stamp",
    "write_results",
]


def headline_dataset(engine: ExecutionEngine | None = None) -> FeatureDataset:
    """The paper's headline dataset: 10 users x 2 roles x 40 clips."""
    return build_dataset(clips_per_role=40, engine=engine)


def results_stamp() -> str:
    """First line of every results file: what code generated it."""
    return (
        f"# generator_version={GENERATOR_VERSION} "
        f"detector_config={config_fingerprint(DetectorConfig())}"
    )


def write_results(out_dir: pathlib.Path | str, name: str, lines: Sequence[str]) -> None:
    """Write ``<out_dir>/<name>.txt``: the stamp, then ``lines``."""
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{name}.txt").write_text("\n".join([results_stamp(), *lines]) + "\n")


def figure_11_overall(
    dataset: FeatureDataset, engine: ExecutionEngine | None = None
) -> tuple[OverallResult, list[str]]:
    """Fig. 11: per-user TAR/TRR, own vs others' training data."""
    result = run_overall(dataset, rounds=20, train_size=20, engine=engine)
    lines = [
        "Fig. 11 single-detection performance (20 rounds, 20 training clips)",
        f"{'user':8s} {'TAR(own)':>10s} {'TAR(other)':>11s} {'TRR':>8s}",
    ]
    for u in result.per_user:
        lines.append(
            f"{u.user:8s} {u.tar_own_mean:10.3f} {u.tar_other_mean:11.3f} {u.trr_mean:8.3f}"
        )
    lines += [
        f"{'AVERAGE':8s} {result.avg_tar_own:10.3f} "
        f"{result.avg_tar_other:11.3f} {result.avg_trr:8.3f}",
        "paper    :      0.925       0.928    0.944",
    ]
    return result, lines


def figure_12_threshold(
    dataset: FeatureDataset, engine: ExecutionEngine | None = None
) -> tuple[ThresholdSweepResult, list[str]]:
    """Fig. 12: FAR/FRR across the decision threshold, EER."""
    result = run_threshold_sweep(dataset, rounds=10, train_size=20, engine=engine)
    lines = [
        "Fig. 12 FAR/FRR vs decision threshold tau",
        f"{'tau':>5s} {'FAR':>8s} {'FRR':>8s}",
    ]
    for tau, far, frr in zip(result.thresholds, result.far, result.frr):
        lines.append(f"{tau:5.2f} {far:8.4f} {frr:8.4f}")
    lines += [
        f"EER = {result.eer:.4f} at tau = {result.eer_threshold:.2f}",
        "paper: EER ~ 0.055 at tau in [2.8, 3.0]",
    ]
    return result, lines


def figure_13_screen_size(
    engine: ExecutionEngine | None = None
) -> tuple[RateSweepResult, list[str]]:
    """Fig. 13: performance vs screen size (incl. the phone cases)."""
    from ..screen.display import PHONE_6_OLED, SCREEN_SIZE_LADDER

    screens = [
        (f'{s.diagonal_in:g}"', DEFAULT_ENVIRONMENT.replace(screen=s))
        for s in SCREEN_SIZE_LADDER
    ]
    screens.append(('6" phone @0.5m', DEFAULT_ENVIRONMENT.replace(screen=PHONE_6_OLED)))
    screens.append(
        (
            '6" phone @0.1m',
            DEFAULT_ENVIRONMENT.replace(screen=PHONE_6_OLED, viewing_distance_m=0.1),
        )
    )
    result = run_screen_size(screens, engine=engine)
    lines = ["Fig. 13 performance vs screen size", f"{'screen':>16s} {'TAR':>8s} {'TRR':>8s}"]
    for p in result.points:
        lines.append(f"{p.label:>16s} {p.tar_mean:8.3f} {p.trr_mean:8.3f}")
    lines.append('paper: monotone in size; smallest ~0.85 TAR; 6" phone only at ~10 cm')
    return result, lines


def figure_14_attempts(
    dataset: FeatureDataset, engine: ExecutionEngine | None = None
) -> tuple[AttemptsResult, list[str]]:
    """Fig. 14: majority voting over D attempts."""
    result = run_attempts(
        dataset, rounds=10, trials_per_round=10, train_size=20, engine=engine
    )
    lines = [
        "Fig. 14 accuracy vs number of voting attempts D",
        f"{'D':>3s} {'TAR(own)':>10s} {'+-':>6s} {'TAR(other)':>11s} {'TRR':>8s} {'+-':>6s}",
    ]
    for i, d in enumerate(result.attempts):
        lines.append(
            f"{d:3d} {result.tar_own_mean[i]:10.3f} {result.tar_own_std[i]:6.3f} "
            f"{result.tar_other_mean[i]:11.3f} {result.trr_mean[i]:8.3f} {result.trr_std[i]:6.3f}"
        )
    return result, lines


def figure_15_training_size(
    dataset: FeatureDataset, engine: ExecutionEngine | None = None
) -> tuple[TrainingSizeResult, list[str]]:
    """Fig. 15: accuracy vs training-set size."""
    result = run_training_size(dataset, rounds=20, engine=engine)
    lines = [
        "Fig. 15 accuracy vs training-set size (one volunteer)",
        f"{'n':>3s} {'TAR':>8s} {'+-':>6s} {'TRR':>8s} {'+-':>6s}",
    ]
    for i, n in enumerate(result.sizes):
        lines.append(
            f"{n:3d} {result.tar_mean[i]:8.3f} {result.tar_std[i]:6.3f} "
            f"{result.trr_mean[i]:8.3f} {result.trr_std[i]:6.3f}"
        )
    lines.append("paper: n=8 -> 0.9225/0.91; n=20 -> 0.9475/0.9575; stds shrink")
    return result, lines


def figure_16_sampling_rate(
    engine: ExecutionEngine | None = None
) -> tuple[RateSweepResult, list[str]]:
    """Fig. 16: performance vs sampling rate."""
    result = run_sampling_rate(engine=engine)
    lines = [
        "Fig. 16 performance vs sampling rate (one volunteer)",
        f"{'rate':>8s} {'TAR':>8s} {'TRR':>8s}",
    ]
    for p in result.points:
        lines.append(f"{p.label:>8s} {p.tar_mean:8.3f} {p.trr_mean:8.3f}")
    lines.append("paper: 10/8 Hz >= 0.95 both; 5 Hz -> TAR ~0.86, TRR ~0.48")
    return result, lines


def figure_17_forgery_delay(
    dataset: FeatureDataset, engine: ExecutionEngine | None = None
) -> tuple[DelaySweepResult, list[str]]:
    """Fig. 17: rejection rate vs forgery processing delay."""
    result = run_forgery_delay(
        dataset, rounds=3, train_size=20, max_clips_per_user=10, engine=engine
    )
    lines = [
        "Fig. 17 rejection rate vs forgery processing delay",
        f"{'delay':>7s} {'rejection':>10s}",
    ]
    for delay, rejection in zip(result.delays_s, result.rejection_rate):
        lines.append(f"{delay:7.1f} {rejection:10.3f}")
    lines.append("paper: ~0.80 rejection at 1.3 s delay")
    return result, lines


def figure_ambient_light(
    engine: ExecutionEngine | None = None
) -> tuple[RateSweepResult, list[str]]:
    """Sec. VIII-I: performance vs ambient illuminance."""
    result = run_ambient_light(engine=engine)
    lines = [
        "Sec. VIII-I performance vs ambient illuminance on the face",
        f"{'ambient':>10s} {'TAR':>8s} {'TRR':>8s}",
    ]
    for p in result.points:
        lines.append(f"{p.label:>10s} {p.tar_mean:8.3f} {p.trr_mean:8.3f}")
    lines.append("paper: nominal at ~50 lux; TAR ~0.80 at 240 lux on the face")
    return result, lines


#: Registry: results-file stem -> (needs the headline dataset, generator).
FIGURES: dict[str, tuple[bool, Callable[..., tuple[Any, list[str]]]]] = {
    "fig11_overall": (True, figure_11_overall),
    "fig12_threshold": (True, figure_12_threshold),
    "fig13_screen_size": (False, figure_13_screen_size),
    "fig14_attempts": (True, figure_14_attempts),
    "fig15_training_size": (True, figure_15_training_size),
    "fig16_sampling_rate": (False, figure_16_sampling_rate),
    "fig17_forgery_delay": (True, figure_17_forgery_delay),
    "sec8i_ambient_light": (False, figure_ambient_light),
}


def generate_all(
    out_dir: pathlib.Path | str,
    only: Sequence[str] | None = None,
    echo: bool = True,
    engine: ExecutionEngine | None = None,
) -> dict[str, list[str]]:
    """Regenerate the selected figures and write one results file each.

    One ``engine`` is shared across all selected figures, so its
    :class:`~repro.engine.PerfReport` covers the whole run.
    """
    names = list(only) if only else list(FIGURES)
    unknown = [n for n in names if n not in FIGURES]
    if unknown:
        raise ValueError(f"unknown figures: {unknown}; available: {sorted(FIGURES)}")

    dataset = headline_dataset(engine) if any(FIGURES[n][0] for n in names) else None
    results: dict[str, list[str]] = {}
    for name in names:
        needs_dataset, generator = FIGURES[name]
        _, lines = (
            generator(dataset, engine=engine) if needs_dataset else generator(engine=engine)
        )
        results[name] = lines
        write_results(out_dir, name, lines)
        if echo:
            print("\n".join(lines))
            print()
    return results
