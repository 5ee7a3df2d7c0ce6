"""Figure generators: registry, output format, the one results writer."""

import importlib.util
import pathlib

import numpy as np
import pytest

from repro.core.features import FeatureVector
from repro.experiments import figures
from repro.experiments.dataset import ATTACK, GENUINE, ClipInstance, FeatureDataset
from repro.experiments.figures import (
    FIGURES,
    figure_11_overall,
    figure_12_threshold,
    figure_14_attempts,
    figure_15_training_size,
    figure_17_forgery_delay,
    generate_all,
    results_stamp,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def _bench_conftest():
    """The benchmark harness's conftest, loaded by path (not a package here)."""
    spec = importlib.util.spec_from_file_location(
        "bench_conftest", REPO_ROOT / "benchmarks" / "conftest.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def small_dataset():
    """Separable synthetic feature dataset with real-ish signals."""
    rng = np.random.default_rng(1)
    instances = []
    for user in ("u0", "u1"):
        for i in range(30):
            t = np.full(150, 180.0)
            a = int(rng.integers(35, 60))
            b = a + int(rng.integers(45, 60))
            t[a:] -= 50.0
            t[b:] += 40.0
            r = 120.0 + 0.3 * np.concatenate([np.full(4, t[0]), t[:-4]])
            z = FeatureVector(
                1.0,
                float(rng.choice([1.0, 1.0, 0.667])),
                float(rng.uniform(0.88, 1.0)),
                float(rng.uniform(0.02, 0.2)),
            )
            instances.append(
                ClipInstance(user, GENUINE, i, z, t, r + rng.normal(0, 0.3, 150))
            )
        for i in range(30):
            z = FeatureVector(
                float(rng.uniform(0, 0.6)),
                float(rng.uniform(0, 0.7)),
                float(rng.uniform(-0.9, 0.3)),
                float(rng.uniform(0.5, 1.4)),
            )
            instances.append(
                ClipInstance(user, ATTACK, i, z, np.zeros(150), np.zeros(150))
            )
    return FeatureDataset(instances)


class TestRegistry:
    def test_all_paper_figures_registered(self):
        assert set(FIGURES) == {
            "fig11_overall",
            "fig12_threshold",
            "fig13_screen_size",
            "fig14_attempts",
            "fig15_training_size",
            "fig16_sampling_rate",
            "fig17_forgery_delay",
            "sec8i_ambient_light",
        }
        for name in FIGURES:
            assert (REPO_ROOT / "benchmarks" / f"test_{name}.py").exists()

    def test_unknown_figure_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            generate_all(tmp_path, only=["fig11"])


class TestGenerators:
    def test_fig11_lines(self, small_dataset):
        result, lines = figure_11_overall(small_dataset)
        assert lines[0].startswith("Fig. 11")
        assert any("AVERAGE" in line for line in lines)
        assert any("u0" in line for line in lines)
        assert lines[-1].startswith("paper")
        assert len(result.per_user) == 2

    def test_fig12_reports_eer(self, small_dataset):
        result, lines = figure_12_threshold(small_dataset)
        assert f"EER = {result.eer:.4f} at tau = {result.eer_threshold:.2f}" in lines

    def test_fig14_rows_per_attempt(self, small_dataset):
        result, lines = figure_14_attempts(small_dataset)
        assert len(lines) == 2 + 7  # header + D = 1..7
        assert lines[1].count("+-") == 2
        assert list(result.attempts) == [1, 2, 3, 4, 5, 6, 7]

    def test_fig15_rows_per_size(self, small_dataset):
        result, lines = figure_15_training_size(small_dataset)
        assert len(lines) == 2 + 5 + 1  # header + sizes (4,8,12,16,20) + paper
        assert list(result.sizes) == [4, 8, 12, 16, 20]

    def test_fig17_monotone_story(self, small_dataset):
        result, lines = figure_17_forgery_delay(small_dataset)
        values = [float(line.split()[-1]) for line in lines[2:-1]]
        assert values == [round(float(v), 3) for v in result.rejection_rate]
        assert values[-1] >= values[0]


class TestWriter:
    def test_cli_and_benchmark_write_identical_bytes(
        self, small_dataset, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(figures, "headline_dataset", lambda engine=None: small_dataset)
        generate_all(tmp_path / "cli", only=["fig12_threshold"], echo=False)
        _, lines = figure_12_threshold(small_dataset)
        _bench_conftest().make_report(True, tmp_path / "bench")("fig12_threshold", lines)
        cli = (tmp_path / "cli" / "fig12_threshold.txt").read_bytes()
        assert cli == (tmp_path / "bench" / "fig12_threshold.txt").read_bytes()
        assert cli.decode().splitlines()[0] == results_stamp()

    def test_report_writes_nothing_without_record(self, tmp_path, capsys):
        _bench_conftest().make_report(False, tmp_path)("x", ["row"])
        assert not list(tmp_path.iterdir())
        assert "row" in capsys.readouterr().out
