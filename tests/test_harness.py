"""Tests for repro.harness (experiments, figures, reporting)."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.harness.experiment import (
    ExperimentSetting,
    clear_pretrained_policies,
    make_framework,
    paper_budget,
    run_comparison,
    run_experiment,
)
from repro.harness.figures import FigureResult, _split_pool, fig8
from repro.harness.report import render_figure, render_figures
from repro.utils.rng import as_rng


class TestPaperBudget:
    def test_speech_budget(self):
        assert paper_budget("S12CP", 1.0) == 10_000.0
        assert paper_budget("S3C", 0.1) == 1_000.0

    def test_fashion_budget(self):
        assert paper_budget("Fashion", 1.0) == 160_000.0


class TestExperimentSetting:
    def test_budget_defaults_to_paper(self):
        setting = ExperimentSetting("S12CP", scale=0.1)
        assert setting.resolve_budget() == 1_000.0

    def test_explicit_budget_wins(self):
        setting = ExperimentSetting("S12CP", scale=0.1, budget=42.0)
        assert setting.resolve_budget() == 42.0

    def test_subsample_scales_budget(self):
        setting = ExperimentSetting("S12CP", scale=0.1, subsample=0.5)
        assert setting.resolve_budget() == 500.0


class TestMakeFramework:
    @pytest.mark.parametrize("name", [
        "CrowdRL", "DLTA", "OBA", "IDLE", "DALC", "Hybrid", "M1", "M2", "M3",
    ])
    def test_all_names_instantiate(self, name):
        setting = ExperimentSetting("S12CP", scale=0.02)
        framework = make_framework(name, setting, as_rng(0))
        assert hasattr(framework, "run")

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError):
            make_framework("GPT", ExperimentSetting("S12CP"), as_rng(0))


class TestRunExperiment:
    def test_returns_scored_result(self):
        setting = ExperimentSetting("S12CP", scale=0.02, seed=0)
        result = run_experiment("DLTA", setting)
        assert 0.0 <= result.report.accuracy <= 1.0
        assert result.outcome.spent <= setting.resolve_budget() + 1e-9

    def test_shared_dataset_reused(self):
        from repro.datasets.registry import load_dataset

        setting = ExperimentSetting("S12C", scale=0.02, seed=0)
        dataset = load_dataset("S12C", scale=0.02, rng=0)
        result = run_experiment("OBA", setting, dataset=dataset)
        assert result.report.n_evaluated == dataset.n_objects

    def test_pretrain_flag_off_is_faster_path(self):
        setting = ExperimentSetting("S12C", scale=0.02, seed=0)
        result = run_experiment("CrowdRL", setting, pretrain=False)
        assert result.outcome.final_labels.size > 0

    def test_subsample_applied(self):
        setting = ExperimentSetting("S12C", scale=0.04, subsample=0.5, seed=0)
        full = ExperimentSetting("S12C", scale=0.04, seed=0)
        sub_result = run_experiment("OBA", setting)
        full_result = run_experiment("OBA", full)
        assert sub_result.report.n_evaluated < full_result.report.n_evaluated


class TestPretrainedPolicyCache:
    """The offline-policy cache is keyed by everything pretraining reads,
    so an ablation never reuses a policy trained under another config."""

    SETTING = ExperimentSetting("S12CP", scale=0.02, seed=0)

    @staticmethod
    def _fingerprint(result):
        return (result.report.accuracy, result.report.f1,
                result.outcome.spent, result.outcome.iterations,
                result.outcome.final_labels.tolist())

    @pytest.mark.parametrize("framework", ["M1", "M2", "M3"])
    def test_ablation_same_cold_as_after_crowdrl(self, framework):
        clear_pretrained_policies()
        cold = run_experiment(framework, self.SETTING)
        clear_pretrained_policies()
        run_experiment("CrowdRL", self.SETTING)
        warm = run_experiment(framework, self.SETTING)
        assert self._fingerprint(warm) == self._fingerprint(cold)


class TestRunComparison:
    def test_same_pool_for_all_frameworks(self):
        setting = ExperimentSetting("S12C", scale=0.02, seed=3)
        reports = run_comparison(("OBA", "DLTA"), setting)
        assert set(reports) == {"OBA", "DLTA"}

    def test_invalid_seed_count_raises(self):
        with pytest.raises(ConfigurationError):
            run_comparison(("OBA",), ExperimentSetting("S12C"), n_seeds=0)

    def test_n_evaluated_comes_from_shared_dataset(self):
        from repro.datasets.registry import load_dataset

        setting = ExperimentSetting("S12C", scale=0.02, seed=3)
        reports = run_comparison(("OBA", "DLTA"), setting)
        expected = load_dataset("S12C", scale=0.02, rng=3).n_objects
        assert all(r.n_evaluated == expected for r in reports.values())

    def test_n_evaluated_respects_subsample(self):
        setting = ExperimentSetting("S12C", scale=0.04, subsample=0.5, seed=0)
        full = ExperimentSetting("S12C", scale=0.04, seed=0)
        sub = run_comparison(("OBA",), setting)["OBA"]
        whole = run_comparison(("OBA",), full)["OBA"]
        assert 0 < sub.n_evaluated < whole.n_evaluated


class TestFigures:
    def test_split_pool(self):
        # Growing pools add workers; experts stay scarce (1, then 2).
        assert _split_pool(3) == (2, 1)
        assert _split_pool(5) == (4, 1)
        assert _split_pool(7) == (5, 2)

    def test_split_pool_invalid(self):
        with pytest.raises(ConfigurationError):
            _split_pool(0)

    def test_fig8_structure(self):
        result = fig8(scale=0.015, datasets=("S12C",))
        assert result.metric == "accuracy"
        assert set(result.series) == {"M1", "M2", "M3", "CrowdRL"}
        for values in result.series.values():
            assert len(values) == 1
            assert 0.0 <= values[0] <= 1.0


class TestReport:
    def test_render_figure(self):
        result = FigureResult("figX", "dataset", ["A", "B"])
        result.add("CrowdRL", 0.9)
        result.add("CrowdRL", 0.95)
        result.add("DLTA", 0.7)
        result.add("DLTA", 0.75)
        text = render_figure(result)
        assert "CrowdRL" in text and "0.900" in text and "0.750" in text

    def test_render_figures_joins(self):
        a = FigureResult("f1", "x", [1])
        a.add("s", 0.5)
        b = FigureResult("f2", "x", [1])
        b.add("s", 0.6)
        text = render_figures([a, b])
        assert "f1" in text and "f2" in text
