"""Tests for the experiment harness (configs, runner, reporting)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import (
    TABLE1_METHODS,
    TABLE2_METHODS,
    ExecutionContext,
    MemoryRunStore,
    active_scale,
    format_series,
    format_table,
    percent,
    pm,
    preset_for,
    resolve_method,
    run_experiment,
    run_sweep,
    sparkline,
    table1_spec,
)
from repro.experiments import runner
from repro.experiments.configs import TTA_TARGETS


class TestConfigs:
    def test_presets_for_all_tasks(self):
        for name in ("mnist", "fmnist", "ptb", "wikitext2", "reddit"):
            preset = preset_for(name, "small")
            assert preset.fl.rounds > 0
            assert 0 < preset.tta_target < 1

    def test_unknown_task(self):
        with pytest.raises(ValueError):
            preset_for("cifar", "small")

    def test_paper_scale_matches_paper_constants(self):
        preset = preset_for("mnist", "paper")
        assert preset.fl.rounds == 60
        assert preset.fl.stage_boundary == 55
        assert preset.fl.kappa == 0.1
        assert preset.fl.tau == 3

    def test_dropout_rates_follow_paper(self):
        assert preset_for("mnist", "small").fl.dropout_rate == 0.2
        for name in ("fmnist", "ptb", "wikitext2", "reddit"):
            assert preset_for(name, "small").fl.dropout_rate == 0.5

    def test_active_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "paper")
        assert active_scale() == "paper"
        monkeypatch.setenv("REPRO_SCALE", "bogus")
        with pytest.raises(ValueError):
            active_scale()

    def test_tta_targets_cover_scales(self):
        for scale in ("small", "paper"):
            assert set(TTA_TARGETS[scale]) == {
                "mnist", "fmnist", "ptb", "wikitext2", "reddit", "fleet"
            }

    def test_method_lists_match_paper(self):
        assert TABLE1_METHODS[0] == "fedavg" and TABLE1_METHODS[-1] == "fedbiad"
        assert "fedbiad+dgc" in TABLE2_METHODS


class TestResolveMethod:
    def test_plain_names(self):
        assert resolve_method("fedavg").name == "fedavg"
        assert resolve_method("fedbiad").name == "fedbiad"

    def test_compressed_specs(self):
        preset = preset_for("mnist", "small")
        method = resolve_method("fedbiad+dgc", preset)
        assert method.name == "fedbiad+dgc"
        assert method.compressor.keep_fraction == preset.sparsifier_keep

    def test_unknown(self):
        with pytest.raises(ValueError):
            resolve_method("adamw")


class TestRunner:
    def test_smoke_run_and_cache(self):
        overrides = {"rounds": 2, "local_iterations": 3, "eval_every": 1}
        a = run_experiment("mnist", "fedavg", scale="small", config_overrides=overrides)
        b = run_experiment("mnist", "fedavg", scale="small", config_overrides=overrides)
        assert a is b  # cached
        assert np.isfinite(a.final_accuracy)
        assert a.save_ratio == pytest.approx(1.0)

    def test_fedbiad_save_ratio(self):
        overrides = {"rounds": 2, "local_iterations": 3, "eval_every": 1}
        r = run_experiment("mnist", "fedbiad", scale="small", config_overrides=overrides)
        assert r.save_ratio > 1.05

    def test_tta_accessor(self):
        overrides = {"rounds": 2, "local_iterations": 3, "eval_every": 1}
        r = run_experiment("mnist", "fedavg", scale="small", config_overrides=overrides)
        assert r.tta(0.0) is not None
        assert r.tta(2.0) is None

    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_tta_reads_virtual_clock(self, mode):
        """Sync rounds and async buffer flushes alike: TTA is the
        virtual clock at the first round reaching the target."""
        overrides = {"rounds": 3, "local_iterations": 3, "eval_every": 1}
        r = run_experiment(
            "mnist", "fedavg", scale="small", config_overrides=overrides,
            context=ExecutionContext(mode=mode, system="straggler"),
        )
        assert r.history.series("flush_index").all() == (mode == "async")
        assert r.tta(0.0) == r.history.records[0].sim_clock_seconds > 0
        assert r.tta(2.0) is None

    def test_run_experiment_and_sweep_share_one_cell(self):
        """A single run and a sweep fold the context into the cell the
        same way, so the sweep is served the run's stored result."""
        overrides = {"rounds": 2, "local_iterations": 3, "eval_every": 1}
        context = ExecutionContext(system="straggler")
        store = MemoryRunStore()
        single = run_experiment(
            "mnist", "fedavg", config_overrides=overrides, context=context, store=store,
        )
        spec = table1_spec(datasets=("mnist",), methods=("fedavg",), overrides=overrides)
        swept = run_sweep(spec, store=store, context=context)
        assert (swept.reused, swept.computed) == (1, 0)
        assert swept[spec.cells[0]] is single


class TestTaskCache:
    @pytest.fixture(autouse=True)
    def fake_tasks(self, monkeypatch):
        """Count builds; each build is a distinct object."""
        self.built = []

        def make_task(name, scale, seed):
            self.built.append(name)
            return object()

        monkeypatch.setattr(runner, "make_task", make_task)
        runner.clear_cache()
        yield
        runner.clear_cache()

    def test_repeated_key_returns_same_task(self):
        first = runner.cached_task("mnist", "small", 0)
        assert runner.cached_task("mnist", "small", 0) is first
        assert self.built == ["mnist"]

    def test_third_key_evicts_least_recently_used(self):
        mnist = runner.cached_task("mnist", "small", 0)
        runner.cached_task("fmnist", "small", 0)
        assert runner.cached_task("mnist", "small", 0) is mnist  # now most recent
        runner.cached_task("ptb", "small", 0)  # evicts fmnist
        assert runner.cached_task("mnist", "small", 0) is mnist
        runner.cached_task("fmnist", "small", 0)
        assert self.built == ["mnist", "fmnist", "ptb", "fmnist"]
        assert len(runner._TASK_CACHE) == runner.TASK_CACHE_SIZE == 2


class TestReporting:
    def test_format_table_aligned(self):
        out = format_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = out.splitlines()
        assert len({len(l) for l in lines}) == 1  # all lines equal width

    def test_format_table_row_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a"], [["1", "2"]])

    def test_sparkline_monotone(self):
        line = sparkline([1, 2, 3, 4, 5, 6, 7, 8])
        assert line[0] == "▁" and line[-1] == "█"

    def test_sparkline_constant(self):
        assert sparkline([2, 2, 2]) == "▁▁▁"

    def test_sparkline_empty(self):
        assert sparkline([float("nan")]) == ""

    def test_sparkline_pools_to_width(self):
        assert len(sparkline(range(200), width=40)) == 40

    def test_format_series_subsamples(self):
        out = format_series("x", range(100), np.linspace(0, 1, 100), max_points=5)
        assert out.count("r") >= 5

    def test_percent_and_pm(self):
        assert percent(0.9512) == "95.12"
        assert pm(0.95, 0.001) == "95.00±0.10"
