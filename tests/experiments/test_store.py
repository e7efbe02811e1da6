"""Tests for the run stores (in-memory memo and on-disk RunStore)."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.experiments import run_experiment
from repro.experiments.spec import ExperimentSpec
from repro.experiments.store import MemoryRunStore, RunStore


def cell(**kwargs) -> ExperimentSpec:
    base = dict(task="mnist", method="fedavg", scale="small", seed=0,
                overrides={"rounds": 3})
    base.update(kwargs)
    return ExperimentSpec.make(**base)


class TestMemoryRunStore:
    def test_hit_returns_same_object(self, make_result):
        store = MemoryRunStore()
        result = make_result()
        store.put(cell(), result)
        assert store.get(cell()) is result
        assert store.hits == 1 and store.misses == 0

    def test_miss_counts(self, make_result):
        store = MemoryRunStore()
        assert store.get(cell()) is None
        assert store.misses == 1

    def test_clear(self, make_result):
        store = MemoryRunStore()
        store.put(cell(), make_result())
        store.clear()
        assert len(store) == 0
        assert cell() not in store


class TestRunStore:
    def test_roundtrip_preserves_result(self, tmp_path, make_result):
        store = RunStore(tmp_path / "store")
        result = make_result(accs=(0.4, float("nan"), 0.7))
        store.put(cell(), result)
        loaded = store.get(cell())
        assert loaded is not result
        assert loaded.best_accuracy == result.best_accuracy
        assert loaded.upload_bits == result.upload_bits
        assert loaded.dense_bits == result.dense_bits
        assert loaded.save_ratio == result.save_ratio
        acc = loaded.history.series("test_accuracy")
        assert math.isnan(acc[1])
        np.testing.assert_array_equal(
            loaded.history.series("round_index"), result.history.series("round_index")
        )
        assert store.hits == 1 and store.misses == 0
        assert len(store) == 1

    def test_nan_top_level_metrics_roundtrip(self, tmp_path, make_result):
        """Only the four fields are stored; every quantity derived from
        the history comes back value-identical, NaN final accuracy
        included (JSON's null must return as nan, not None)."""
        store = RunStore(tmp_path / "store")
        result = make_result(accs=(0.4, 0.7, float("nan")))
        store.put(cell(), result)
        stored = json.loads(store.path_for(cell()).read_text())["result"]
        assert set(stored) == {"task_name", "method_spec", "history", "dense_bits"}
        loaded = store.get(cell())
        assert math.isnan(result.final_accuracy) and math.isnan(loaded.final_accuracy)
        for name in (
            "best_accuracy", "upload_bits", "lttr", "sim_seconds", "participation", "save_ratio",
        ):
            assert getattr(loaded, name) == getattr(result, name), name
        assert loaded.tta(0.5) == result.tta(0.5) == 2.0
        assert loaded.tta(0.9) is None

    def test_hit_on_identical_cell_across_instances(self, tmp_path, make_result):
        RunStore(tmp_path / "store").put(cell(), make_result())
        fresh = RunStore(tmp_path / "store")
        assert fresh.get(cell()) is not None
        assert fresh.hits == 1

    @pytest.mark.parametrize(
        "change",
        [
            {"seed": 1},
            {"scale": "paper"},
            {"method": "fedbiad"},
            {"task": "fmnist"},
            {"overrides": {"rounds": 4}},
            {"overrides": {"rounds": 3, "dropout_rate": 0.3}},
        ],
    )
    def test_miss_on_any_structural_change(self, tmp_path, make_result, change):
        store = RunStore(tmp_path / "store")
        store.put(cell(), make_result())
        assert store.get(cell(**change)) is None
        assert store.misses == 1

    def test_corrupt_file_is_a_tolerated_miss(self, tmp_path, make_result):
        store = RunStore(tmp_path / "store")
        store.put(cell(), make_result())
        store.path_for(cell()).write_text('{"truncated": ')
        assert store.get(cell()) is None
        assert store.misses == 1
        # recompute-and-overwrite recovers the entry
        store.put(cell(), make_result())
        assert store.get(cell()) is not None

    def test_foreign_payload_is_a_miss(self, tmp_path, make_result):
        # 1 is the format before simulated compute moved to the virtual
        # base; its sim_* columns must never be served.  3 stored the
        # derived metrics and a host-measured aggregation time per round.
        store = RunStore(tmp_path / "store")
        for fmt in (999, 1, 3):
            store.put(cell(), make_result())
            store.path_for(cell()).write_text(f'{{"format": {fmt}, "cell": "x"}}')
            assert store.get(cell()) is None

    def test_no_temp_litter_after_put(self, tmp_path, make_result):
        store = RunStore(tmp_path / "store")
        store.put(cell(), make_result())
        leftovers = [p for p in (tmp_path / "store").rglob("*") if p.suffix == ".tmp"]
        assert leftovers == []

    def test_clear_removes_cells(self, tmp_path, make_result):
        store = RunStore(tmp_path / "store")
        store.put(cell(), make_result())
        store.put(cell(seed=1), make_result())
        store.clear()
        assert len(store) == 0

    def test_real_run_roundtrips_through_disk(self, tmp_path):
        """End-to-end: run_experiment persists to a RunStore and a second
        call is served from disk with identical trajectory numbers."""
        store = RunStore(tmp_path / "store")
        overrides = {"rounds": 2, "local_iterations": 3, "eval_every": 1}
        first = run_experiment(
            "mnist", "fedavg", scale="small", config_overrides=overrides, store=store
        )
        again = run_experiment(
            "mnist", "fedavg", scale="small", config_overrides=overrides, store=store
        )
        assert again is not first  # reloaded from disk, not the memo
        assert again.best_accuracy == first.best_accuracy
        np.testing.assert_array_equal(
            again.history.series("test_loss"), first.history.series("test_loss")
        )
        assert store.hits == 1
