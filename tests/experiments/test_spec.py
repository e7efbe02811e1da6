"""Tests for ExperimentSpec / SweepSpec content addressing and expansion."""

from __future__ import annotations

import pytest

from repro.experiments.context import ExecutionContext
from repro.experiments.spec import ExperimentSpec, SweepSpec


def cell(**kwargs) -> ExperimentSpec:
    base = dict(task="mnist", method="fedavg", scale="small", seed=0)
    base.update(kwargs)
    return ExperimentSpec.make(**base)


class TestCellHash:
    def test_stable_across_instances(self):
        a = cell(overrides={"rounds": 3, "lr": 0.1})
        b = cell(overrides={"rounds": 3, "lr": 0.1})
        assert a == b
        assert a.cell_hash() == b.cell_hash()

    def test_override_ordering_is_canonical(self):
        a = cell(overrides={"rounds": 3, "lr": 0.1})
        b = cell(overrides={"lr": 0.1, "rounds": 3})
        assert a.cell_hash() == b.cell_hash()

    @pytest.mark.parametrize(
        "change",
        [
            {"task": "fmnist"},
            {"method": "fedbiad"},
            {"scale": "paper"},
            {"seed": 1},
            {"overrides": {"rounds": 4}},
            {"overrides": {"rounds": 3, "dropout_rate": 0.3}},
            {"overrides": {"rounds": 3, "mode": "async"}},
            {"overrides": {"rounds": 3, "system": "straggler"}},
            {"method_kwargs": {"adaptive": False}},
        ],
    )
    def test_any_structural_change_misses(self, change):
        base = cell(overrides={"rounds": 3})
        assert cell(**change).cell_hash() != base.cell_hash()

    def test_execution_only_keys_are_stripped(self):
        base = cell(overrides={"rounds": 3})
        spelled_out = cell(overrides={"rounds": 3, "backend": "serial"})
        assert spelled_out.cell_hash() == base.cell_hash()
        assert spelled_out.overrides_dict() == {"rounds": 3}

    def test_unspecable_value_rejected(self):
        with pytest.raises(TypeError):
            cell(overrides={"rounds": object()})

    def test_nested_mapping_value_rejected(self):
        # a dict value would freeze to item tuples and come back as the
        # wrong type from overrides_dict(); fail loudly at spec build
        with pytest.raises(TypeError, match="round-trip"):
            cell(method_kwargs={"opts": {"a": 1}})

    def test_sequence_values_round_trip_as_tuples(self):
        spec = cell(overrides={"rounds": 3}, method_kwargs={"widths": [1, 2]})
        assert spec.method_kwargs_dict() == {"widths": (1, 2)}

    def test_numpy_scalars_hash_like_python_scalars(self):
        import numpy as np

        a = cell(overrides={"dropout_rate": 0.5, "rounds": 3})
        b = cell(overrides={"dropout_rate": np.float64(0.5), "rounds": np.int64(3)})
        assert a.cell_hash() == b.cell_hash()

    def test_label_is_readable(self):
        label = cell(overrides={"rounds": 3}, method_kwargs={"adaptive": False}).label()
        assert "mnist" in label and "fedavg" in label and "rounds=3" in label


class TestMerged:
    def test_context_defaults_fill_in(self):
        merged = cell(overrides={"rounds": 3}).merged(
            ExecutionContext(mode="async", buffer_size=2).structural_overrides()
        )
        assert merged.overrides_dict() == {"rounds": 3, "mode": "async", "buffer_size": 2}

    def test_cell_overrides_win(self):
        merged = cell(overrides={"mode": "sync"}).merged({"mode": "async"})
        assert merged.overrides_dict() == {"mode": "sync"}

    def test_backend_never_merges_into_hash(self):
        base = cell(overrides={"rounds": 3})
        merged = base.merged(ExecutionContext(backend="serial").structural_overrides())
        assert merged.cell_hash() == base.cell_hash()

    def test_empty_defaults_is_identity(self):
        base = cell(overrides={"rounds": 3})
        assert base.merged({}) is base


class TestSweepSpecGrid:
    def test_expansion_order_is_task_major(self):
        sweep = SweepSpec.grid(
            "t", tasks=("mnist", "fmnist"), methods=("fedavg", "fedbiad"), seeds=(0, 1)
        )
        labels = [(c.task, c.method, c.seed) for c in sweep]
        assert labels == [
            ("mnist", "fedavg", 0), ("mnist", "fedavg", 1),
            ("mnist", "fedbiad", 0), ("mnist", "fedbiad", 1),
            ("fmnist", "fedavg", 0), ("fmnist", "fedavg", 1),
            ("fmnist", "fedbiad", 0), ("fmnist", "fedbiad", 1),
        ]

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError, match="seeds"):
            SweepSpec.grid("t", tasks=("mnist",), methods=("fedavg",), seeds=())

    def test_empty_tasks_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec.grid("t", tasks=(), methods=("fedavg",))

    def test_from_cells_dedupes_keeping_first(self):
        a = cell(overrides={"rounds": 3})
        b = cell(overrides={"rounds": 4})
        sweep = SweepSpec.from_cells("t", [a, b, a])
        assert sweep.cells == (a, b)

    def test_scale_resolves_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "paper")
        assert ExperimentSpec.make("mnist", "fedavg").scale == "paper"
