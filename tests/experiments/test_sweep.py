"""Tests for the sharded, resumable sweep scheduler.

The acceptance bar: a sharded sweep over a Table-I-shaped grid produces
bit-identical rows to the serial path at any shard count, and re-running
after an interruption recomputes only the unfinished cells (verified by
the scheduler's computed/reused counters).
"""

from __future__ import annotations

import multiprocessing
import os
import signal

import numpy as np
import pytest

from repro.experiments import (
    ExecutionContext,
    MemoryRunStore,
    RunStore,
    SweepScheduler,
    ablation_rows,
    ablations_spec,
    clear_cache,
    fig8_rows,
    fig8_spec,
    run_sweep,
    table1_rows,
    table1_spec,
)
from repro.experiments import sweep
from repro.experiments.ablations import ABLATIONS
from repro.experiments.fig8 import FIG8_RATES, FIG8B_RATES

#: smoke-scale overrides: every cell finishes in well under a second
FAST = {"rounds": 2, "local_iterations": 3, "eval_every": 1}


def tiny_spec(datasets=("mnist",), methods=("fedavg", "fedbiad"), seeds=(0, 1)):
    return table1_spec(datasets=datasets, methods=methods, seeds=seeds, overrides=FAST)


@pytest.fixture(scope="module")
def serial_rows():
    """Reference rows from the plain serial in-process path."""
    return table1_rows(run_sweep(tiny_spec(), store=MemoryRunStore()))


class TestSerialEquivalence:
    def test_shard_counts_match_serial_rows(self, serial_rows, tmp_path):
        # shards=2 covers the pool path; the 4-shard case (more shards
        # than some shard lists can fill) lives in the slow marker below.
        results = run_sweep(tiny_spec(), store=RunStore(tmp_path / "s2"), shards=2)
        assert results.complete
        assert table1_rows(results) == serial_rows

    @pytest.mark.slow
    def test_four_shards_match_serial_rows(self, serial_rows, tmp_path):
        results = run_sweep(tiny_spec(), store=RunStore(tmp_path / "s4"), shards=4)
        assert table1_rows(results) == serial_rows

    def test_single_shard_disk_matches_serial_rows(self, serial_rows, tmp_path):
        results = run_sweep(tiny_spec(), store=RunStore(tmp_path / "s1"), shards=1)
        assert table1_rows(results) == serial_rows


class TestFig8TTAIsDeterministic:
    def test_regenerated_fig8_ttas_are_identical(self):
        """Fig. 8's TTA is read off the virtual clock, so regenerating
        the sweep from scratch reproduces every TTA exactly."""
        spec = fig8_spec(dataset="mnist", methods=("fedavg", "fedbiad"), overrides={"rounds": 20})
        clear_cache()
        first = [row.tta_seconds for row in fig8_rows(run_sweep(spec))]
        clear_cache()
        second = [row.tta_seconds for row in fig8_rows(run_sweep(spec))]
        clear_cache()
        assert first == second
        assert any(tta is not None for tta in first)


class TestResume:
    def test_cold_sweep_reads_each_cell_once(self, tmp_path):
        """Planning is the only store read of a cell that then runs."""
        store = RunStore(tmp_path / "store")
        cold = run_sweep(tiny_spec(), store=store)
        assert cold.computed == len(tiny_spec()) == 4
        assert store.misses == 4 and store.hits == 0

    def test_interrupted_sweep_resumes_only_incomplete_cells(self, tmp_path):
        store = RunStore(tmp_path / "store")
        first = run_sweep(tiny_spec(), store=store, max_cells=3)
        assert first.computed == 3
        assert first.pending == 1
        assert not first.complete

        second = run_sweep(tiny_spec(), store=store)
        assert second.computed == 1  # only the cell the store was missing
        assert second.reused == 3
        assert second.complete

    def test_resume_after_deleting_one_cell(self, tmp_path):
        store = RunStore(tmp_path / "store")
        run_sweep(tiny_spec(), store=store)
        victim = tiny_spec().cells[2]
        store.path_for(victim).unlink()

        again = run_sweep(tiny_spec(), store=store)
        assert again.computed == 1
        assert again.reused == 3

    def test_corrupt_cell_is_recomputed_on_resume(self, tmp_path):
        store = RunStore(tmp_path / "store")
        run_sweep(tiny_spec(), store=store)
        victim = tiny_spec().cells[0]
        store.path_for(victim).write_text("not json")

        again = run_sweep(tiny_spec(), store=store)
        assert again.computed == 1
        assert again.reused == 3
        assert again.complete

    def test_no_reuse_recomputes_everything(self, tmp_path):
        store = RunStore(tmp_path / "store")
        run_sweep(tiny_spec(), store=store)
        fresh = run_sweep(tiny_spec(), store=store, reuse=False)
        assert fresh.computed == 4
        assert fresh.reused == 0

    def test_no_reuse_with_budget_does_not_backfill_stale_cells(self, tmp_path):
        """reuse=False promises recomputation, so cells the budget cut
        must stay pending rather than silently serving old store
        entries as if they were fresh."""
        store = RunStore(tmp_path / "store")
        run_sweep(tiny_spec(), store=store)
        partial = run_sweep(tiny_spec(), store=store, reuse=False, max_cells=1)
        assert partial.computed == 1
        assert partial.reused == 0
        assert partial.pending == 3
        assert not partial.complete

    def test_sharded_resume_of_sharded_interrupt(self, tmp_path):
        store = RunStore(tmp_path / "store")
        first = run_sweep(tiny_spec(), store=store, shards=2, max_cells=2)
        assert first.computed == 2 and first.pending == 2
        second = run_sweep(tiny_spec(), store=store, shards=2)
        assert second.computed == 2 and second.reused == 2
        assert second.complete


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the patched cell executor reaches shard workers only through fork",
)
class TestDeadShard:
    def test_dead_shard_fails_loudly_then_rerun_resumes(self, tmp_path, monkeypatch):
        spec = table1_spec(
            datasets=("mnist",), methods=("fedavg", "fedbiad"), seeds=(0,),
            overrides={"rounds": 1},
        )
        store = RunStore(tmp_path / "store")
        execute = sweep._execute_cell

        def dying(cell, store):
            if cell.method == "fedavg":
                os._exit(3)  # the shard worker process dies mid-sweep
            return execute(cell, store)

        def hung(signum, frame):
            raise TimeoutError("sharded sweep hung after a shard worker died")

        monkeypatch.setattr(sweep, "_execute_cell", dying)
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(30)
        try:
            with pytest.raises(RuntimeError) as err:
                run_sweep(spec, store=store, shards=2)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        message = str(err.value)
        assert repr(spec.name) in message
        assert spec.cells[0].label() in message  # the dead shard's cell
        assert str(store.root) in message
        assert "rerun" in message

        monkeypatch.undo()
        resumed = run_sweep(spec, store=store, shards=2)
        assert resumed.complete
        assert table1_rows(resumed) == table1_rows(run_sweep(spec, store=MemoryRunStore()))


class TestSchedulerValidation:
    def test_sharded_requires_disk_store(self):
        with pytest.raises(ValueError, match="RunStore"):
            SweepScheduler(tiny_spec(), store=MemoryRunStore(), shards=2)

    def test_sharded_requires_some_store(self):
        with pytest.raises(ValueError, match="RunStore"):
            SweepScheduler(tiny_spec(), shards=2)

    def test_bad_shards(self):
        with pytest.raises(ValueError):
            SweepScheduler(tiny_spec(), shards=0)

    def test_bad_max_cells(self):
        with pytest.raises(ValueError):
            SweepScheduler(tiny_spec(), max_cells=-1)


class TestContextMerging:
    def test_structural_context_addresses_different_cells(self, tmp_path):
        """A straggler-profile sweep must not collide with the ideal one."""
        store = RunStore(tmp_path / "store")
        ideal = run_sweep(tiny_spec(methods=("fedavg",), seeds=(0,)), store=store)
        straggler = run_sweep(
            tiny_spec(methods=("fedavg",), seeds=(0,)),
            store=store,
            context=ExecutionContext(system="straggler"),
        )
        assert ideal.computed == 1 and straggler.computed == 1  # no cross-hit
        assert straggler.reused == 0

    def test_execution_only_context_shares_cells(self, tmp_path):
        """``backend="serial"`` does not change results, so it hits the
        same store cells a plain sweep wrote."""
        store = RunStore(tmp_path / "store")
        run_sweep(tiny_spec(methods=("fedavg",), seeds=(0,)), store=store)
        spelled_out = run_sweep(
            tiny_spec(methods=("fedavg",), seeds=(0,)),
            store=store,
            context=ExecutionContext(backend="serial"),
        )
        assert spelled_out.computed == 0
        assert spelled_out.reused == 1


class TestSweepResult:
    def test_lookup_by_cell(self, tmp_path):
        spec = tiny_spec(methods=("fedavg",), seeds=(0,))
        results = run_sweep(spec, store=RunStore(tmp_path / "store"))
        assert results[spec.cells[0]].task_name == "mnist"
        assert results.get(spec.cells[0]) is not None

    def test_missing_cell_raises_keyerror(self, tmp_path):
        spec = tiny_spec(methods=("fedavg", "fedbiad"), seeds=(0,))
        partial = run_sweep(spec, store=RunStore(tmp_path / "store"), max_cells=1)
        with pytest.raises(KeyError):
            partial[spec.cells[1]]

    def test_rows_raise_on_incomplete_sweep(self, tmp_path):
        partial = run_sweep(tiny_spec(), store=RunStore(tmp_path / "store"), max_cells=1)
        with pytest.raises(LookupError):
            table1_rows(partial)


class TestTable1Satellites:
    """Table I row folding over stubbed cells (accuracy varies with the
    seed, so the std aggregation is observable)."""

    @pytest.fixture(autouse=True)
    def stub_executor(self, monkeypatch, make_result):
        def fake_execute_cell(spec, store):
            result = make_result(
                task=spec.task, method=spec.method, accs=(0.4, 0.5 + 0.1 * spec.seed)
            )
            store.put(spec, result)
            return result

        monkeypatch.setattr(sweep, "_execute_cell", fake_execute_cell)
        clear_cache()
        yield
        clear_cache()

    @staticmethod
    def _rows(seeds):
        spec = table1_spec(datasets=("mnist",), methods=("fedavg",), seeds=seeds)
        return table1_rows(run_sweep(spec))

    def test_empty_seeds_guarded(self):
        with pytest.raises(ValueError, match="seeds"):
            self._rows(seeds=())

    def test_multi_seed_std_is_sample_std(self):
        rows = self._rows(seeds=(0, 1))
        # stub accuracies: best acc 0.5 at seed 0, 0.6 at seed 1
        assert rows[0].accuracy_mean == pytest.approx(0.55)
        assert rows[0].accuracy_std == pytest.approx(np.std([0.5, 0.6], ddof=1))

    def test_single_seed_std_is_zero(self):
        rows = self._rows(seeds=(0,))
        assert rows[0].accuracy_std == 0.0


class TestFoldsReadTheirCells:
    """fig8_rows and ablation_rows take nothing but the finished sweep,
    whatever arguments built it (cell execution stubbed)."""

    @pytest.fixture(autouse=True)
    def stub_executor(self, monkeypatch, make_result):
        def fake_execute_cell(spec, store):
            rate = spec.overrides_dict().get("dropout_rate", 0.0)
            result = make_result(task=spec.task, method=spec.method, accs=(0.2, 1.0 - rate / 2))
            store.put(spec, result)
            return result

        monkeypatch.setattr(sweep, "_execute_cell", fake_execute_cell)

    def test_fig8_rows_of_a_non_default_sweep(self):
        spec = fig8_spec(dataset="ptb", methods=("fedavg", "fedbiad"), seed=2)
        rows = fig8_rows(run_sweep(spec, store=MemoryRunStore()))
        assert [(r.dropout_rate, r.method) for r in rows] == [
            (rate, method) for rate in FIG8_RATES for method in ("fedavg", "fedbiad")
        ]
        for row in rows:
            rate = 0.0 if row.method == "fedavg" else row.dropout_rate
            assert row.accuracy == pytest.approx(1.0 - rate / 2)  # above ptb's target
            assert (row.tta_seconds is not None) == (row.dropout_rate in FIG8B_RATES)

    def test_ablation_rows_of_a_non_default_sweep(self):
        spec = ablations_spec(dataset="mnist", seed=1, overrides={"rounds": 2})
        rows = ablation_rows(run_sweep(spec, store=MemoryRunStore()))
        assert [r.name for r in rows] == [label for label, _, _ in ABLATIONS]
        assert all(r.accuracy == pytest.approx(1.0) for r in rows)

    def test_folds_raise_on_incomplete_sweep(self):
        for spec, rows in ((fig8_spec(), fig8_rows), (ablations_spec(), ablation_rows)):
            partial = run_sweep(spec, store=MemoryRunStore(), max_cells=1)
            with pytest.raises(LookupError):
                rows(partial)
