"""Sharded, resumable scheduling of experiment sweeps.

A :class:`SweepScheduler` takes a
:class:`~repro.experiments.spec.SweepSpec`, folds the sweep-wide
:class:`~repro.experiments.context.ExecutionContext` into each cell,
skips cells the :class:`~repro.experiments.store.RunStore` already
holds, and executes the remainder — inline for ``shards=1``, or split
round-robin across shard worker processes.  Sharding is the one layer
of parallelism in the stack: cells are independent runs, so shards
exchange nothing per round.  Every cell runs through
:func:`~repro.experiments.runner.run_cell` and is persisted to the
store as soon as it finishes (a shard worker writes to the shared
on-disk store); the parent then gathers results *in grid order* by
cell hash.  A shard worker that
dies (killed, out of memory) fails the sweep with a ``RuntimeError``
naming the broken shard's cells instead of hanging; every cell that
finished stays in the store for the rerun.

Because every cell is a pure function of its spec (RNG streams are
keyed by ``(seed, round[, client])``; see :mod:`repro.fl.simulation`),
a sweep's learning-trajectory outputs are bit-identical at any shard
count, and a killed sweep resumes by recomputing exactly the cells the
store is missing.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field

from .context import ExecutionContext
from .results import RunResult
from .runner import _DEFAULT_STORE, run_cell
from .spec import ExperimentSpec, SweepSpec
from .store import MemoryRunStore, RunStore

__all__ = ["SweepResult", "SweepScheduler", "run_sweep"]


@dataclass
class SweepResult:
    """Finished (or partially finished) sweep: results by cell, in the
    sweep's deterministic grid order, plus scheduling counters.

    ``computed`` counts cells executed by this scheduler run;
    ``reused`` counts cells the store already held.  A budget-limited
    or interrupted sweep is ``not complete`` — re-running the same
    sweep against the same store picks up only the missing cells.
    """

    cells: tuple[ExperimentSpec, ...]
    results: dict[str, RunResult] = field(default_factory=dict)
    computed: int = 0
    reused: int = 0

    @property
    def complete(self) -> bool:
        return self.pending == 0

    @property
    def pending(self) -> int:
        """Cells of the sweep with no stored result yet."""
        return sum(1 for c in self.cells if c.cell_hash() not in self.results)

    def get(self, spec: ExperimentSpec) -> RunResult | None:
        return self.results.get(spec.cell_hash())

    def __getitem__(self, spec: ExperimentSpec) -> RunResult:
        result = self.get(spec)
        if result is None:
            raise KeyError(f"no result for cell {spec.label()}")
        return result

    def __iter__(self):
        """Yield ``(cell, result-or-None)`` in grid order."""
        for cell in self.cells:
            yield cell, self.get(cell)

    def __len__(self) -> int:
        return len(self.cells)


def _execute_cell(spec: ExperimentSpec, store) -> RunResult:
    """Run one (context-merged) cell and persist it to ``store``."""
    result = run_cell(spec)
    store.put(spec, result)
    return result


def _shard_worker(cells, store_root) -> None:  # pragma: no cover - subprocess
    """Run one shard's cells serially against the shared disk store."""
    store = RunStore(store_root)
    for spec in cells:
        _execute_cell(spec, store)


class SweepScheduler:
    """Plan and execute one sweep against a run store.

    Parameters
    ----------
    sweep:
        A :class:`SweepSpec` (or any iterable of cells).
    store:
        Where finished cells live.  Defaults to the runner's in-process
        :class:`MemoryRunStore`; sharded sweeps (``shards > 1``) need a
        persistent :class:`RunStore` the worker processes can share.
    context:
        Sweep-wide execution defaults; its structural fields
        (``system``, ``mode``, ``buffer_size``) fill in every cell once,
        *before* hashing, so a ``--mode async`` sweep addresses
        different store cells than a sync one.
    shards:
        Worker processes the pending cells are split across (round-
        robin, preserving per-shard grid order).  ``1`` runs inline.
    max_cells:
        Budget: stop after computing this many cells, leaving the rest
        pending (smoke tests and the CI interrupt/resume assertion use
        this as a deterministic stand-in for a mid-sweep kill).
    reuse:
        When ``False``, recompute (and overwrite) every cell even if
        the store already holds it.
    """

    def __init__(
        self,
        sweep: SweepSpec,
        store: MemoryRunStore | RunStore | None = None,
        context: ExecutionContext | None = None,
        shards: int = 1,
        max_cells: int | None = None,
        reuse: bool = True,
    ) -> None:
        if not isinstance(sweep, SweepSpec):
            sweep = SweepSpec.from_cells("sweep", sweep)
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if max_cells is not None and max_cells < 0:
            raise ValueError("max_cells must be >= 0")
        if shards > 1 and not isinstance(store, RunStore):
            raise ValueError(
                "sharded sweeps need a persistent RunStore the worker "
                "processes can share (pass store=RunStore(path))"
            )
        self.sweep = sweep
        self.store = store
        self.context = context
        self.shards = shards
        self.max_cells = max_cells
        self.reuse = reuse

    def run(self, progress: bool = False) -> SweepResult:
        store = self.store if self.store is not None else _DEFAULT_STORE
        defaults = (self.context or ExecutionContext()).structural_overrides()
        base = self.sweep.cells
        effective = [cell.merged(defaults) for cell in base]

        # loaded: index -> result, filled by the planning pass and by
        # inline execution so no cell is parsed from disk twice.  With
        # reuse=False the store is never consulted: cells the budget cut
        # before recomputation stay pending rather than being backfilled
        # with the stale entries --no-resume promised to replace.
        loaded: dict[int, RunResult] = {}
        if self.reuse:
            for i, cell in enumerate(effective):
                result = store.get(cell)
                if result is not None:
                    loaded[i] = result
        pending = [i for i in range(len(effective)) if i not in loaded]
        reused = len(effective) - len(pending)
        to_run = pending if self.max_cells is None else pending[: self.max_cells]

        if progress and to_run:
            print(
                f"sweep {self.sweep.name}: {len(base)} cells, "
                f"{reused} cached, running {len(to_run)} on {self.shards} shard(s)"
            )
        if self.shards <= 1 or len(to_run) <= 1:
            for n, i in enumerate(to_run, 1):
                if progress:
                    print(f"  [{n}/{len(to_run)}] {effective[i].label()}")
                loaded[i] = _execute_cell(effective[i], store)
        else:
            self._run_sharded(effective, to_run, store)
            for i in to_run:  # shard workers persisted to the shared store
                result = store.get(effective[i])
                if result is not None:
                    loaded[i] = result

        results = {base[i].cell_hash(): result for i, result in loaded.items()}
        return SweepResult(cells=base, results=results, computed=len(to_run), reused=reused)

    def _run_sharded(self, effective, to_run, store: RunStore) -> None:
        # imported here: the executor machinery costs ~1 MB of RSS that
        # inline sweeps and single runs never need
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        # Round-robin keeps early grid cells spread across shards, so a
        # budget cut or kill leaves a prefix-dense store in every shard.
        shard_lists = [
            [effective[i] for i in to_run[k :: self.shards]] for k in range(self.shards)
        ]
        shard_lists = [cells for cells in shard_lists if cells]
        # Prefer fork (cheap page-sharing of the loaded tasks on Linux).
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
        unfinished = []
        # Unlike Pool.starmap, which replaces a dead worker and waits
        # forever for its result, the executor breaks every pending
        # future when a worker process dies.
        with ProcessPoolExecutor(max_workers=len(shard_lists), mp_context=ctx) as pool:
            futures = [
                pool.submit(_shard_worker, tuple(cells), str(store.root))
                for cells in shard_lists
            ]
            for cells, future in zip(shard_lists, futures):
                try:
                    future.result()
                except BrokenProcessPool:
                    unfinished += [cell.label() for cell in cells]
        if unfinished:
            raise RuntimeError(
                f"sweep {self.sweep.name!r}: a shard worker process died "
                f"before its shard finished; cells of the broken shard(s): "
                f"{'; '.join(unfinished)}.  Finished cells are in the store "
                f"at {store.root}; rerun the sweep to resume from the store"
            )


def run_sweep(
    sweep: SweepSpec,
    store: MemoryRunStore | RunStore | None = None,
    context: ExecutionContext | None = None,
    shards: int = 1,
    max_cells: int | None = None,
    reuse: bool = True,
    progress: bool = False,
) -> SweepResult:
    """Construct a :class:`SweepScheduler` and run it (the one-liner
    every table/figure module and the CLI use)."""
    scheduler = SweepScheduler(
        sweep, store=store, context=context, shards=shards,
        max_cells=max_cells, reuse=reuse,
    )
    return scheduler.run(progress=progress)
