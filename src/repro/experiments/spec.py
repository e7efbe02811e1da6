"""Declarative experiment cells and sweep grids.

An :class:`ExperimentSpec` names one simulation run structurally —
task, method, scale, seed, hyper-parameter overrides, method kwargs —
and hashes to a content-addressed cell key that is stable across
processes and hosts.  A :class:`SweepSpec` is an ordered tuple of such
cells, usually expanded from a (task x method x seed) grid; every paper
artifact (Table I/II, Fig. 2/6/7/8, the ablation bench) is one
``SweepSpec`` plus a row-formatting function over the finished cells.

Two properties the rest of the stack leans on:

* **Determinism** — :meth:`SweepSpec.grid` expands in a fixed order
  (task-major, then method, then seed), so sharding the cell list and
  re-gathering by hash reproduces the serial row order bit-for-bit.
* **Structural hashing** — the cell hash covers everything that changes
  the simulated trajectory and *nothing* that does not: ``backend``
  (see :data:`~repro.experiments.context.EXECUTION_ONLY_KEYS`) is
  stripped, and the shard count of the sweep that ran a cell never
  enters it, so sweeps at any ``--shards`` share cache entries.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .configs import active_scale
from .context import EXECUTION_ONLY_KEYS

__all__ = ["ExperimentSpec", "SweepSpec", "SPEC_FORMAT_VERSION"]

#: Bumped whenever the hash inputs or the stored payload layout change,
#: or the numerics of a stored column change; part of every cell hash so
#: stale stores miss instead of misloading.
SPEC_FORMAT_VERSION = 7


def _canonical(value):
    """Canonicalize one override/kwarg value: sequences become tuples,
    numpy scalars downcast to their Python equivalents, other scalars
    pass through.  Nested mappings are rejected — they could be hashed,
    but ``overrides_dict()``/``method_kwargs_dict()`` must hand the
    runner back exactly what the caller supplied, and a dict frozen to
    sorted item tuples would come back as the wrong type."""
    if isinstance(value, dict):
        raise TypeError(
            "nested mappings are not spec-able (they would not round-trip "
            "through overrides_dict); flatten the value into scalar keys"
        )
    if isinstance(value, (list, tuple)):
        return tuple(_canonical(v) for v in value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise TypeError(f"not a spec-able value: {value!r} ({type(value).__name__})")


def _freeze_mapping(mapping: dict | None, *, drop: frozenset = frozenset()) -> tuple:
    mapping = mapping or {}
    return tuple(
        sorted((str(k), _canonical(v)) for k, v in mapping.items() if k not in drop)
    )


@dataclass(frozen=True)
class ExperimentSpec:
    """One content-addressed experiment cell.

    Construct through :meth:`make`, which resolves the scale, strips
    execution-only keys and canonicalizes the mappings; the raw
    constructor expects already-frozen tuples.
    """

    task: str
    method: str
    scale: str
    seed: int = 0
    overrides: tuple = ()
    method_kwargs: tuple = ()

    @classmethod
    def make(
        cls,
        task: str,
        method: str,
        scale: str | None = None,
        seed: int = 0,
        overrides: dict | None = None,
        method_kwargs: dict | None = None,
    ) -> "ExperimentSpec":
        return cls(
            task=str(task),
            method=str(method),
            scale=scale or active_scale(),
            seed=int(seed),
            overrides=_freeze_mapping(overrides, drop=EXECUTION_ONLY_KEYS),
            method_kwargs=_freeze_mapping(method_kwargs),
        )

    def overrides_dict(self) -> dict:
        return {k: v for k, v in self.overrides}

    def method_kwargs_dict(self) -> dict:
        return {k: v for k, v in self.method_kwargs}

    def merged(self, defaults: dict | None) -> "ExperimentSpec":
        """This cell with ``defaults`` filled in *under* its own
        overrides (the cell wins on conflicts) — how a sweep-wide
        :class:`~repro.experiments.context.ExecutionContext` folds into
        each cell before hashing."""
        if not defaults:
            return self
        merged = dict(defaults)
        merged.update(self.overrides_dict())
        return ExperimentSpec.make(
            self.task, self.method, scale=self.scale, seed=self.seed,
            overrides=merged, method_kwargs=self.method_kwargs_dict(),
        )

    def key_payload(self) -> dict:
        """The JSON-stable structural identity hashed into the cell key."""
        return {
            "format": SPEC_FORMAT_VERSION,
            "task": self.task,
            "method": self.method,
            "scale": self.scale,
            "seed": self.seed,
            "overrides": [list(item) for item in self.overrides],
            "method_kwargs": [list(item) for item in self.method_kwargs],
        }

    def cell_hash(self) -> str:
        """Content hash of the structural identity (hex sha256)."""
        blob = json.dumps(self.key_payload(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def label(self) -> str:
        """Short human-readable cell name for logs and errors."""
        parts = [self.task, self.method, f"seed{self.seed}", self.scale]
        if self.overrides:
            parts.append(",".join(f"{k}={v}" for k, v in self.overrides))
        if self.method_kwargs:
            parts.append(",".join(f"{k}={v}" for k, v in self.method_kwargs))
        return "/".join(parts)


@dataclass(frozen=True)
class SweepSpec:
    """An ordered, deduplicated tuple of experiment cells."""

    cells: tuple[ExperimentSpec, ...]
    name: str = "sweep"

    @classmethod
    def from_cells(cls, name: str, cells) -> "SweepSpec":
        """Wrap an iterable of cells, dropping structural duplicates
        (keeping first occurrence — e.g. Fig. 8's FedAvg rows share one
        cell across dropout rates)."""
        seen: set[str] = set()
        unique: list[ExperimentSpec] = []
        for cell in cells:
            key = cell.cell_hash()
            if key not in seen:
                seen.add(key)
                unique.append(cell)
        return cls(cells=tuple(unique), name=name)

    @classmethod
    def grid(
        cls,
        name: str,
        tasks,
        methods,
        seeds=(0,),
        scale: str | None = None,
        overrides: dict | None = None,
        method_kwargs: dict | None = None,
    ) -> "SweepSpec":
        """Expand a (task x method x seed) grid, task-major then method
        then seed — the row order of every paper table."""
        tasks, methods, seeds = tuple(tasks), tuple(methods), tuple(seeds)
        if not seeds:
            raise ValueError("seeds must be non-empty")
        if not tasks or not methods:
            raise ValueError("tasks and methods must be non-empty")
        cells = [
            ExperimentSpec.make(
                task, method, scale=scale, seed=seed,
                overrides=overrides, method_kwargs=method_kwargs,
            )
            for task in tasks
            for method in methods
            for seed in seeds
        ]
        return cls.from_cells(name, cells)

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self):
        return iter(self.cells)
