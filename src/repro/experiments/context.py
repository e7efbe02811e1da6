"""Explicit execution context for experiment runs.

:class:`ExecutionContext` carries the *how* of a run — device profile,
server discipline — separately from the *what* (task, method, seed,
hyper-parameters).  There is no process-global default: the CLI builds
one context from its flags and hands it to the sweep scheduler (or
:func:`~repro.experiments.runner.run_experiment`), which folds it into
each cell once, before hashing — so two concurrent sweeps can run under
different device profiles in one process without stepping on each
other.

The split matters for caching: ``system``/``mode``/``buffer_size``
change the simulated trajectory and are therefore part of the
structural cell hash that keys the
:class:`~repro.experiments.store.RunStore`.  ``backend`` is kept only
for callers that spell the engine out; its one legal value,
``"serial"``, changes nothing and stays out of the hash.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from ..fl.config import check_backend

__all__ = ["ExecutionContext", "EXECUTION_ONLY_KEYS"]

#: Config keys that name *how* a run executes without changing its
#: result; excluded from the structural cell hash so a cell spelling out
#: ``backend="serial"`` hits the entry a plain run wrote, and vice versa.
EXECUTION_ONLY_KEYS = frozenset({"backend"})


@dataclass(frozen=True)
class ExecutionContext:
    """Execution choices for one or more runs; ``None`` defers to the
    cell (and then to :class:`~repro.fl.config.FLConfig` defaults).

    * ``backend`` — ``"serial"``, the only engine (:mod:`repro.fl.engine`);
    * ``system`` — device profile name (:mod:`repro.fl.systems`);
    * ``mode`` — ``"sync"`` or ``"async"`` server discipline;
    * ``buffer_size`` — async uploads per flush, ``0`` = cohort size.
    """

    backend: str | None = None
    system: str | None = None
    mode: str | None = None
    buffer_size: int | None = None

    def __post_init__(self) -> None:
        if self.backend is not None:
            check_backend(self.backend)

    def structural_overrides(self) -> dict[str, object]:
        """The set fields that change the simulated trajectory (and hence
        the cell hash) as ``FLConfig`` override kwargs: everything except
        :data:`EXECUTION_ONLY_KEYS`."""
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in EXECUTION_ONLY_KEYS and getattr(self, f.name) is not None
        }
