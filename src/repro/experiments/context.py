"""Explicit execution context for experiment runs.

:class:`ExecutionContext` carries the *how* of a run — execution
backend, pool size, device profile, server discipline — separately from
the *what* (task, method, seed, hyper-parameters).  There is no
process-global default: the
CLI builds one context from its flags and threads it explicitly through
:func:`~repro.experiments.runner.run_experiment` and the sweep
scheduler, so two concurrent sweeps can run under different backends in
one process without stepping on each other.

The split matters for caching: ``backend``/``workers`` change only
*where* the arithmetic happens (the engine guarantees bit-identical
histories across backends and worker counts — see
:mod:`repro.fl.engine`), so they are excluded from the structural cell
hash that keys the :class:`~repro.experiments.store.RunStore`.
``system``/``mode``/``buffer_size`` change the simulated trajectory and
are therefore part of it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

__all__ = ["ExecutionContext", "EXECUTION_ONLY_KEYS"]

#: Config keys that select *where* a run executes without changing its
#: result (the engine is bit-identical across them); excluded from the
#: structural cell hash so a process-pool sweep hits the cache entries
#: a serial run wrote, and vice versa.
EXECUTION_ONLY_KEYS = frozenset({"backend", "workers"})


@dataclass(frozen=True)
class ExecutionContext:
    """Execution choices for one or more runs; ``None`` defers to
    :class:`~repro.fl.config.FLConfig` defaults (or to per-run
    ``config_overrides``, which take precedence over the context).

    * ``backend`` — ``"serial"`` or ``"process"`` (:mod:`repro.fl.engine`);
    * ``workers`` — process-pool size, ``0`` = all cores;
    * ``system`` — device profile name (:mod:`repro.fl.systems`);
    * ``mode`` — ``"sync"`` or ``"async"`` server discipline;
    * ``buffer_size`` — async uploads per flush, ``0`` = cohort size.
    """

    backend: str | None = None
    workers: int | None = None
    system: str | None = None
    mode: str | None = None
    buffer_size: int | None = None

    def overrides(self) -> dict[str, object]:
        """The context as ``FLConfig`` override kwargs (set fields only)."""
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if getattr(self, f.name) is not None
        }

    def structural_overrides(self) -> dict[str, object]:
        """Overrides that change the simulated trajectory (and hence the
        cell hash): everything except :data:`EXECUTION_ONLY_KEYS`."""
        return {k: v for k, v in self.overrides().items() if k not in EXECUTION_ONLY_KEYS}

    def with_serial_backend(self) -> "ExecutionContext":
        """This context forced onto the serial engine backend.

        Sweep shard workers are daemonic pool processes and cannot spawn
        their own ``ProcessPoolBackend`` children; results are identical
        either way, so the scheduler downgrades worker contexts with
        this instead of failing.
        """
        return replace(self, backend="serial", workers=None)
