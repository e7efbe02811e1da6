"""Experiment runner: one cell in, one :class:`RunResult` out.

:func:`run_cell` is the only code that turns an
:class:`~repro.experiments.spec.ExperimentSpec` into a result; the sweep
scheduler (:mod:`repro.experiments.sweep`) runs every cell through it.

Several tables and figures reuse the same (task, method, config) runs —
Table I, Fig. 6 and Fig. 7 all consume the FedAvg/MNIST history, for
example — so :func:`run_experiment` memoizes through a run store keyed
by the structural cell hash.  The default store is an in-process
:class:`~repro.experiments.store.MemoryRunStore`; pass a persistent
:class:`~repro.experiments.store.RunStore` to share results across
processes and sessions.

Every run executes serially in-process; a sweep parallelizes whole runs
across shard processes.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from ..baselines.registry import METHOD_NAMES, make_method
from ..compression.registry import make_sketched
from ..data.registry import make_task
from ..fl.client import FederatedMethod
from ..fl.parameters import ParamSet
from ..fl.simulation import run_simulation
from ..fl.sizing import dense_bits
from ..nn.models import build_model
from .configs import ExperimentPreset, preset_for
from .context import ExecutionContext
from .results import RunResult
from .spec import ExperimentSpec
from .store import MemoryRunStore, RunStore

__all__ = [
    "RunResult",
    "resolve_method",
    "run_cell",
    "run_experiment",
    "clear_cache",
    "dense_upload_bits",
]

#: Tasks kept by :func:`cached_task`, least recently used first.  Two,
#: because fig7-traced-sweep builds mnist and fmnist during set-up and
#: then runs their cells; an unbounded cache would hold all five tasks
#: of a paper-scale inline sweep.
TASK_CACHE_SIZE = 2
_TASK_CACHE: OrderedDict[tuple, object] = OrderedDict()

#: The in-process memo every :func:`run_experiment` call without an
#: explicit ``store`` shares (the old module-global ``_CACHE``).
_DEFAULT_STORE = MemoryRunStore()


def resolve_method(spec: str, preset: ExperimentPreset | None = None, **kwargs) -> FederatedMethod:
    """Build a method from a registry spec.

    Plain names ("fedavg", "fedbiad", ...) come from the baseline
    registry; compressor names and "base+compressor" specs come from the
    compression registry with the preset's sparsifier keep-fraction.
    """
    if spec in METHOD_NAMES:
        return make_method(spec, **kwargs)
    comp_kwargs = {}
    comp_name = spec.split("+", 1)[-1]
    if preset is not None and comp_name in ("dgc", "stc"):
        comp_kwargs["keep_fraction"] = preset.sparsifier_keep
    return make_sketched(spec, compressor_kwargs=comp_kwargs, **kwargs)


def cached_task(task_name: str, scale: str, seed: int):
    key = (task_name, scale, seed)
    if key in _TASK_CACHE:
        _TASK_CACHE.move_to_end(key)
    else:
        _TASK_CACHE[key] = make_task(task_name, scale, seed)
        if len(_TASK_CACHE) > TASK_CACHE_SIZE:
            _TASK_CACHE.popitem(last=False)
    return _TASK_CACHE[key]


def dense_upload_bits(task) -> int:
    """Upload size of the dense (FedAvg) model for a task."""
    model = build_model(task.model_spec, np.random.default_rng(0))
    return dense_bits(ParamSet.from_module(model))


def run_cell(spec: ExperimentSpec) -> RunResult:
    """Simulate one cell."""
    preset = preset_for(spec.task, spec.scale)
    config = preset.fl.with_overrides(seed=spec.seed, **spec.overrides_dict())
    task = cached_task(spec.task, preset.scale, preset.data_seed)
    method = resolve_method(spec.method, preset, **spec.method_kwargs_dict())
    history = run_simulation(task, method, config)
    return RunResult(
        task_name=spec.task,
        method_spec=spec.method,
        history=history,
        dense_bits=dense_upload_bits(task),
    )


def run_experiment(
    task_name: str,
    method_spec: str,
    scale: str | None = None,
    seed: int = 0,
    config_overrides: dict | None = None,
    method_kwargs: dict | None = None,
    context: ExecutionContext | None = None,
    store: MemoryRunStore | RunStore | None = None,
) -> RunResult:
    """Fetch one cell from ``store``, or run it with :func:`run_cell`
    and store it.

    ``context`` fills in the execution fields ``config_overrides``
    leaves unset, before the cell is hashed, exactly as a sweep does;
    ``backend`` never reaches the hash (``"serial"`` is its only value).
    """
    spec = ExperimentSpec.make(
        task_name, method_spec, scale=scale, seed=seed,
        overrides=config_overrides, method_kwargs=method_kwargs,
    ).merged((context or ExecutionContext()).structural_overrides())
    store = store if store is not None else _DEFAULT_STORE
    result = store.get(spec)
    if result is None:
        result = run_cell(spec)
        store.put(spec, result)
    return result


def clear_cache() -> None:
    """Drop all memoized runs and tasks (used between test sessions)."""
    _DEFAULT_STORE.clear()
    _TASK_CACHE.clear()
