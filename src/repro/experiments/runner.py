"""Experiment runner: one cell in, one :class:`RunResult` out.

Several tables and figures reuse the same (task, method, config) runs —
Table I, Fig. 6 and Fig. 7 all consume the FedAvg/MNIST history, for
example — so :func:`run_experiment` memoizes through a run store keyed
by the structural cell hash of :class:`~repro.experiments.spec.ExperimentSpec`.
The default store is an in-process :class:`~repro.experiments.store.MemoryRunStore`;
pass a persistent :class:`~repro.experiments.store.RunStore` (as the
sweep scheduler does) to share results across processes and sessions.

Execution choices (system/mode/buffer_size) arrive as an explicit
:class:`~repro.experiments.context.ExecutionContext`.  Every run
executes serially in-process; a sweep parallelizes whole runs across
shard processes (:mod:`repro.experiments.sweep`).
"""

from __future__ import annotations

import numpy as np

from ..baselines.registry import METHOD_NAMES, make_method
from ..comm.timing import lttr_seconds
from ..compression.registry import make_sketched
from ..data.registry import make_task
from ..fl.client import FederatedMethod
from ..fl.config import FLConfig
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
    "run_experiment",
    "clear_cache",
    "dense_upload_bits",
]

_TASK_CACHE: dict[tuple, object] = {}

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
    if key not in _TASK_CACHE:
        _TASK_CACHE[key] = make_task(task_name, scale, seed)
    return _TASK_CACHE[key]


def dense_upload_bits(task) -> int:
    """Upload size of the dense (FedAvg) model for a task."""
    model = build_model(task.model_spec, np.random.default_rng(0))
    return dense_bits(ParamSet.from_module(model))


def run_experiment(
    task_name: str,
    method_spec: str,
    scale: str | None = None,
    seed: int = 0,
    config_overrides: dict | None = None,
    method_kwargs: dict | None = None,
    use_cache: bool = True,
    context: ExecutionContext | None = None,
    store: MemoryRunStore | RunStore | None = None,
) -> RunResult:
    """Run (or fetch from ``store``) one federated simulation.

    Precedence for execution/config choices, lowest to highest: the
    preset's ``FLConfig``, ``context``, then ``config_overrides``.

    The cache key is the *structural* cell hash: ``backend`` never
    misses the cache (``"serial"`` is its only value), while anything
    that changes the simulated trajectory (seed, scale, any other
    override, ``method_kwargs``) does.
    """
    preset = preset_for(task_name, scale)
    overrides = (context or ExecutionContext()).overrides()
    overrides.update(config_overrides or {})
    fl: FLConfig = preset.fl.with_overrides(seed=seed, **overrides)
    spec = ExperimentSpec.make(
        task_name, method_spec, scale=preset.scale, seed=seed,
        overrides=overrides, method_kwargs=method_kwargs,
    )
    store = store if store is not None else _DEFAULT_STORE
    if use_cache:
        cached = store.get(spec)
        if cached is not None:
            return cached

    task = cached_task(task_name, preset.scale, preset.data_seed)
    method = resolve_method(method_spec, preset, **(method_kwargs or {}))
    history = run_simulation(task, method, fl)
    result = RunResult(
        task_name=task_name,
        method_spec=method_spec,
        history=history,
        final_accuracy=history.final_accuracy,
        best_accuracy=history.best_accuracy,
        upload_bits=history.mean_upload_bits(),
        dense_bits=dense_upload_bits(task),
        lttr=lttr_seconds(history),
        sim_seconds=history.total_sim_seconds,
        participation=float(history.participation().mean()) if len(history) else 1.0,
    )
    if use_cache:
        store.put(spec, result)
    return result


def clear_cache() -> None:
    """Drop all memoized runs and tasks (used between test sessions)."""
    _DEFAULT_STORE.clear()
    _TASK_CACHE.clear()
