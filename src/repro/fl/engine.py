"""Pluggable execution backends for the federated round loop.

The server orchestration (:mod:`repro.fl.simulation`) no longer runs
client updates inline; it hands the selected cohort to an
:class:`ExecutionBackend`:

* :class:`SerialBackend` — runs clients one after another in-process,
  reproducing the historical behaviour bit-for-bit;
* :class:`ProcessPoolBackend` — fans clients out over a
  ``multiprocessing`` pool.  Because every client draws from its own
  seeded RNG stream (``default_rng([seed, round, client])``) and the
  results are re-ordered to selection order, the produced
  :class:`~repro.fl.metrics.History` is identical to the serial one
  regardless of worker count — only wall-clock fields differ.

Both backends funnel through :func:`execute_client`, the single
definition of "run one client's round", so numerical equivalence is by
construction rather than by convention.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
from dataclasses import dataclass

import numpy as np

from ..nn.models import build_model
from .client import ClientContext, ClientUpdate, FederatedMethod
from .config import FLConfig
from .parameters import ParamSet

__all__ = [
    "ClientResult",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "BACKEND_NAMES",
    "make_backend",
    "execute_client",
]


@dataclass
class ClientResult:
    """One client's round output plus its measured local wall-clock."""

    client_id: int
    update: ClientUpdate
    state: dict  # the client's persistent state after this round
    lttr_seconds: float  # measured local-training wall-clock (LTTR)


def execute_client(
    task,
    method: FederatedMethod,
    model,
    config: FLConfig,
    global_params: ParamSet,
    round_index: int,
    client_id: int,
    state: dict,
    payload=None,
) -> ClientResult:
    """Run one client's local round — shared by every backend.

    The RNG stream is derived from ``(seed, round, client)`` alone, so
    the result does not depend on which process or in what order the
    client runs.

    ``payload`` optionally carries the client's already-materialized
    data (pool workers receive the cohort's payloads from the parent
    instead of re-deriving them); the batcher over a shipped payload is
    identical to one built through ``task.batcher`` because lazy
    sources are pure functions of ``(data seed, client)``.

    A local update whose mean training loss is not finite raises
    ``FloatingPointError`` naming the round, the client and the method,
    instead of folding NaN into the global model.
    """
    client_id = int(client_id)
    rng = np.random.default_rng([config.seed, round_index, client_id])
    if payload is not None:
        batcher = task.batcher_from_payload(payload, config.batch_size, rng)
    else:
        batcher = task.batcher(client_id, config.batch_size, rng)
    ctx = ClientContext(
        client_id=client_id,
        round_index=round_index,
        global_params=global_params,
        model=model,
        batcher=batcher,
        config=config,
        rng=rng,
        state=state,
    )
    start = time.perf_counter()
    update = method.client_update(ctx)
    lttr = time.perf_counter() - start
    if not np.isfinite(update.mean_loss):
        raise FloatingPointError(
            f"round {round_index}, client {client_id}: {method.name} local "
            f"update diverged (mean training loss {update.mean_loss})"
        )
    return ClientResult(client_id=client_id, update=update, state=state, lttr_seconds=lttr)


class ExecutionBackend:
    """Strategy interface: how one round's client cohort is executed.

    Implementations must return one :class:`ClientResult` per selected
    client, *in selection order* (aggregation is order-sensitive only
    through floating-point summation, but keeping the order fixed makes
    backends interchangeable bit-for-bit).
    """

    name = "base"

    def run_clients(
        self,
        task,
        method: FederatedMethod,
        model,
        config: FLConfig,
        global_params: ParamSet,
        round_index: int,
        selected: np.ndarray,
        states: dict[int, dict],
    ) -> list[ClientResult]:
        raise NotImplementedError

    def close(self) -> None:
        """Release any held resources (worker pools); idempotent."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SerialBackend(ExecutionBackend):
    """Run the cohort sequentially in the calling process."""

    name = "serial"

    def run_clients(
        self, task, method, model, config, global_params, round_index, selected, states
    ) -> list[ClientResult]:
        return [
            execute_client(
                task, method, model, config, global_params,
                round_index, int(cid), states[int(cid)],
            )
            for cid in selected
        ]


# ----------------------------------------------------------------------
# process-pool backend
# ----------------------------------------------------------------------

# Per-worker cache: the task (the big payload — client shards and the
# test set) and a model instance are shipped once at pool start instead
# of once per client job.
_WORKER_STATE: dict = {}

#: Stands in for ``method.task`` inside pickled method blobs; workers
#: swap their cached task back in.  Methods referencing the task would
#: otherwise drag the full dataset into every job tuple.
_TASK_PLACEHOLDER = "__task_lives_in_worker_state__"


def _swap_task_refs(method, old, new) -> None:
    """Replace ``old`` with ``new`` wherever a method (or a wrapped
    method, e.g. ``CombinedMethod.base``) holds it as an attribute."""
    stack, seen = [method], set()
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        attrs = getattr(obj, "__dict__", None)
        if not attrs:
            continue
        for name, value in attrs.items():
            if value is old:
                attrs[name] = new
            elif isinstance(value, FederatedMethod):
                stack.append(value)


def _dump_round_blob(method, task, global_params) -> bytes:
    """Pickle the round's shared payload (method + global parameters)
    once, with the method's (large) task references masked out."""
    _swap_task_refs(method, task, _TASK_PLACEHOLDER)
    try:
        return pickle.dumps((method, global_params), protocol=pickle.HIGHEST_PROTOCOL)
    finally:
        _swap_task_refs(method, _TASK_PLACEHOLDER, task)


def _worker_init(task, model_spec: dict, seed: int) -> None:  # pragma: no cover - subprocess
    _WORKER_STATE["task"] = task
    _WORKER_STATE["model"] = build_model(model_spec, np.random.default_rng([seed, 0xBEEF]))


def _worker_run(
    round_blob, round_key, config, round_index, client_id, state, payload=None
):  # pragma: no cover - subprocess
    # The round's shared payload (task-stripped method + global params)
    # is serialized once per round in the parent and deserialized at
    # most once per round per worker.  The raw bytes still travel in
    # every job tuple (Pool offers no per-worker broadcast), but bytes
    # re-pickle as a memcpy, so the per-job cost is transfer only.
    if _WORKER_STATE.get("round_key") != round_key:
        method, global_params = pickle.loads(round_blob)
        _swap_task_refs(method, _TASK_PLACEHOLDER, _WORKER_STATE["task"])
        _WORKER_STATE["method"] = method
        _WORKER_STATE["global_params"] = global_params
        _WORKER_STATE["round_key"] = round_key
    return execute_client(
        _WORKER_STATE["task"],
        _WORKER_STATE["method"],
        _WORKER_STATE["model"],
        config,
        _WORKER_STATE["global_params"],
        round_index,
        client_id,
        state,
        payload=payload,
    )


class ProcessPoolBackend(ExecutionBackend):
    """Fan client updates out over a ``multiprocessing`` pool.

    The pool is created lazily on the first round (workers are
    initialized with the task and a fresh model replica) and reused for
    the rest of the simulation.  Each round ships one shared blob
    (task-stripped method + global parameters) plus per-client states;
    since methods only mutate *server-side* state inside ``aggregate``
    (which still runs in the parent), shipping a snapshot per round is
    sound.

    Parameters
    ----------
    workers:
        Pool size; ``0``/``None`` means ``os.cpu_count()``.
    start_method:
        ``multiprocessing`` start method; default prefers ``fork``
        (cheap on Linux) and falls back to ``spawn``.
    """

    name = "process"

    def __init__(self, workers: int | None = None, start_method: str | None = None) -> None:
        self.workers = int(workers) if workers else (os.cpu_count() or 1)
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self.start_method = start_method
        self._pool = None
        self._pool_key: tuple | None = None
        self._pool_task = None
        self._round_serial = 0

    def _ensure_pool(self, task, config: FLConfig):
        # the held task reference keeps id() stable for the key's lifetime
        key = (id(task), config.seed)
        if self._pool is not None and self._pool_key == key and self._pool_task is task:
            return self._pool
        self.close()
        ctx = multiprocessing.get_context(self.start_method)
        self._pool = ctx.Pool(
            processes=self.workers,
            initializer=_worker_init,
            initargs=(task, task.model_spec, config.seed),
        )
        self._pool_key = key
        self._pool_task = task
        return self._pool

    def run_clients(
        self, task, method, model, config, global_params, round_index, selected, states
    ) -> list[ClientResult]:
        pool = self._ensure_pool(task, config)
        round_blob = _dump_round_blob(method, task, global_params)
        self._round_serial += 1
        round_key = (id(self), self._round_serial)
        # Generated sources (fleet-scale shards) ship only the
        # *cohort's* payloads, materialized once in the parent, so each
        # worker pays O(shard) transfer instead of regenerating them.
        # Array-backed sources already live whole in every worker and
        # slice locally; their jobs ship no payload.
        ship = bool(getattr(task, "ships_cohort_payloads", False))
        jobs = [
            (
                round_blob, round_key, config, round_index, int(cid),
                states[int(cid)],
                task.client_payload(int(cid)) if ship else None,
            )
            for cid in selected
        ]
        # starmap preserves job order, so results come back in selection
        # order no matter which worker finished first.
        return pool.starmap(_worker_run, jobs)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
            self._pool_key = None
            self._pool_task = None


BACKEND_NAMES = ("serial", "process")


def make_backend(name: str, workers: int | None = None) -> ExecutionBackend:
    """Build a backend from its registry name (``FLConfig.backend``)."""
    if name == "serial":
        return SerialBackend()
    if name == "process":
        return ProcessPoolBackend(workers=workers)
    raise ValueError(f"unknown backend {name!r}; choose from {BACKEND_NAMES}")
