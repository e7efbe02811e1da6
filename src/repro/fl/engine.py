"""A cohort's local rounds: the execution engine of the round loop.

The server orchestration (:mod:`repro.fl.simulation`) hands each sync
cohort and each async wave to :func:`execute_client` in one call, which
builds one :class:`~repro.fl.client.ClientContext` per client and runs
them all through the method's
:meth:`~repro.fl.client.FederatedMethod.cohort_update` hook.  Every
client draws from its own ``(seed, round, client)`` stream, the
``"engine"`` purpose of :mod:`repro.streams`, so a client's update does
not depend on which clients ran before it or trained beside it in a
stack.

Runs are parallelized one level up: a sweep spreads whole, independent
runs across processes (``sweep --shards N``, see
:mod:`repro.experiments.sweep`), with no per-round IPC.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..streams import streams
from .client import ClientContext, ClientUpdate, FederatedMethod
from .config import FLConfig
from .parameters import ParamSet

__all__ = ["ClientResult", "execute_client"]


@dataclass
class ClientResult:
    """One client's round output plus its measured local wall-clock."""

    client_id: int
    update: ClientUpdate
    #: measured local-training wall-clock (LTTR): the client's share of
    #: its cohort_update call, i.e. that call's wall-clock / its clients.
    #: Host-measured and reported only; never a learning column.
    lttr_seconds: float


def execute_client(
    task,
    method: FederatedMethod,
    model,
    config: FLConfig,
    global_params: ParamSet,
    round_index: int,
    client_ids,
    states: list[dict],
) -> list[ClientResult]:
    """Run a cohort's (or async wave's) local rounds, in the order given.

    ``states[i]`` is client ``client_ids[i]``'s persistent state; the
    method updates it in place.  Each client's RNG stream is derived
    from ``(seed, round, client)`` alone, so a result does not depend on
    the order the cohort runs in or on how the method groups it.  The
    cohort's streams are built in one pass
    (:func:`repro.streams.streams`), and the task's data source is told
    the cohort before any shard is read
    (:meth:`~repro.data.registry.ClientDataSource.prepare_cohort`).

    Keep the name and the module-level lookup: the benchmark's tracer
    (``perfbench/tracing.py``) wraps ``repro.fl.engine.execute_client``
    by name, and the round loop looks it up on the module at call time.

    A local update whose mean training loss is not finite raises
    ``FloatingPointError`` naming the round, the first such client in
    the order given, and the method, instead of folding NaN into the
    global model.
    """
    client_ids = [int(cid) for cid in client_ids]
    rngs = streams("engine", config.seed, round_index, ids=client_ids)
    task.client_data.prepare_cohort(client_ids)
    ctxs = [
        ClientContext(
            client_id=cid,
            round_index=round_index,
            global_params=global_params,
            model=model,
            task=task,
            config=config,
            rng=rng,
            state=state,
        )
        for cid, rng, state in zip(client_ids, rngs, states)
    ]
    start = time.perf_counter()
    updates = method.cohort_update(ctxs)
    lttr = (time.perf_counter() - start) / max(len(ctxs), 1)
    for ctx, update in zip(ctxs, updates):
        if not np.isfinite(update.mean_loss):
            raise FloatingPointError(
                f"round {round_index}, client {ctx.client_id}: {method.name} local "
                f"update diverged (mean training loss {update.mean_loss})"
            )
    return [
        ClientResult(client_id=ctx.client_id, update=update, lttr_seconds=lttr)
        for ctx, update in zip(ctxs, updates)
    ]
