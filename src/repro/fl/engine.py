"""One client's local round: the execution engine of the round loop.

The server orchestration (:mod:`repro.fl.simulation`) runs the selected
cohort one client after another in-process, calling
:func:`execute_client` for each in selection order.  Every client draws
from its own seeded RNG stream (``default_rng([seed, round, client])``),
so a client's update does not depend on which clients ran before it.

Runs are parallelized one level up: a sweep spreads whole, independent
runs across processes (``sweep --shards N``, see
:mod:`repro.experiments.sweep`), with no per-round IPC.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .client import ClientContext, ClientUpdate, FederatedMethod
from .config import FLConfig
from .parameters import ParamSet

__all__ = ["ClientResult", "execute_client"]


@dataclass
class ClientResult:
    """One client's round output plus its measured local wall-clock."""

    client_id: int
    update: ClientUpdate
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
) -> ClientResult:
    """Run one client's local round.

    The RNG stream is derived from ``(seed, round, client)`` alone, so
    the result does not depend on the order the cohort runs in.
    ``state`` is the client's persistent state; the method updates it
    in place.

    A local update whose mean training loss is not finite raises
    ``FloatingPointError`` naming the round, the client and the method,
    instead of folding NaN into the global model.
    """
    client_id = int(client_id)
    rng = np.random.default_rng([config.seed, round_index, client_id])
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
    return ClientResult(client_id=client_id, update=update, lttr_seconds=lttr)
