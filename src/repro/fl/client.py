"""Client-side machinery: the method interface and local SGD loops.

A *federated method* (FedBIAD or a baseline) plugs into the simulation
through three hooks:

* :meth:`FederatedMethod.setup` — called once with the shared model;
* :meth:`FederatedMethod.cohort_update` — runs a cohort's (or an async
  wave's) local rounds and returns one :class:`ClientUpdate` per
  client, in order.  The default calls
  :meth:`FederatedMethod.client_update` once per client, so a method
  implements whichever of the two suits it: FedBIAD and the masked
  baselines train one client at a time, FedAvg trains stacks of
  clients at once (:mod:`repro.baselines.fedavg`);
* :meth:`FederatedMethod.aggregate` — combines updates into the next
  global parameters (defaults to the masked weighted mean of
  :mod:`repro.fl.aggregation`).

A :class:`ClientContext` materializes its client's shard only when the
method first asks for ``ctx.batcher`` (building a batcher draws nothing
from the client's RNG), and :meth:`ClientContext.release` drops it once
the client has trained, so a cohort holds the shards of the clients
training right now, never all of them.

The shared local-training loop (:func:`run_local_sgd`) implements the
masked update rule of Eq. (7): gradients of dropped rows are zeroed, and
dropped rows are pinned to zero after every step so momentum or weight
decay cannot resurrect them.  The same loop trains a stacked model
(:meth:`repro.nn.module.Module.stacked`) from a batcher of stacked
minibatches; each step's loss is then one value per client.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from ..nn.module import Module
from ..nn.optim import SGD
from .aggregation import ClientPayload, aggregate
from .config import FLConfig
from .parameters import ParamSet
from .rows import RowSpace
from .sizing import dense_bits

__all__ = ["ClientContext", "ClientUpdate", "FederatedMethod", "run_local_sgd"]


@dataclass
class ClientContext:
    """Everything a method sees while updating one client."""

    client_id: int
    round_index: int  # 1-based, as in Algorithm 1
    global_params: ParamSet
    model: Module
    task: object  # FederatedTask
    config: FLConfig
    rng: np.random.Generator
    state: dict  # per-client persistent storage across rounds

    @cached_property
    def batcher(self):
        """The client's minibatch sampler (ImageBatcher | SequenceBatcher),
        built from its shard on first use."""
        return self.task.batcher(self.client_id, self.config.batch_size, self.rng)

    @property
    def n_samples(self) -> int:
        """|D_k|, in O(1) without materializing the shard."""
        return self.task.client_size(self.client_id)

    def release(self) -> None:
        """Drop the batcher and with it the materialized shard."""
        self.__dict__.pop("batcher", None)


@dataclass
class ClientUpdate:
    """A client's contribution plus its measured costs."""

    payload: ClientPayload
    upload_bits: int
    train_losses: list[float] = field(default_factory=list)
    aux: dict = field(default_factory=dict)

    @property
    def mean_loss(self) -> float:
        return float(np.mean(self.train_losses)) if self.train_losses else float("nan")


class FederatedMethod:
    """Base class for FedBIAD and all baselines."""

    name = "base"
    #: whether this method's client masks depend on the recurrent /
    #: embedding matrices being droppable (FedDrop/AFD cannot drop them)
    drops_recurrent = True

    def __init__(self) -> None:
        self.rowspace: RowSpace | None = None
        self.task = None
        self.config: FLConfig | None = None

    # ------------------------------------------------------------------
    def setup(self, model: Module, task, config: FLConfig, rng: np.random.Generator) -> None:
        """Called once before round 1 with the shared model instance."""
        self.rowspace = RowSpace.from_module(model)
        self.task = task
        self.config = config

    def client_update(self, ctx: ClientContext) -> ClientUpdate:
        raise NotImplementedError

    def cohort_update(self, ctxs: list[ClientContext]) -> list[ClientUpdate]:
        """Run every client of ``ctxs``, returning their updates in order.

        The default trains one client at a time through
        :meth:`client_update`, releasing each shard once its client has
        trained.
        """
        updates = []
        for ctx in ctxs:
            updates.append(self.client_update(ctx))
            ctx.release()
        return updates

    def aggregate(
        self,
        round_index: int,
        prev_global: ParamSet,
        updates: list[ClientUpdate],
    ) -> ParamSet:
        """Default: masked weighted mean (Eq. 10 / per-row variant)."""
        payloads = [u.payload for u in updates]
        return aggregate(payloads, prev_global, mode=self.config.aggregation)

    def download_bits(self, global_params: ParamSet) -> int:
        """Per-client downlink payload; the server broadcasts densely."""
        return dense_bits(global_params)

    def make_optimizer(self, model: Module, stacked: bool = False) -> SGD:
        cfg = self.config
        return SGD(
            model.parameters(),
            lr=cfg.lr,
            momentum=cfg.momentum,
            weight_decay=cfg.weight_decay,
            max_grad_norm=cfg.max_grad_norm,
            stacked=stacked,
        )


def run_local_sgd(
    model: Module,
    optimizer: SGD,
    batcher,
    iterations: int,
    rowspace: RowSpace | None = None,
    masks: dict[str, np.ndarray] | None = None,
    on_iteration: Callable[[int, float], None] | None = None,
) -> list:
    """Run ``iterations`` masked SGD steps; returns per-step losses.

    Implements Eq. (7): ``U <- U - eta * (beta ∘ grad L)``.  When
    ``masks`` is given, ``rowspace`` must be too; gradients of dropped
    rows are zeroed before the step and the rows re-pinned to zero after
    it.  The ``on_iteration`` hook lets FedBIAD interleave its adaptive
    pattern logic (Algorithm 1 lines 18-26) without duplicating the loop.

    A stacked model's loss holds one value per client; backward is
    seeded with ones, and each step's entry is then the list of
    per-client losses.
    """
    if masks is not None and rowspace is None:
        raise ValueError("masks require a rowspace")
    losses: list = []
    for v in range(iterations):
        batch = batcher.next_batch()
        optimizer.zero_grad()
        loss = model.loss(batch)
        loss.backward(np.ones_like(loss.data))
        if masks is not None:
            rowspace.mask_model_gradients(model, masks)
        optimizer.step()
        if masks is not None:
            rowspace.zero_dropped_rows(model, masks)
        value = loss.data.tolist()
        losses.append(value)
        if on_iteration is not None:
            on_iteration(v, value)
    return losses
