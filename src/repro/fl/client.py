"""Client-side machinery: the method interface and the local SGD loop.

A *federated method* (FedBIAD or a baseline) plugs into the simulation
through three server-side hooks:

* :meth:`FederatedMethod.setup` — called once with the shared model;
* :meth:`FederatedMethod.cohort_update` — runs a cohort's (or an async
  wave's) local rounds and returns one :class:`ClientUpdate` per
  client, in order;
* :meth:`FederatedMethod.aggregate` — combines updates into the next
  global parameters (defaults to the masked weighted mean of
  :mod:`repro.fl.aggregation`).

``cohort_update`` is shared by every method and every model (MLP, LSTM,
CNN).  It trains the cohort in *stacks*: up to :data:`STACK_BYTES` of
float64 parameters' worth of clients sharing one effective batch size
``min(batch_size, |D_k|)`` run through the model at once
(:meth:`repro.nn.module.Module.stacked`), one ``loss_and_grads``/
``step`` per local iteration for the whole stack.  A model larger than
the budget trains in stacks of one, on the same path.  A method supplies
only its per-client parts, each drawing from the client's own
``ctx.rng``:

* :meth:`FederatedMethod.local_start` — start parameters, masks and the
  inverted-dropout scale (a :class:`LocalRun`);
* :meth:`FederatedMethod.local_step` — an optional per-iteration hook
  that may swap the client's masks (FedBIAD's Eq. (8) judgment);
* :meth:`FederatedMethod.upload` — the client's :class:`ClientUpdate`.

Every slice of a stack is computed by the same kernels as a lone
client, so each client's update is bit-identical to training it alone.

A stack's data is one batcher (:meth:`repro.data.registry.FederatedTask.batcher`),
built after the clients' ``local_start``: a fleet stack's shards are
drawn then, and resident clients' rows are read in place.  The stack
gathers each step's ``(c, batch, ...)`` arrays in one ``take``, and its
shards and batches are dropped when the stack has trained, so a cohort
holds the data of one stack at a time, never all of it.  The stack's
per-client mean losses are computed once, row by row.

The stack's start is written in one pass per parameter: every
client's start parameters, then the masks and per-client scales
applied array-wide (what :meth:`LocalRun.load` does for one client, and
does again after a mid-round mask swap).

The local-training loop (:func:`run_local_sgd`) implements the masked
update rule of Eq. (7) on plain arrays: the model's
``loss_and_grads`` hands back one gradient array per parameter, they
are multiplied by float keep-masks, ``SGD.step`` takes them, and
dropped entries are pinned to +0.0 through bool drop-masks after every
step so momentum or weight decay cannot resurrect them.  An MLP step
builds no autograd graph.  Masks follow
:func:`repro.fl.rows.broadcast_mask`: a row mask broadcasts along its
rows, an element mask is used as is.
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
from .rows import RowSpace, bind_masks, broadcast_mask, kept_entries
from .sizing import FLOAT_BITS, dense_bits

__all__ = [
    "ClientContext",
    "ClientUpdate",
    "FederatedMethod",
    "LocalRun",
    "STACK_BYTES",
    "run_local_sgd",
]

#: Byte budget of one stack's float64 parameters, which sets how many
#: clients train together: 13 for the fleet MLP (19 KB per client), 1
#: for the paper's MNIST MLP (814 KB) and the ``ptb/small`` LSTM (416
#: KB).  Picked from a measured sweep of the fleet round over stack
#: sizes (CHANGES.md): the round stops getting faster past about 16
#: clients while peak RSS keeps growing.
STACK_BYTES = 256 * 1024


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

    @property
    def n_samples(self) -> int:
        """|D_k|, in O(1) without materializing the shard."""
        return self.task.client_size(self.client_id)


@dataclass
class ClientUpdate:
    """A client's contribution plus its measured costs."""

    payload: ClientPayload
    upload_bits: int
    train_losses: list[float] = field(default_factory=list)
    aux: dict = field(default_factory=dict)

    @cached_property
    def mean_loss(self) -> float:
        """The mean training loss, computed on first read unless the
        stack that trained the client filled it in (a
        ``dataclasses.replace`` copy computes it again)."""
        return float(np.mean(self.train_losses)) if self.train_losses else float("nan")


@dataclass
class LocalRun:
    """One client's local round, as a method's per-client hooks see it.

    ``params`` is what the client's slot of the model is loaded from, at
    the start (for the whole stack at once) and again whenever
    :meth:`FederatedMethod.local_step` swaps the masks: dropped entries
    become +0.0 and kept ones are multiplied by ``scale`` (inverted
    dropout; the upload takes it back out).  ``masks`` maps parameter
    names to row or element masks (:func:`~repro.fl.rows.broadcast_mask`);
    ``None`` trains unmasked.
    """

    ctx: ClientContext
    params: ParamSet
    masks: dict[str, np.ndarray] | None = None
    scale: float = 1.0
    #: reported in the update's ``aux``
    aux: dict = field(default_factory=dict)
    #: the client's live parameter arrays while it trains (views into
    #: its slot of the stack), its trained parameters afterwards
    weights: dict[str, np.ndarray] = field(default_factory=dict)
    losses: list[float] = field(default_factory=list)

    def load(self) -> None:
        """Write ``params`` into the live weights under ``masks``, after
        a mid-round mask swap (the stack writes every client's start at
        once, the same way)."""
        for name, w in self.weights.items():
            w[...] = self.params[name]
            if self.masks is not None and name in self.masks:
                mask = broadcast_mask(self.masks[name], w.ndim)
                np.copyto(w, 0.0, where=~mask)
                if self.scale != 1.0:
                    np.multiply(w, self.scale, out=w, where=mask)

    def kept_update(self) -> ClientUpdate:
        """Upload the trained kept entries (all of them when unmasked)
        at 32 bits each and no mask bits: the server knows the masks."""
        params = ParamSet(self.weights)
        masks = self.masks or {}
        return ClientUpdate(
            payload=ClientPayload(params=params, weight=float(self.ctx.n_samples), masks=masks),
            upload_bits=FLOAT_BITS * kept_entries(masks, params),
            train_losses=self.losses,
            aux=self.aux,
        )


def _stacks(ctxs: list[ClientContext]) -> list[list[int]]:
    """Positions of the clients that train together, in order."""
    if not ctxs:
        return []
    size = max(1, STACK_BYTES // (8 * ctxs[0].global_params.num_weights))
    by_batch: dict[int, list[int]] = {}
    for i, ctx in enumerate(ctxs):
        batch = min(ctx.config.batch_size, ctx.n_samples)
        by_batch.setdefault(batch, []).append(i)
    return [
        group[k : k + size] for group in by_batch.values() for k in range(0, len(group), size)
    ]


def _as_param(stack: np.ndarray) -> np.ndarray:
    """A ``(c,) + shape`` array as the stacked parameter holds it: the
    stack itself, with biases ``(c, 1, out)`` (:meth:`Module.stacked`)."""
    return stack[:, None] if stack.ndim == 2 else stack


class FederatedMethod:
    """Base class for FedBIAD and all baselines."""

    name = "base"

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

    # ------------------------------------------------------------------
    # per-client parts
    # ------------------------------------------------------------------
    def local_start(self, ctx: ClientContext) -> LocalRun:
        """Before training: the global model, unmasked."""
        return LocalRun(ctx=ctx, params=ctx.global_params)

    def local_step(self, run: LocalRun, v: int, loss: float) -> dict[str, np.ndarray] | None:
        """After local iteration ``v`` (0-based) with training ``loss``.

        Return new masks to train under from here on (``run.params`` is
        then reloaded under them), or ``None`` to keep training.  The
        loop calls this hook only for methods that override it.
        """
        return None

    def upload(self, run: LocalRun) -> ClientUpdate:
        """After training: the client's update (``run.weights`` holds its
        trained parameters, ``run.losses`` its per-step losses)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def client_update(self, ctx: ClientContext) -> ClientUpdate:
        """One client's local round: the one-client cohort."""
        return self.cohort_update([ctx])[0]

    def cohort_update(self, ctxs: list[ClientContext]) -> list[ClientUpdate]:
        """Run every client of ``ctxs``, returning their updates in order."""
        updates: list[ClientUpdate | None] = [None] * len(ctxs)
        for stack in _stacks(ctxs):
            for i, update in zip(stack, self._train([ctxs[i] for i in stack])):
                updates[i] = update
        return updates

    def _train(self, ctxs: list[ClientContext]) -> list[ClientUpdate]:
        """Train one stack through :func:`run_local_sgd`.

        Parameters and masks (float keep-masks and bool drop-masks) live
        in ``(c,) + shape`` arrays; client ``i`` owns slot ``i`` of each,
        and its ``run.weights`` are views of its slots.  One batcher
        serves the stack, built after every ``local_start``; a shard it
        cannot draw from raises ``ValueError`` naming the round and the
        client.
        """
        model = ctxs[0].model
        runs = [self.local_start(ctx) for ctx in ctxs]
        # the stack's start, one pass per parameter: ``LocalRun.load``
        # of every client at once
        state = {
            name: np.array([run.params[name] for run in runs], dtype=np.float64)
            for name, _ in model.named_parameters()
        }
        scales = np.array([run.scale for run in runs])
        scaled = bool((scales != 1.0).any())
        keep, drop = {}, {}
        for name in runs[0].masks or ():
            w = state[name]
            kept = np.array([broadcast_mask(run.masks[name], w.ndim - 1) for run in runs])
            keep[name], drop[name] = kept.astype(np.float64), ~kept
            np.copyto(w, 0.0, where=drop[name])
            if scaled:
                np.multiply(w, broadcast_mask(scales, w.ndim), out=w, where=kept)
        for i, run in enumerate(runs):
            run.weights = {name: a[i] for name, a in state.items()}
        masks = {name: (_as_param(keep[name]), _as_param(drop[name])) for name in keep} or None

        def on_iteration(v: int, losses) -> None:
            for i, run in enumerate(runs):
                new = self.local_step(run, v, losses[i])
                if new is not None:
                    run.masks = new
                    for name, k in keep.items():
                        k[i] = broadcast_mask(new[name], k.ndim - 1)
                        np.logical_not(k[i], out=drop[name][i])
                    run.load()

        hook = on_iteration if type(self).local_step is not FederatedMethod.local_step else None
        first = ctxs[0]
        try:
            batcher = first.task.batcher(
                [ctx.client_id for ctx in ctxs], first.config.batch_size,
                [ctx.rng for ctx in ctxs], first.config.local_iterations,
            )
        except ValueError as exc:
            raise ValueError(f"round {first.round_index}, {exc}") from exc
        with model.stacked(state):
            steps = run_local_sgd(
                model, self.make_optimizer(model), batcher,
                first.config.local_iterations, self.rowspace, masks, hook,
            )
        del batcher  # the stack's shards and batches, before the uploads
        # one row per client, so each mean reduces a contiguous row as
        # ``np.mean`` of the client's list does (pairwise from 8 values)
        rows = np.array(steps).T.copy()
        means = rows.mean(axis=1).tolist()
        updates = []
        for run, losses, mean in zip(runs, rows.tolist(), means):
            run.losses = losses
            update = self.upload(run)
            if update.train_losses == losses:
                update.__dict__["mean_loss"] = mean  # ClientUpdate.mean_loss's cache
            updates.append(update)
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

    def make_optimizer(self, model: Module) -> SGD:
        cfg = self.config
        return SGD(
            model.parameters(),
            lr=cfg.lr,
            momentum=cfg.momentum,
            weight_decay=cfg.weight_decay,
            max_grad_norm=cfg.max_grad_norm,
        )


def run_local_sgd(
    model: Module,
    optimizer: SGD,
    batcher,
    iterations: int,
    rowspace: RowSpace | None = None,
    masks: dict | None = None,
    on_iteration: Callable[[int, float], None] | None = None,
) -> list:
    """Run ``iterations`` masked SGD steps; returns per-step losses.

    The only local-training loop: every method's clients train here, in
    stacks (:meth:`FederatedMethod.cohort_update`).  Implements Eq. (7):
    ``U <- U - eta * (beta ∘ grad L)``, one array loop: a batch, the
    model's ``loss_and_grads``, the gradients times the keep-masks, the
    SGD step and the pin.  When ``masks`` is given (as the model's
    parameters hold them, see :func:`~repro.fl.rows.broadcast_mask`),
    ``rowspace`` applies them: gradients are multiplied by the masks
    before the step and dropped entries re-pinned to +0.0 after it.  The
    masks, ``(keep, drop)`` pairs of float keep-masks and bool
    drop-masks, are bound to their parameters once, as views
    (:func:`~repro.fl.rows.bind_masks`).  The ``on_iteration`` hook runs
    after each step with its loss; it may rewrite the pairs in place
    (FedBIAD's pattern swap, Algorithm 1 lines 18-26), and the next step
    masks with the new values.

    Every model trains as a stack of clients, so its loss holds one
    value per client, and each step's entry is the list of per-client
    losses.  An MLP's step makes no ``Tensor``
    (:meth:`~repro.nn.models.MLPClassifier.loss_and_grads`); other
    models run their graph inside ``loss_and_grads``.
    """
    if masks is not None and rowspace is None:
        raise ValueError("masks require a rowspace")
    bound = bind_masks(model, masks) if masks is not None else None
    losses: list = []
    for v in range(iterations):
        loss, grads = model.loss_and_grads(batcher.next_batch())
        if bound is not None:
            rowspace.mask_model_gradients(grads, bound)
        optimizer.step(grads)
        if bound is not None:
            rowspace.zero_dropped_rows(bound)
        value = loss.tolist()
        losses.append(value)
        if on_iteration is not None:
            on_iteration(v, value)
    return losses
