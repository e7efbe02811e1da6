"""FedAvg (McMahan et al., 2017) — the uncompressed baseline.

Every selected client trains the full model for ``V`` local iterations
and uploads all weights; the server computes the data-weighted average.
Table I's "Save Ratio" column is defined relative to this method's
upload size.

On an :class:`~repro.nn.models.MLPClassifier`, FedAvg trains its cohort
in *stacks*: up to :data:`STACK_BYTES` of float64 parameters' worth of
clients sharing one effective batch size ``min(batch_size, |D_k|)`` run
through the model at once (:meth:`repro.nn.module.Module.stacked`), one
``loss``/``backward``/``step`` per local iteration for the whole stack.
Each client still draws its minibatches from its own batcher and
stream, and every slice is computed by the same kernels as a lone
client's, so each client's update is bit-identical to training it
alone.  Other models (LSTM, CNN) train one client at a time through
:func:`~repro.fl.client.run_local_sgd`.
"""

from __future__ import annotations

import numpy as np

from ..fl.aggregation import ClientPayload
from ..fl.client import ClientContext, ClientUpdate, FederatedMethod, run_local_sgd
from ..fl.parameters import ParamSet
from ..fl.sizing import dense_bits
from ..nn.models import MLPClassifier

__all__ = ["FedAvg", "STACK_BYTES"]

#: Byte budget of one stack's float64 parameters, which sets how many
#: clients train together: 13 for the fleet MLP (19 KB per client), 1
#: for the paper's MNIST MLP (814 KB).  Picked from a measured sweep of
#: the fleet round over stack sizes (CHANGES.md): the round stops
#: getting faster past about 16 clients while peak RSS keeps growing.
STACK_BYTES = 256 * 1024


class _StackedBatcher:
    """One minibatch per client per step, each drawn by the client's own
    batcher, stacked along a leading client axis."""

    def __init__(self, batchers: list) -> None:
        self.batchers = batchers

    def next_batch(self) -> tuple[np.ndarray, np.ndarray]:
        xs, ys = zip(*(b.next_batch() for b in self.batchers))
        return np.stack(xs), np.stack(ys)


class FedAvg(FederatedMethod):
    """Dense federated averaging."""

    name = "fedavg"
    drops_recurrent = False

    def client_update(self, ctx: ClientContext) -> ClientUpdate:
        return self.cohort_update([ctx])[0]

    def cohort_update(self, ctxs: list[ClientContext]) -> list[ClientUpdate]:
        updates: list[ClientUpdate | None] = [None] * len(ctxs)
        for stack in self._stacks(ctxs):
            for i, update in zip(stack, self._train([ctxs[i] for i in stack])):
                updates[i] = update
        return updates

    def _stacks(self, ctxs: list[ClientContext]) -> list[list[int]]:
        """Positions of the clients that train together, in order."""
        if not ctxs or not isinstance(ctxs[0].model, MLPClassifier):
            return [[i] for i in range(len(ctxs))]
        size = max(1, STACK_BYTES // (8 * ctxs[0].global_params.num_weights))
        by_batch: dict[int, list[int]] = {}
        for i, ctx in enumerate(ctxs):
            batch = min(ctx.config.batch_size, ctx.n_samples)
            by_batch.setdefault(batch, []).append(i)
        return [
            group[k : k + size] for group in by_batch.values() for k in range(0, len(group), size)
        ]

    def _train(self, ctxs: list[ClientContext]) -> list[ClientUpdate]:
        """Train one stack (or one lone client) from the global model."""
        model = ctxs[0].model
        iterations = ctxs[0].config.local_iterations
        if isinstance(model, MLPClassifier):
            c = len(ctxs)
            state = {
                name: np.repeat(value[None], c, axis=0)
                for name, value in ctxs[0].global_params.items()
            }
            with model.stacked(state):
                steps = run_local_sgd(
                    model,
                    self.make_optimizer(model, stacked=True),
                    _StackedBatcher([ctx.batcher for ctx in ctxs]),
                    iterations,
                )
            losses = [list(client) for client in zip(*steps)]
            params = [ParamSet({name: a[i] for name, a in state.items()}) for i in range(c)]
        else:
            (ctx,) = ctxs
            ctx.global_params.to_module(model)
            losses = [run_local_sgd(model, self.make_optimizer(model), ctx.batcher, iterations)]
            params = [ParamSet.from_module(model)]
        updates = []
        for ctx, client_params, client_losses in zip(ctxs, params, losses):
            ctx.release()
            updates.append(
                ClientUpdate(
                    payload=ClientPayload(params=client_params, weight=float(ctx.n_samples)),
                    upload_bits=dense_bits(client_params),
                    train_losses=client_losses,
                )
            )
        return updates
