"""Image minibatches: one index draw per client-round.

Every image client, of the paper tasks and the fleet alike, draws all V
minibatches of a round from its ``(seed, round, client)`` engine stream at once
(``ImageBatcher``'s ``steps``).  These tests pin what that must keep:
every batch is ``min(batch_size, n)`` distinct rows of the shard, the
batches do not depend on how many are drawn at a time, so a client's
batches are the same alone, in a stack and at any position in a stack,
and ragged shards still train.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.baselines.fedavg import FedAvg
from repro.data.batching import ImageBatcher
from repro.data.registry import FederatedTask, make_fleet_task, make_task
from repro.experiments.configs import preset_for
from repro.fl import client as fl_client
from repro.fl.client import ClientContext
from repro.fl.config import FLConfig
from repro.fl.parameters import ParamSet
from repro.fl.simulation import FederatedSimulation
from repro.nn.models import build_model
from repro.streams import stream
from tests.conftest import LoneBatcher

V = 5
BATCH = 16
SEED, ROUND = 5, 2


@pytest.fixture(scope="module")
def ragged():
    # |D_k| spans 8..128 around 32: some shards are smaller than a batch
    return make_fleet_task(400, seed=3, size_spread=4.0)


@pytest.fixture(scope="module")
def mnist():
    return make_task("mnist", "small", seed=1)


@pytest.fixture(scope="module")
def uneven(mnist):
    """Resident image clients holding 20 to 65 rows: one batch size,
    unequal row counts."""
    payloads = [tuple(a[: 20 + 9 * c] for a in mnist.client_payload(c)) for c in range(6)]
    return replace(mnist, client_data=payloads)


def _rng(client: int) -> np.random.Generator:
    return stream("engine", SEED, ROUND, client)


def _draw(task, client: int, steps: int, n_batches: int = V) -> list:
    batcher = LoneBatcher(task, client, BATCH, _rng(client), steps)
    return [batcher.next_batch() for _ in range(n_batches)]


def _same(a: list, b: list) -> bool:
    return len(a) == len(b) and all(
        np.array_equal(xa, xb) and np.array_equal(ya, yb) for (xa, ya), (xb, yb) in zip(a, b)
    )


@pytest.mark.parametrize("name", ["ragged", "mnist"])
def test_each_batch_is_distinct_shard_rows(name, request):
    task = request.getfixturevalue(name)
    sizes = set()
    for client in range(24):
        x, y = task.client_payload(client)
        sizes.add(x.shape[0])
        for bx, by in _draw(task, client, V):
            # shard rows carry continuous noise, so each is unique
            hits = (bx[:, None, :] == x[None, :, :]).all(axis=2)
            assert (hits.sum(axis=1) == 1).all()
            rows = hits.argmax(axis=1)
            assert bx.shape[0] == min(BATCH, x.shape[0])
            assert len(set(rows.tolist())) == bx.shape[0]
            assert np.array_equal(by, y[rows])
    if name == "ragged":
        assert min(sizes) < BATCH < max(sizes)


# the ragged fleet's cases keep their bare ``steps`` ids
@pytest.mark.parametrize(
    "name, steps",
    [("ragged", s) for s in (2, V, V + 3)] + [("mnist", s) for s in (2, V, V + 3)],
    ids=["2", str(V), str(V + 3), "mnist-2", f"mnist-{V}", f"mnist-{V + 3}"],
)
def test_batches_do_not_depend_on_the_block(name, steps, request):
    """One block of V rows, or blocks of any other size, draws the same
    batches as one row per call (``steps=1``), also past the first block."""
    task = request.getfixturevalue(name)
    for client in (0, 7, min(311, task.n_clients - 1)):
        assert _same(_draw(task, client, steps, 2 * V), _draw(task, client, 1, 2 * V))


@pytest.mark.parametrize("name", ["uneven", "ragged"])
def test_stack_batches_are_the_lone_batches_stacked(name, request):
    """One batcher over a stack of clients with unequal row counts hands
    each client, in its slot, the batches it draws alone."""
    task = request.getfixturevalue(name)
    ids = [c for c in range(min(60, task.n_clients)) if task.client_size(c) >= BATCH][:7]
    ids = ids[::-1]  # a stack in any order
    assert len({task.client_size(c) for c in ids}) > 1
    stack = task.batcher(ids, BATCH, [_rng(c) for c in ids], V)
    together = [stack.next_batch() for _ in range(2 * V)]
    assert together[0][0].shape[:2] == (len(ids), BATCH)
    for i, c in enumerate(ids):
        assert _same([(x[i], y[i]) for x, y in together], _draw(task, c, V, 2 * V))


def test_text_stack_batches_with_draws_between_steps():
    """Text stacks draw each client's window starts per step from its own
    rng, so a method's draws between steps (FedBIAD's pattern swaps,
    here a different count per client) leave each slot equal to the
    client's lone batches.  Reddit's users hold unequal streams."""
    task = make_task("reddit", "small", seed=1)
    ids = [3, 0, 11, 7]
    assert len({task.client_size(c) for c in ids}) == len(ids)

    def run(batcher, rngs, slots):
        batches = []
        for v in range(V):
            batches.append(batcher.next_batch())
            for rng, k in zip(rngs, slots):
                rng.random(k + v)
        return batches

    rngs = [_rng(c) for c in ids]
    together = run(task.batcher(ids, 8, rngs), rngs, range(len(ids)))
    for i, c in enumerate(ids):
        rng = _rng(c)
        alone = run(LoneBatcher(task, c, 8, rng), [rng], [i])
        assert _same([(x[i], y[i]) for x, y in together], alone)


def test_fleet_round_builds_one_batcher_per_stack(monkeypatch):
    """The K=1M fleet's 200-client cohort gets one batcher per stack of
    13: 16 calls, not one per client."""
    task = make_task("fleet", "paper", seed=0)
    config = preset_for("fleet", "paper").fl.with_overrides(kappa=2e-4, rounds=1, seed=11)
    stacks = []
    batcher = FederatedTask.batcher

    def counting(self, client_ids, *args):
        stacks.append(len(client_ids))
        return batcher(self, client_ids, *args)

    monkeypatch.setattr(FederatedTask, "batcher", counting)
    FederatedSimulation(task, FedAvg(), config).run_round(1)
    assert sum(stacks) == 200
    assert len(stacks) == 16


class _RecordingRng:
    """Forwards ``random`` to a generator and records each draw's shape."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self.shapes: list[tuple] = []

    def random(self, shape):
        self.shapes.append(shape)
        return self.rng.random(shape)


def test_every_image_task_draws_a_round_block(mnist, tiny_image_task):
    """A round's V batches are one ``random((V, n))`` draw, for the
    paper tasks, the fleet and a task built from a payload list."""

    def draws(task):
        rng = _RecordingRng(_rng(0))
        batcher = task.batcher([0], 8, [rng], V)
        for _ in range(V):
            batcher.next_batch()
        return rng.shapes

    tasks = [
        mnist, make_task("fmnist", "small", seed=1), make_task("fleet", "small", seed=1),
        tiny_image_task,
    ]
    assert [draws(t) for t in tasks] == [[(V, t.client_size(0))] for t in tasks]


def _cohort(task, order, stack, monkeypatch):
    """FedAvg on ``order``'s clients in stacks of ``stack``: every
    client's recorded batches and the updates, by client id."""
    config = FLConfig(
        rounds=ROUND, kappa=0.5, local_iterations=V, batch_size=BATCH, lr=0.3, seed=SEED
    )
    model = build_model(task.model_spec, np.random.default_rng(0))
    global_params = ParamSet.from_module(model)
    method = FedAvg()
    method.setup(model, task, config, np.random.default_rng(1))
    ctxs = [
        ClientContext(
            client_id=c, round_index=ROUND, global_params=global_params, model=model,
            task=task, config=config, rng=_rng(c), state={},
        )
        for c in order
    ]
    owner = {id(ctx.rng): ctx.client_id for ctx in ctxs}
    seen = {c: [] for c in order}
    next_batch = ImageBatcher.next_batch

    def recording(self):
        bx, by = next_batch(self)
        for i, rng in enumerate(self.rngs):
            seen[owner[id(rng)]].append((bx[i].copy(), by[i].copy()))
        return bx, by

    with monkeypatch.context() as m:
        m.setattr(fl_client, "STACK_BYTES", stack * 8 * global_params.num_weights)
        m.setattr(ImageBatcher, "next_batch", recording)
        updates = method.cohort_update(ctxs)
    return seen, dict(zip(order, updates))


def test_client_batches_same_alone_and_at_any_stack_position(ragged, monkeypatch):
    # clients of one effective batch size, so they share stacks
    order = [c for c in range(60) if ragged.client_size(c) >= BATCH][:7]
    alone, _ = _cohort(ragged, order, 1, monkeypatch)
    together, _ = _cohort(ragged, order, len(order), monkeypatch)
    shuffled, _ = _cohort(ragged, order[::-1], 3, monkeypatch)
    for c in order:
        assert len(alone[c]) == V
        assert _same(alone[c], _draw(ragged, c, 1))
        assert _same(together[c], alone[c])
        assert _same(shuffled[c], alone[c])


def test_ragged_shards_train(ragged, monkeypatch):
    order = list(range(10, 22))  # sizes 8 to 74
    seen, updates = _cohort(ragged, order, len(order), monkeypatch)
    assert len({min(BATCH, ragged.client_size(c)) for c in order}) > 1
    for c in order:
        assert [bx.shape[0] for bx, _ in seen[c]] == [min(BATCH, ragged.client_size(c))] * V
        assert np.isfinite(updates[c].train_losses).all()
        assert len(updates[c].train_losses) == V
