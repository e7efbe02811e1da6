"""Stacked cohort training against the per-client reference.

Every method trains its cohort in stacks of clients, MLP and LSTM alike.
FedAvg's parameters and per-step losses must be bit-identical to
training each client alone, on the unstacked model, through
``run_local_sgd``; every method's whole-cohort stacks must give each
client the same bytes as stacks of one, whatever the optimizer settings,
dropout rate and (for FedBIAD) stage.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest

from repro.baselines.fedavg import FedAvg
from repro.baselines.registry import make_method
from repro.core.scores import WeightScores
from repro.data.registry import make_fleet_task
from repro.fl import client as fl_client
from repro.fl.client import ClientContext, run_local_sgd
from repro.fl.config import FLConfig
from repro.fl.parameters import ParamSet
from repro.nn.models import build_model
from repro.nn.module import Parameter
from repro.nn.optim import SGD, clip_grad_norm
from repro.streams import stream
from tests.conftest import LoneBatcher, make_tiny_text_task

ROUND = 3
N_CLIENTS = 7


@pytest.fixture(scope="module")
def ragged_task():
    # |D_k| spans 8..128 around 32, so a batch size of 20 gives several
    # effective batch sizes, and so several stacks, in one cohort
    return make_fleet_task(40, samples_per_client=32, hidden=(16,), seed=3, size_spread=4.0)


@pytest.fixture(scope="module")
def text_task():
    # every stream has 300 tokens, so the whole cohort is one stack
    return make_tiny_text_task(N_CLIENTS)


def _clip_alone(grads: list[np.ndarray], max_norm: float) -> float:
    """The textbook clip of one client: scale all its gradients by one
    global norm, written here independently of ``clip_grad_norm``."""
    norm = np.sqrt(sum(np.sum(g * g) for g in grads))
    if norm > max_norm:
        for g in grads:
            g *= max_norm / norm
    return norm


class _GlobalClipSGD(SGD):
    """SGD on one unstacked client, clipped by :func:`_clip_alone`."""

    def __init__(self, params, max_grad_norm, **kwargs) -> None:
        super().__init__(params, **kwargs)
        self.bound = max_grad_norm

    def step(self, grads) -> None:
        if self.bound is not None:
            _clip_alone([g for g in grads if g is not None], self.bound)
        super().step(grads)


@contextmanager
def _recording_stacks(model, monkeypatch):
    """Record how many clients each ``model.loss_and_grads`` call
    trains: the leading axis of a stacked batch's targets."""
    cls = type(model)
    loss_and_grads = cls.loss_and_grads
    sizes = []

    def recording(self, batch):
        sizes.append(np.shape(batch[1])[0])
        return loss_and_grads(self, batch)

    monkeypatch.setattr(cls, "loss_and_grads", recording)
    yield sizes
    monkeypatch.setattr(cls, "loss_and_grads", loss_and_grads)


def _contexts(task, model, config, global_params):
    return [
        ClientContext(
            client_id=cid,
            round_index=ROUND,
            global_params=global_params,
            model=model,
            task=task,
            config=config,
            rng=stream("engine", config.seed, ROUND, cid),
            state={},
        )
        for cid in range(N_CLIENTS)
    ]


def _reference(task, model, config, global_params, cid, round_index=ROUND):
    """One client trained alone on the unstacked model."""
    rng = stream("engine", config.seed, round_index, cid)
    global_params.to_module(model)
    optimizer = _GlobalClipSGD(
        model.parameters(),
        lr=config.lr,
        momentum=config.momentum,
        weight_decay=config.weight_decay,
        max_grad_norm=config.max_grad_norm,
    )
    losses = run_local_sgd(
        model, optimizer, LoneBatcher(task, cid, config.batch_size, rng), config.local_iterations
    )
    return ParamSet.from_module(model), losses


@pytest.mark.parametrize("max_grad_norm", [None, 0.5])
@pytest.mark.parametrize("momentum", [0.0, 0.9])
@pytest.mark.parametrize("stack", [1, 3, N_CLIENTS])
def test_stacked_cohort_matches_per_client_training(
    ragged_task, monkeypatch, stack, momentum, max_grad_norm
):
    config = FLConfig(
        rounds=ROUND, kappa=0.5, local_iterations=6, batch_size=20, lr=0.3,
        momentum=momentum, weight_decay=1e-3, max_grad_norm=max_grad_norm, seed=5,
    )
    model = build_model(ragged_task.model_spec, np.random.default_rng(0))
    global_params = ParamSet.from_module(model)
    method = FedAvg()
    method.setup(model, ragged_task, config, np.random.default_rng(1))
    monkeypatch.setattr(fl_client, "STACK_BYTES", stack * 8 * global_params.num_weights)
    with _recording_stacks(model, monkeypatch) as sizes:
        updates = method.cohort_update(_contexts(ragged_task, model, config, global_params))

    batches = [min(20, ragged_task.client_size(cid)) for cid in range(N_CLIENTS)]
    largest_group = max(batches.count(b) for b in batches)
    assert len(set(batches)) > 1  # several effective batch sizes
    assert max(sizes) == min(stack, largest_group)
    for cid, update in enumerate(updates):
        params, losses = _reference(ragged_task, model, config, global_params, cid)
        assert np.array(update.train_losses).tobytes() == np.array(losses).tobytes()
        for name in params:
            assert update.payload.params[name].tobytes() == params[name].tobytes(), (cid, name)
        assert update.payload.weight == float(ragged_task.client_size(cid))


def test_stacked_clipping_is_per_client():
    """Only the client whose gradient exceeds the bound is scaled."""
    w = np.stack([np.full((3, 2), 0.1), np.full((3, 2), 3.0)])
    b = np.stack([np.full((1, 3), 0.1), np.full((1, 3), 4.0)])
    norms = clip_grad_norm([w, b], 1.0)
    assert norms.shape == (2,)
    for i in range(2):
        alone = [np.full((3, 2), [0.1, 3.0][i]), np.full(3, [0.1, 4.0][i])]
        assert norms[i] == _clip_alone(alone, 1.0)
        assert np.array_equal(w[i], alone[0])
        assert np.array_equal(b[i, 0], alone[1])
    assert np.array_equal(w[0], np.full((3, 2), 0.1))


def test_stacked_load_checks_per_client_shapes(tiny_mlp):
    state = {name: np.stack([p.data] * 3) for name, p in tiny_mlp.named_parameters()}
    with tiny_mlp.stacked(state):
        assert tiny_mlp.net.layer0.weight.data.shape == (3, 5, 6)
        assert tiny_mlp.net.layer0.bias.data.shape == (3, 1, 5)
    assert tiny_mlp.net.layer0.weight.data.shape == (5, 6)
    state["net.layer0.bias"] = np.zeros((3, 4))
    with pytest.raises(ValueError, match="net.layer0.bias"):
        with tiny_mlp.stacked(state):
            pass


def test_lstm_trains_one_client_at_a_time(tiny_text_task, monkeypatch):
    """Each LSTM client's update is the one it gets training alone, with
    all three clients in one stack."""
    config = FLConfig(
        rounds=1, kappa=1.0, local_iterations=2, batch_size=4, lr=0.5, seed=0,
        max_grad_norm=0.5,
    )
    model = build_model(tiny_text_task.model_spec, np.random.default_rng(0))
    global_params = ParamSet.from_module(model)
    method = FedAvg()
    method.setup(model, tiny_text_task, config, np.random.default_rng(1))
    ctxs = [
        ClientContext(
            client_id=cid, round_index=1, global_params=global_params, model=model,
            task=tiny_text_task, config=config,
            rng=stream("engine", 0, 1, cid), state={},
        )
        for cid in range(3)
    ]
    with _recording_stacks(model, monkeypatch) as sizes:
        updates = method.cohort_update(ctxs)
    assert sizes == [3] * config.local_iterations
    for cid, update in enumerate(updates):
        params, losses = _reference(tiny_text_task, model, config, global_params, cid, 1)
        assert np.array(update.train_losses).tobytes() == np.array(losses).tobytes()
        assert all(update.payload.params[n].tobytes() == params[n].tobytes() for n in params)


def _fingerprint(update, state) -> dict:
    """Everything a client's round produced, as bytes where it is an array."""

    def raw(value):
        if isinstance(value, np.ndarray):
            return (value.dtype.str, value.shape, value.tobytes())
        if isinstance(value, dict):
            return {key: raw(v) for key, v in value.items()}
        return value

    payload = update.payload
    return {
        "params": raw(dict(payload.params.items())),
        "masks": raw(dict(payload.masks)),
        "weight": payload.weight,
        "upload_bits": update.upload_bits,
        "train_losses": raw(np.array(update.train_losses)),
        "aux": raw(update.aux),
        "scores": raw(state["scores"].values) if "scores" in state else None,
    }


#: every method's cohort, FedBIAD in stage one (round 3 <= R_b) and in
#: stage two (round 3 > R_b, from pre-filled score vectors)
CASES = {
    "fedavg": ("fedavg", {}),
    "feddrop": ("feddrop", {}),
    "afd": ("afd", {}),
    "fjord": ("fjord", {}),
    "fedmp": ("fedmp", {}),
    "heterofl": ("heterofl", {}),
    "fedbiad-stage1": ("fedbiad", {"stage_boundary": 10}),
    "fedbiad-stage2": ("fedbiad", {"stage_boundary": 1}),
}
#: the LSTM cohorts: the tiny text task under the Fig. 2 line-up
TEXT_CASES = {
    f"text-{case}": CASES[case] for case in ("fedavg", "feddrop", "afd", "fjord", "fedbiad-stage1")
}
ALL_CASES = {**CASES, **TEXT_CASES}


def _run_cohort(task, case, config, stack, monkeypatch):
    """One method's whole cohort at stack size ``stack``; returns each
    client's fingerprint and the largest stack that trained together."""
    method_name, _ = ALL_CASES[case]
    model = build_model(task.model_spec, np.random.default_rng(0))
    global_params = ParamSet.from_module(model)
    method = make_method(method_name)
    method.setup(model, task, config, np.random.default_rng(1))
    monkeypatch.setattr(fl_client, "STACK_BYTES", stack * 8 * global_params.num_weights)
    ctxs = _contexts(task, model, config, global_params)
    if case == "fedbiad-stage2":
        for ctx in ctxs:
            scores = WeightScores(method.rowspace.total_rows)
            scores.values[:] = np.random.default_rng(ctx.client_id).integers(0, 4, scores.n_rows)
            ctx.state["scores"] = scores
    with _recording_stacks(model, monkeypatch) as sizes:
        updates = method.cohort_update(ctxs)
    return [_fingerprint(u, ctx.state) for u, ctx in zip(updates, ctxs)], max(sizes)


@pytest.mark.parametrize("p", [0.2, 0.5])
@pytest.mark.parametrize("max_grad_norm", [None, 0.5])
@pytest.mark.parametrize("momentum", [0.0, 0.9])
@pytest.mark.parametrize("case", sorted(CASES) + sorted(TEXT_CASES))
def test_stacked_cohort_matches_stack_size_one(
    ragged_task, text_task, monkeypatch, case, momentum, max_grad_norm, p
):
    """Every method's whole-cohort stacks give each client the bytes it
    gets training alone: uploads, masks, bits, losses, aux and scores."""
    task = text_task if case in TEXT_CASES else ragged_task
    config = FLConfig(
        rounds=ROUND, kappa=0.5, local_iterations=8, batch_size=20, lr=0.3,
        momentum=momentum, weight_decay=1e-3, max_grad_norm=max_grad_norm,
        dropout_rate=p, tau=1, seed=5, **ALL_CASES[case][1],
    )
    stacked, widest = _run_cohort(task, case, config, N_CLIENTS, monkeypatch)
    lone, single = _run_cohort(task, case, config, 1, monkeypatch)
    assert widest > 1 and single == 1
    for cid, (a, b) in enumerate(zip(stacked, lone)):
        assert a == b, cid
    if case.endswith("fedbiad-stage1"):
        assert sum(f["aux"]["n_resamples"] for f in stacked) > 0  # swaps ran in the stack
