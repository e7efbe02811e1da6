"""Local training on plain arrays.

``run_local_sgd`` is one array loop: the model's ``loss_and_grads``,
the masks' float keep-multiply, ``SGD.step`` on the arrays and the bool
drop-pin.  An MLP step builds no autograd graph, yet every gradient it
takes must be the composed graph's, byte for byte and in the same memory
layout (clipping's summation order depends on it).
"""

from __future__ import annotations

import hashlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.baselines.registry import make_method
from repro.data.batching import ImageBatcher
from repro.fl.client import ClientContext, run_local_sgd
from repro.fl.config import FLConfig
from repro.fl.parameters import ParamSet
from repro.fl.rows import RowSpace, bind_masks
from repro.nn.functional import cross_entropy
from repro.nn.models import MLPClassifier, build_model
from repro.nn.optim import SGD
from repro.nn.tensor import Tensor
from repro.streams import stream
from tests.conftest import make_tiny_image_task, mask_pairs

ROOT = Path(__file__).resolve().parents[2]


def _stack(model, c: int) -> dict[str, np.ndarray]:
    """``c`` distinct parameter sets of ``model``, as a stack holds them."""
    return {
        name: np.stack([p.data * (1.0 + 0.1 * i) for i in range(c)])
        for name, p in model.named_parameters()
    }


def _masks(model, kind: str, c: int, rng) -> dict | None:
    """Per-client ``(keep, drop)`` mask pairs as the stacked parameters
    hold them."""
    if kind == "none":
        return None
    space = RowSpace.from_module(model)
    if kind == "row":
        rows = [space.split(space.sample_pattern(0.5, rng)) for _ in range(c)]
        return mask_pairs({name: np.stack([r[name] for r in rows]) for name in rows[0]})
    w = model.net.layer0.weight.data
    return mask_pairs({"net.layer0.weight": rng.random((c,) + w.shape) < 0.5})


def _graph_grads(model, batch) -> list[np.ndarray]:
    """The composed ``Linear``/``ReLU``/``cross_entropy`` graph's leaf
    gradients of the stack's summed losses."""
    x, y = batch
    model.zero_grad()
    loss = cross_entropy(model.net(Tensor(x)), y)
    loss.backward(np.ones_like(loss.data))
    return [p.grad for p in model.parameters()]


def _raw(grads) -> list:
    return [(g.tobytes(), g.strides) for g in grads]


@pytest.mark.parametrize("kind", ["none", "row", "element"])
@pytest.mark.parametrize("c", [1, 3, 13])
def test_loss_and_grads_is_the_graphs_gradient(rng, c, kind):
    """Step by step, under masks and clipping, the array gradients equal
    the graph's leaf gradients byte for byte and stride for stride,
    before and after the masking and the clip."""
    model = MLPClassifier(input_dim=6, hidden_dims=(7, 5), n_classes=4, rng=rng)
    masks = _masks(model, kind, c, rng)
    space = RowSpace.from_module(model)
    ours, theirs = _stack(model, c), _stack(model, c)
    opts = [
        SGD(model.parameters(), lr=0.3, momentum=0.9, weight_decay=1e-3, max_grad_norm=0.5)
        for _ in range(2)
    ]
    for _ in range(4):
        batch = (rng.normal(size=(c, 9, 6)), rng.integers(0, 4, size=(c, 9)))
        grads = []
        takes = (lambda: model.loss_and_grads(batch)[1], lambda: _graph_grads(model, batch))
        for state, opt, take in zip((ours, theirs), opts, takes):
            with model.stacked(state):
                g = take()
                raw = _raw(g)
                if masks is not None:
                    bound = bind_masks(model, masks)
                    space.mask_model_gradients(g, bound)
                opt.step(g)
                if masks is not None:
                    space.zero_dropped_rows(bound)
                grads.append((raw, _raw(g)))
        assert grads[0] == grads[1]
    for name in ours:
        assert ours[name].tobytes() == theirs[name].tobytes(), name


def test_default_loss_and_grads_is_the_lstm_graph(tiny_lstm, rng):
    """``Module.loss_and_grads`` hands back the graph's leaf gradients."""
    batch = (rng.integers(0, 9, size=(2, 3, 4)), rng.integers(0, 9, size=(2, 3, 4)))
    with tiny_lstm.stacked(_stack(tiny_lstm, 2)):
        tiny_lstm.zero_grad()
        loss = tiny_lstm.loss(batch)
        loss.backward(np.ones_like(loss.data))
        expected = [p.grad.copy() for p in tiny_lstm.parameters()]
        losses, grads = tiny_lstm.loss_and_grads(batch)
    assert losses.tobytes() == loss.data.tobytes()
    assert [g.tobytes() for g in grads] == [g.tobytes() for g in expected]


#: a FedBIAD stage-one stack of six clients, judged every iteration
#: (``tau=1``) so patterns swap mid-round; pinned from the graph-based
#: loop this one replaced
SWAP_DIGEST = "6639ece786e22169953adbfbe8a33755e595c2cc7d8f50122149d17214c98b13"


def test_fedbiad_swapping_stack_trains_as_before():
    task = make_tiny_image_task(n_clients=6)
    config = FLConfig(
        rounds=3, kappa=1.0, local_iterations=12, batch_size=10, lr=0.3, momentum=0.9,
        weight_decay=1e-3, max_grad_norm=0.5, dropout_rate=0.5, tau=1, seed=5,
        stage_boundary=10,
    )
    model = build_model(task.model_spec, np.random.default_rng(0))
    method = make_method("fedbiad")
    method.setup(model, task, config, np.random.default_rng(1))
    global_params = ParamSet.from_module(model)
    ctxs = [
        ClientContext(
            client_id=c, round_index=2, global_params=global_params, model=model, task=task,
            config=config, rng=stream("engine", 5, 2, c), state={},
        )
        for c in range(6)
    ]
    updates = method.cohort_update(ctxs)
    digest = hashlib.sha256()
    for update in updates:
        for name in update.payload.params:
            digest.update(update.payload.params[name].tobytes())
        digest.update(np.array(update.train_losses).tobytes())
        digest.update(str(update.upload_bits).encode())
    assert sum(u.aux["n_resamples"] for u in updates) > 0
    assert digest.hexdigest() == SWAP_DIGEST


def test_mlp_stack_trains_without_tensors(tiny_image_task, rng, monkeypatch):
    """A masked, clipped MLP stack's local steps create no ``Tensor``."""
    model = build_model(tiny_image_task.model_spec, rng)
    masks = _masks(model, "row", 3, rng)
    rngs = [np.random.default_rng(i) for i in range(3)]
    batcher = tiny_image_task.batcher([0, 1, 2], 8, rngs, 5)
    init = Tensor.__init__
    made = []

    def counting(self, *args, **kwargs):
        made.append(type(self))
        init(self, *args, **kwargs)

    with model.stacked(_stack(model, 3)):
        opt = SGD(model.parameters(), lr=0.3, momentum=0.9, max_grad_norm=0.5)
        monkeypatch.setattr(Tensor, "__init__", counting)
        losses = run_local_sgd(model, opt, batcher, 5, RowSpace.from_module(model), masks)
    assert made == [] and np.isfinite(losses).all()


def test_batcher_checks_each_blocks_labels(rng):
    """The MLP's array step gathers each row's target entry unchecked,
    so a bad label must stop training at the batcher: it would read
    another row's logit."""
    model = MLPClassifier(input_dim=3, hidden_dims=(5,), n_classes=4, rng=rng)
    x = rng.normal(size=(8, 3))
    for bad in (4, -1):
        y = np.array([0, 1, 2, 3, 0, 1, bad, 3])
        batcher = ImageBatcher(x, y, [0], [8], 8, [rng], steps=2, n_classes=4)
        with model.stacked(_stack(model, 1)):
            opt = SGD(model.parameters(), lr=0.1)
            with pytest.raises(ValueError, match="out of range"):
                run_local_sgd(model, opt, batcher, 2)


def test_perfbench_wraps_only_defined_names():
    """Every callable the traced benchmark wraps is defined on its owner
    (it reads ``vars(owner)[attr]``), so ``--trace 1`` cannot fail on a
    missing name."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        (name, getattr(owner, "__name__", owner), attr)
        for name, owner, attr in tracing._targets()
        if attr not in vars(owner)
    ]
    assert missing == []
