"""Tests for the client-side method interface and the local SGD loop."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.fedavg import FedAvg
from repro.baselines.feddrop import FedDrop
from repro.core.client import FedBIAD
from repro.fl.client import ClientContext, FederatedMethod, run_local_sgd
from repro.fl.metrics import evaluate
from repro.fl.parameters import ParamSet
from repro.fl.rows import RowSpace, bind_masks
from repro.nn.models import build_model
from repro.nn.optim import SGD
from tests.conftest import LoneBatcher, mask_pairs


class TestRunLocalSGD:
    def test_returns_losses(self, tiny_image_task, rng):
        model = build_model(tiny_image_task.model_spec, rng)
        batcher = LoneBatcher(tiny_image_task, 0, 8, rng)
        optimizer = SGD(model.parameters(), lr=0.2)
        losses = run_local_sgd(model, optimizer, batcher, iterations=5)
        assert len(losses) == 5
        assert all(np.isfinite(l) for l in losses)

    def test_masks_require_rowspace(self, tiny_image_task, rng):
        model = build_model(tiny_image_task.model_spec, rng)
        batcher = LoneBatcher(tiny_image_task, 0, 8, rng)
        optimizer = SGD(model.parameters(), lr=0.2)
        with pytest.raises(ValueError):
            run_local_sgd(model, optimizer, batcher, 2, masks={"w": np.ones(3, bool)})

    def test_dropped_rows_stay_zero(self, tiny_image_task, rng):
        model = build_model(tiny_image_task.model_spec, rng)
        space = RowSpace.from_module(model)
        beta = space.sample_pattern(0.5, rng)
        masks = space.split(beta)
        space.zero_dropped_rows(bind_masks(model, mask_pairs(masks)))
        batcher = LoneBatcher(tiny_image_task, 0, 8, rng)
        optimizer = SGD(model.parameters(), lr=0.5, momentum=0.9, weight_decay=0.1)
        run_local_sgd(model, optimizer, batcher, 6, rowspace=space, masks=mask_pairs(masks))
        for name, p in model.named_parameters():
            if name in masks:
                assert np.all(p.data[~masks[name]] == 0.0)

    def test_on_iteration_hook(self, tiny_image_task, rng):
        model = build_model(tiny_image_task.model_spec, rng)
        batcher = LoneBatcher(tiny_image_task, 0, 8, rng)
        optimizer = SGD(model.parameters(), lr=0.2)
        seen = []
        run_local_sgd(
            model, optimizer, batcher, 3,
            on_iteration=lambda v, loss: seen.append((v, loss)),
        )
        assert [v for v, _ in seen] == [0, 1, 2]


class TestStackMeans:
    @pytest.mark.parametrize("method", [FedAvg, FedBIAD], ids=["fedavg", "fedbiad"])
    @pytest.mark.parametrize("V", [5, 10, 30])
    def test_stack_mean_is_np_mean(self, tiny_image_task, fast_config, method, V):
        """The stack fills each update's mean loss row by row, bit for
        bit what ``np.mean`` of the uploaded losses gives (FedBIAD
        uploads its tracker's copy of them)."""
        config = fast_config.with_overrides(local_iterations=V, kappa=1.0)
        model = build_model(tiny_image_task.model_spec, np.random.default_rng(0))
        m = method()
        m.setup(model, tiny_image_task, config, np.random.default_rng(1))
        global_params = ParamSet.from_module(model)
        ctxs = [
            ClientContext(
                client_id=c, round_index=1, global_params=global_params, model=model,
                task=tiny_image_task, config=config, rng=np.random.default_rng(c), state={},
            )
            for c in range(4)
        ]
        for update in m.cohort_update(ctxs):
            assert "mean_loss" in vars(update)  # filled in, not computed on read
            assert len(update.train_losses) == V
            expected = np.float64(np.mean(update.train_losses))
            assert np.float64(update.mean_loss).tobytes() == expected.tobytes()


class TestElementMaskedSGD:
    """Element masks train through the same loop and RowSpace masking
    as row masks."""

    def test_dropped_entries_stay_zero(self, tiny_image_task, rng):
        model = build_model(tiny_image_task.model_spec, rng)
        space = RowSpace.from_module(model)
        masks = {
            "net.layer0.weight": rng.random((8, 12)) < 0.5,
        }
        space.zero_dropped_rows(bind_masks(model, mask_pairs(masks)))
        optimizer = SGD(model.parameters(), lr=0.5, momentum=0.9)
        batcher = LoneBatcher(tiny_image_task, 0, 8, rng)
        run_local_sgd(model, optimizer, batcher, 5, rowspace=space, masks=mask_pairs(masks))
        p = dict(model.named_parameters())["net.layer0.weight"]
        dropped = p.data[~masks["net.layer0.weight"]]
        assert np.all(dropped == 0.0) and not np.any(np.signbit(dropped))

    def test_scaling_applied_and_removable(self, tiny_image_task, fast_config, rng):
        """A run's start load scales kept entries up; FedDrop's upload
        scales them back to the global values, bit for bit."""
        model = build_model(tiny_image_task.model_spec, rng)
        method = FedDrop()
        method.setup(model, tiny_image_task, fast_config.with_overrides(dropout_rate=0.5), rng)
        global_params = ParamSet.from_module(model)
        ctx = ClientContext(
            client_id=0, round_index=1, global_params=global_params, model=model,
            task=tiny_image_task, config=method.config, rng=rng, state={},
        )
        run = method.local_start(ctx)
        assert run.scale == 2.0
        run.weights = {name: p.data for name, p in model.named_parameters()}
        run.load()
        name = "net.layer0.weight"
        mask = run.masks[name]
        np.testing.assert_array_equal(run.weights[name][mask], 2.0 * global_params[name][mask])
        assert np.all(run.weights[name][~mask] == 0.0)
        update = method.upload(run)
        for key, value in update.payload.params.items():
            kept = run.masks.get(key, np.ones(value.shape, dtype=bool))
            assert value[kept].tobytes() == global_params[key][kept].tobytes()

    def test_gradient_masking(self, tiny_image_task, rng):
        model = build_model(tiny_image_task.model_spec, rng)
        batcher = LoneBatcher(tiny_image_task, 0, 8, rng)
        _, grads = model.loss_and_grads(batcher.next_batch())
        mask = np.zeros((8, 12), dtype=bool)
        bound = bind_masks(model, mask_pairs({"net.layer0.weight": mask}))
        RowSpace.from_module(model).mask_model_gradients(grads, bound)
        assert np.all(grads[0] == 0.0) and np.any(grads[2] != 0.0)

    def test_apply_element_masks(self, tiny_image_task, rng):
        model = build_model(tiny_image_task.model_spec, rng)
        mask = np.zeros((8, 12), dtype=bool)
        bound = bind_masks(model, mask_pairs({"net.layer0.weight": mask}))
        RowSpace.from_module(model).zero_dropped_rows(bound)
        p = dict(model.named_parameters())["net.layer0.weight"]
        assert np.all(p.data == 0.0) and not np.any(np.signbit(p.data))


class TestFederatedMethodBase:
    def test_base_client_update_abstract(self, tiny_image_task, fast_config, rng):
        method = FederatedMethod()
        model = build_model(tiny_image_task.model_spec, rng)
        method.setup(model, tiny_image_task, fast_config, rng)
        ctx = ClientContext(
            client_id=0, round_index=1,
            global_params=ParamSet.from_module(model), model=model,
            task=tiny_image_task,
            config=fast_config, rng=rng, state={},
        )
        with pytest.raises(NotImplementedError):
            method.client_update(ctx)

    def test_download_bits_dense(self, tiny_image_task, fast_config, rng):
        method = FederatedMethod()
        model = build_model(tiny_image_task.model_spec, rng)
        method.setup(model, tiny_image_task, fast_config, rng)
        params = ParamSet.from_module(model)
        assert method.download_bits(params) == 32 * params.num_weights

    def test_make_optimizer_uses_config(self, tiny_image_task, fast_config, rng):
        method = FederatedMethod()
        model = build_model(tiny_image_task.model_spec, rng)
        method.setup(model, tiny_image_task, fast_config, rng)
        opt = method.make_optimizer(model)
        assert opt.lr == fast_config.lr


class TestEvaluate:
    def test_perfect_model_scores_one(self, tiny_image_task, rng):
        class Oracle:
            def predict_logits(self, x):
                # peak at the true class via nearest prototype reconstruction
                return x @ protos.T

        xs, ys = tiny_image_task.test_data
        protos = np.stack([xs[ys == c].mean(axis=0) for c in range(4)])
        loss, acc = evaluate(Oracle(), tiny_image_task)
        assert acc > 0.9

    def test_uniform_model_matches_chance(self, tiny_text_task):
        class Uniform:
            def predict_logits(self, x):
                return np.zeros(x.shape + (12,))

        loss, acc = evaluate(Uniform(), tiny_text_task)
        assert loss == pytest.approx(np.log(12), rel=1e-6)
        assert acc == pytest.approx(3 / 12, abs=0.1)
