"""Integration tests for the FedBIAD client and wire format."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.client import FedBIAD
from repro.core.wire import pack_upload, reconstruct_upload
from repro.fl.client import ClientContext
from repro.fl.config import FLConfig
from repro.fl.parameters import ParamSet
from repro.fl.rows import RowSpace
from repro.fl.simulation import FederatedSimulation, run_simulation
from repro.fl.sizing import dense_bits
from repro.nn.models import build_model


class TestWireFormat:
    def test_roundtrip(self, tiny_lstm, rng):
        space = RowSpace.from_module(tiny_lstm)
        params = ParamSet.from_module(tiny_lstm)
        beta = space.sample_pattern(0.5, rng)
        masked = space.apply_pattern(params, beta)
        upload = pack_upload(masked, space, beta)
        recon = reconstruct_upload(upload, space, masked)
        assert recon.allclose(masked)

    def test_upload_contains_only_kept_rows(self, tiny_lstm, rng):
        space = RowSpace.from_module(tiny_lstm)
        params = ParamSet.from_module(tiny_lstm)
        beta = space.sample_pattern(0.5, rng)
        upload = pack_upload(params, space, beta)
        masks = space.split(beta)
        for name, rows in upload.rows.items():
            assert rows.shape[0] == int(masks[name].sum())

    def test_bits_match_sizing(self, tiny_lstm, rng):
        space = RowSpace.from_module(tiny_lstm)
        params = ParamSet.from_module(tiny_lstm)
        beta = space.sample_pattern(0.5, rng)
        upload = pack_upload(params, space, beta)
        from repro.fl.sizing import masked_bits

        assert upload.bits(params, space) == masked_bits(params, space, beta)


def make_ctx(task, config, model, round_index=1, client_id=0, state=None):
    rng = np.random.default_rng(7)
    return ClientContext(
        client_id=client_id,
        round_index=round_index,
        global_params=ParamSet.from_module(model),
        model=model,
        task=task,
        config=config,
        rng=rng,
        state=state if state is not None else {},
    )


class TestFedBIADClient:
    def test_update_reports_masked_bits(self, tiny_image_task, fast_config):
        method = FedBIAD()
        model = build_model(tiny_image_task.model_spec, np.random.default_rng(0))
        method.setup(model, tiny_image_task, fast_config, np.random.default_rng(1))
        update = method.client_update(make_ctx(tiny_image_task, fast_config, model))
        assert update.upload_bits < dense_bits(update.payload.params)
        assert len(update.train_losses) == fast_config.local_iterations
        assert "pattern" in update.aux

    def test_dropped_rows_zero_in_payload(self, tiny_image_task, fast_config):
        method = FedBIAD()
        model = build_model(tiny_image_task.model_spec, np.random.default_rng(0))
        method.setup(model, tiny_image_task, fast_config, np.random.default_rng(1))
        update = method.client_update(make_ctx(tiny_image_task, fast_config, model))
        beta = update.aux["pattern"]
        masks = method.rowspace.split(beta)
        for name, mask in masks.items():
            assert np.all(update.payload.params[name][~mask] == 0.0)

    def test_scores_accumulate_across_rounds(self, tiny_image_task, fast_config):
        method = FedBIAD()
        model = build_model(tiny_image_task.model_spec, np.random.default_rng(0))
        method.setup(model, tiny_image_task, fast_config, np.random.default_rng(1))
        state = {}
        method.client_update(make_ctx(tiny_image_task, fast_config, model, 1, 0, state))
        first = state["scores"].snapshot()
        method.client_update(make_ctx(tiny_image_task, fast_config, model, 2, 0, state))
        assert state["scores"].values.sum() >= first.sum()

    def test_stage_two_uses_scores(self, tiny_image_task, fast_config):
        cfg = fast_config.with_overrides(stage_boundary=1)
        method = FedBIAD()
        model = build_model(tiny_image_task.model_spec, np.random.default_rng(0))
        method.setup(model, tiny_image_task, cfg, np.random.default_rng(1))
        state = {}
        method.client_update(make_ctx(tiny_image_task, cfg, model, 1, 0, state))
        scores = state["scores"].values
        expected = method.rowspace.pattern_from_scores(scores, cfg.dropout_rate)
        update = method.client_update(make_ctx(tiny_image_task, cfg, model, 2, 0, state))
        np.testing.assert_array_equal(update.aux["pattern"], expected)

    def test_posterior_std_decreases_with_rounds(self, tiny_image_task, fast_config):
        method = FedBIAD()
        model = build_model(tiny_image_task.model_spec, np.random.default_rng(0))
        method.setup(model, tiny_image_task, fast_config, np.random.default_rng(1))
        assert method.posterior_std(1) > method.posterior_std(10) > 0.0

    def test_posterior_std_override(self, tiny_image_task, fast_config):
        cfg = fast_config.with_overrides(posterior_std_override=0.123)
        method = FedBIAD()
        model = build_model(tiny_image_task.model_spec, np.random.default_rng(0))
        method.setup(model, tiny_image_task, cfg, np.random.default_rng(1))
        assert method.posterior_std(5) == 0.123

    def test_no_bayesian_init_zero_std(self, tiny_image_task, fast_config):
        method = FedBIAD(bayesian_init=False)
        model = build_model(tiny_image_task.model_spec, np.random.default_rng(0))
        method.setup(model, tiny_image_task, fast_config, np.random.default_rng(1))
        assert method.posterior_std(3) == 0.0


class TestFedBIADEndToEnd:
    def test_learns_image_task(self, tiny_image_task):
        cfg = FLConfig(
            rounds=10, kappa=0.5, local_iterations=10, batch_size=10,
            lr=0.5, dropout_rate=0.3, tau=2, seed=0,
        )
        history = run_simulation(tiny_image_task, FedBIAD(), cfg)
        assert history.final_accuracy > 0.5

    def test_upload_scales_with_dropout_rate(self, tiny_image_task, fast_config):
        def upload_at(p):
            cfg = fast_config.with_overrides(dropout_rate=p, rounds=1)
            return run_simulation(tiny_image_task, FedBIAD(), cfg).mean_upload_bits()

        assert upload_at(0.6) < upload_at(0.3) < upload_at(0.0)

    def test_p_zero_matches_dense_size(self, tiny_image_task, fast_config):
        cfg = fast_config.with_overrides(dropout_rate=0.0, rounds=1)
        sim = FederatedSimulation(tiny_image_task, FedBIAD(), cfg)
        record = sim.run_round(1)
        dense = dense_bits(sim.global_params)
        # equal up to the 1-bit-per-row pattern overhead
        assert record.upload_bits_mean == dense + sim.method.rowspace.total_rows

    def test_paper_literal_aggregation_runs(self, tiny_image_task, fast_config):
        cfg = fast_config.with_overrides(aggregation="paper-literal", rounds=2)
        history = run_simulation(tiny_image_task, FedBIAD(), cfg)
        assert np.isfinite(history.final_accuracy)

    def test_text_task_runs(self, tiny_text_task):
        cfg = FLConfig(
            rounds=2, kappa=0.5, local_iterations=6, batch_size=4,
            lr=1.0, max_grad_norm=1.0, dropout_rate=0.5, tau=2, seed=0,
        )
        history = run_simulation(tiny_text_task, FedBIAD(), cfg)
        assert np.isfinite(history.final_accuracy)
        assert history.mean_upload_bits() < dense_bits(
            ParamSet.from_module(build_model(tiny_text_task.model_spec, np.random.default_rng(0)))
        )
