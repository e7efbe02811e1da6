"""Tests for the RowSpace pattern index (incl. grouped LSTM units)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fl.parameters import ParamSet
from repro.fl.rows import RowSpace, bind_masks
from repro.nn.module import RowSpec
from tests.conftest import mask_pairs


def mlp_space(tiny_mlp) -> RowSpace:
    return RowSpace.from_module(tiny_mlp)


class TestConstruction:
    def test_from_mlp(self, tiny_mlp):
        space = RowSpace.from_module(tiny_mlp)
        # only the hidden layer is droppable (5 rows)
        assert space.total_rows == 5
        assert space.droppable_weights == 5 * 6

    def test_from_lstm_grouped(self, tiny_lstm):
        space = RowSpace.from_module(tiny_lstm)
        # embedding: 9 vocab rows; each LSTM cell: 5 units for w_x + 5 for w_h
        assert space.total_rows == 9 + 4 * 5
        block = space.block("lstm.cell0.w_x")
        assert block.rows_per_unit == 4
        assert block.weights_per_unit == 4 * 5

    def test_empty_specs_rejected(self):
        with pytest.raises(ValueError):
            RowSpace([])

    def test_has_and_block(self, tiny_mlp):
        space = RowSpace.from_module(tiny_mlp)
        assert space.has("net.layer0.weight")
        assert not space.has("net.layer2.weight")


class TestPatternSampling:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(p=st.floats(0.0, 0.9), seed=st.integers(0, 100))
    def test_exact_keep_counts(self, tiny_lstm, p, seed):
        space = RowSpace.from_module(tiny_lstm)
        beta = space.sample_pattern(p, np.random.default_rng(seed))
        counts = space.keep_counts(p)
        for block in space.blocks:
            kept = beta[block.offset : block.stop].sum()
            assert kept == counts[block.name]

    def test_at_least_one_unit_kept(self, tiny_lstm):
        space = RowSpace.from_module(tiny_lstm)
        beta = space.sample_pattern(0.89, np.random.default_rng(0))
        for block in space.blocks:
            assert beta[block.offset : block.stop].sum() >= 1

    def test_invalid_rate(self, tiny_mlp):
        space = RowSpace.from_module(tiny_mlp)
        with pytest.raises(ValueError):
            space.keep_counts(1.0)

    def test_full_pattern(self, tiny_mlp):
        space = RowSpace.from_module(tiny_mlp)
        assert space.full_pattern().all()

    def test_unsparse_number_monotone(self, tiny_lstm):
        space = RowSpace.from_module(tiny_lstm)
        values = [space.unsparse_number(p) for p in (0.0, 0.3, 0.6, 0.8)]
        assert values == sorted(values, reverse=True)
        assert values[0] == space.droppable_weights


class TestScorePatterns:
    def test_keeps_top_scored(self, tiny_mlp):
        space = RowSpace.from_module(tiny_mlp)
        scores = np.array([5.0, 1.0, 4.0, 2.0, 3.0])
        beta = space.pattern_from_scores(scores, 0.4)  # keep ceil(0.6*5)=3
        np.testing.assert_array_equal(beta, [True, False, True, False, True])

    def test_tie_break_deterministic(self, tiny_mlp):
        space = RowSpace.from_module(tiny_mlp)
        beta = space.pattern_from_scores(np.zeros(5), 0.4)
        np.testing.assert_array_equal(beta, [True, True, True, False, False])

    def test_same_count_as_stage_one(self, tiny_lstm, rng):
        space = RowSpace.from_module(tiny_lstm)
        scores = rng.normal(size=space.total_rows)
        beta = space.pattern_from_scores(scores, 0.5)
        beta_random = space.sample_pattern(0.5, rng)
        assert beta.sum() == beta_random.sum()

    def test_shape_checked(self, tiny_mlp):
        space = RowSpace.from_module(tiny_mlp)
        with pytest.raises(ValueError):
            space.pattern_from_scores(np.zeros(3), 0.5)


class TestMaskApplication:
    def test_split_join_roundtrip(self, tiny_lstm, rng):
        space = RowSpace.from_module(tiny_lstm)
        beta = space.sample_pattern(0.5, rng)
        np.testing.assert_array_equal(space.join(space.split(beta)), beta)

    def test_split_expands_gate_groups(self, tiny_lstm, rng):
        space = RowSpace.from_module(tiny_lstm)
        beta = space.sample_pattern(0.5, rng)
        masks = space.split(beta)
        wx = masks["lstm.cell0.w_x"]
        assert wx.shape == (20,)  # 4 gates x 5 units
        # the four gate rows of one unit share one bit
        np.testing.assert_array_equal(wx[0:5], wx[5:10])
        np.testing.assert_array_equal(wx[0:5], wx[15:20])

    def test_apply_pattern_zeroes_dropped(self, tiny_lstm, rng):
        space = RowSpace.from_module(tiny_lstm)
        params = ParamSet.from_module(tiny_lstm)
        beta = space.sample_pattern(0.5, rng)
        masked = space.apply_pattern(params, beta)
        masks = space.split(beta)
        for name, mask in masks.items():
            assert np.all(masked[name][~mask] == 0.0)
            np.testing.assert_array_equal(masked[name][mask], params[name][mask])

    def test_apply_pattern_keeps_dense(self, tiny_lstm, rng):
        space = RowSpace.from_module(tiny_lstm)
        params = ParamSet.from_module(tiny_lstm)
        beta = space.sample_pattern(0.5, rng)
        masked = space.apply_pattern(params, beta)
        np.testing.assert_array_equal(masked["decoder_bias"], params["decoder_bias"])

    def test_kept_weights_matches_masks(self, tiny_lstm, rng):
        space = RowSpace.from_module(tiny_lstm)
        beta = space.sample_pattern(0.3, rng)
        masks = space.split(beta)
        manual = 0
        for block in space.blocks:
            manual += masks[block.name].sum() * block.row_len
        assert space.kept_weights(beta) == manual

    def test_gradient_masking(self, tiny_lstm, rng):
        space = RowSpace.from_module(tiny_lstm)
        beta = space.sample_pattern(0.5, rng)
        masks = space.split(beta)
        x = rng.integers(0, 9, size=(2, 4))
        y = rng.integers(0, 9, size=(2, 4))
        _, grads = tiny_lstm.loss_and_grads((x, y))
        space.mask_model_gradients(grads, bind_masks(tiny_lstm, mask_pairs(masks)))
        for (name, _), grad in zip(tiny_lstm.named_parameters(), grads):
            if name in masks and grad is not None:
                assert np.all(grad[~masks[name]] == 0.0)

    def test_zero_dropped_rows(self, tiny_lstm, rng):
        space = RowSpace.from_module(tiny_lstm)
        beta = space.sample_pattern(0.5, rng)
        masks = space.split(beta)
        space.zero_dropped_rows(bind_masks(tiny_lstm, mask_pairs(masks)))
        for name, p in tiny_lstm.named_parameters():
            if name in masks:
                assert np.all(p.data[~masks[name]] == 0.0)

    def test_binding_sees_in_place_rewrites(self, tiny_lstm, rng):
        """A binding holds views of ``(keep, drop)`` pairs, so a pair
        rewritten in place (a stack's per-client swap) takes effect at
        the next masking and pin."""
        space = RowSpace.from_module(tiny_lstm)
        pairs = mask_pairs(space.split(space.full_pattern()))
        bound = bind_masks(tiny_lstm, pairs)
        for keep, drop in pairs.values():
            keep[...] = 0.0
            drop[...] = True
        _, grads = tiny_lstm.loss_and_grads(
            (rng.integers(0, 9, size=(2, 4)), rng.integers(0, 9, size=(2, 4)))
        )
        space.mask_model_gradients(grads, bound)
        space.zero_dropped_rows(bound)
        for (name, p), grad in zip(tiny_lstm.named_parameters(), grads):
            if name in pairs:
                assert np.all(p.data == 0.0) and np.all(grad == 0.0)
