"""Tests for masked weighted aggregation (Eq. 10 and per-row variant)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fl.aggregation import AGGREGATION_MODES, ClientPayload, aggregate
from repro.fl.parameters import ParamSet


def ps(value, shape=(3, 2)):
    return ParamSet({"w": np.full(shape, float(value)), "b": np.full(shape[0], float(value))})


class TestDenseAggregation:
    def test_weighted_mean(self):
        out = aggregate(
            [ClientPayload(ps(1.0), weight=1.0), ClientPayload(ps(4.0), weight=3.0)],
            prev_global=ps(0.0),
        )
        np.testing.assert_allclose(out["w"], np.full((3, 2), 3.25))

    def test_single_client_identity(self):
        out = aggregate([ClientPayload(ps(2.0), weight=5.0)], prev_global=ps(0.0))
        np.testing.assert_allclose(out["w"], np.full((3, 2), 2.0))

    def test_unmasked_equals_every_entry_held(self):
        """Unmasked payloads divide by the running weight sum and match,
        bit for bit, the same payloads under masks that hold everything."""
        rng = np.random.default_rng(4)
        prev = ParamSet({"w": rng.normal(size=(4, 3)), "b": rng.normal(size=3)})
        payloads = [
            ClientPayload(ParamSet({n: rng.normal(size=v.shape) for n, v in prev.items()}), w)
            for w in (3.0, 1.5, 7.25, 0.1, 32.0)
        ]
        held = [
            ClientPayload(p.params, p.weight, {n: np.ones(v.shape, bool) for n, v in prev.items()})
            for p in payloads
        ]
        ours, reference = aggregate(payloads, prev), aggregate(held, prev)
        for name in prev:
            assert ours[name].tobytes() == reference[name].tobytes()

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            aggregate([], prev_global=ps(0.0))

    def test_zero_weight_raises(self):
        with pytest.raises(ValueError):
            aggregate([ClientPayload(ps(1.0), weight=0.0)], prev_global=ps(0.0))

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            aggregate([ClientPayload(ps(1.0), weight=1.0)], ps(0.0), mode="magic")


class TestPerRowAggregation:
    def test_row_held_by_one_client(self):
        a = ps(2.0)
        b = ps(6.0)
        mask_a = {"w": np.array([True, True, False])}
        mask_b = {"w": np.array([True, False, False])}
        # zero out dropped rows as clients would
        a["w"][~mask_a["w"]] = 0.0
        b["w"][~mask_b["w"]] = 0.0
        out = aggregate(
            [
                ClientPayload(a, weight=1.0, masks=mask_a),
                ClientPayload(b, weight=1.0, masks=mask_b),
            ],
            prev_global=ps(-1.0),
        )
        np.testing.assert_allclose(out["w"][0], np.full(2, 4.0))  # both hold
        np.testing.assert_allclose(out["w"][1], np.full(2, 2.0))  # only a holds
        np.testing.assert_allclose(out["w"][2], np.full(2, -1.0))  # nobody: prev

    def test_elementwise_masks(self):
        a = ps(2.0)
        mask = {"w": np.zeros((3, 2), dtype=bool)}
        mask["w"][0, 0] = True
        out = aggregate(
            [ClientPayload(a, weight=1.0, masks=mask)], prev_global=ps(-1.0)
        )
        assert out["w"][0, 0] == 2.0
        assert out["w"][2, 1] == -1.0

    def test_unmasked_params_aggregate_densely(self):
        a = ps(2.0)
        mask = {"w": np.array([False, False, False])}
        out = aggregate(
            [ClientPayload(a, weight=1.0, masks=mask)], prev_global=ps(-1.0)
        )
        np.testing.assert_allclose(out["b"], np.full(3, 2.0))

    def test_bad_mask_shape(self):
        a = ps(2.0)
        payload = ClientPayload(a, weight=1.0, masks={"w": np.zeros((4,), dtype=bool)})
        with pytest.raises(ValueError):
            aggregate([payload], prev_global=ps(0.0))


class TestPaperLiteralMode:
    def test_dropped_rows_shrink(self):
        a = ps(4.0)
        mask = {"w": np.array([True, False, True])}
        a["w"][1] = 0.0
        out = aggregate(
            [
                ClientPayload(a, weight=1.0, masks=mask),
                ClientPayload(ps(4.0), weight=1.0),
            ],
            prev_global=ps(0.0),
            mode="paper-literal",
        )
        # row 1: (0 + 4) / 2 = 2 — literal Eq. (10) shrinkage
        np.testing.assert_allclose(out["w"][1], np.full(2, 2.0))

    def test_matches_per_row_when_full(self):
        payloads = [
            ClientPayload(ps(1.0), weight=2.0),
            ClientPayload(ps(5.0), weight=1.0),
        ]
        literal = aggregate(payloads, ps(0.0), mode="paper-literal")
        per_row = aggregate(payloads, ps(0.0), mode="per-row")
        assert literal.allclose(per_row)


# ----------------------------------------------------------------------
# property-style edge cases (randomized payload populations)
# ----------------------------------------------------------------------

ROWS, COLS = 4, 3


def _random_payloads(seed: int, n_payloads: int, masks: list[np.ndarray]) -> list[ClientPayload]:
    """Payloads with seeded random params/weights; dropped rows zeroed."""
    rng = np.random.default_rng(seed)
    payloads = []
    for mask in masks[:n_payloads]:
        w = rng.normal(size=(ROWS, COLS))
        w[~mask] = 0.0
        payloads.append(
            ClientPayload(
                ParamSet({"w": w}),
                weight=float(rng.uniform(0.5, 5.0)),
                masks={"w": mask.copy()},
            )
        )
    return payloads


mask_rows = st.lists(st.booleans(), min_size=ROWS, max_size=ROWS)


class TestAggregationProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        raw_masks=st.lists(mask_rows, min_size=1, max_size=4),
        dead_row=st.integers(0, ROWS - 1),
    )
    def test_row_dropped_by_all_keeps_previous_global(self, seed, raw_masks, dead_row):
        """Per-row: a row no payload held is *exactly* the previous
        global value; rows somebody held equal the weighted mean over
        their holders."""
        masks = [np.array(m, dtype=bool) for m in raw_masks]
        for mask in masks:
            mask[dead_row] = False
        payloads = _random_payloads(seed, len(masks), masks)
        prev = ParamSet({"w": np.random.default_rng(seed + 1).normal(size=(ROWS, COLS))})
        out = aggregate(payloads, prev, mode="per-row")
        np.testing.assert_array_equal(out["w"][dead_row], prev["w"][dead_row])
        for row in range(ROWS):
            holders = [p for p, m in zip(payloads, masks) if m[row]]
            if not holders:
                np.testing.assert_array_equal(out["w"][row], prev["w"][row])
                continue
            total = sum(p.weight for p in holders)
            expected = sum(p.weight * p.params["w"][row] for p in holders) / total
            np.testing.assert_allclose(out["w"][row], expected, rtol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        raw_masks=st.lists(mask_rows, min_size=1, max_size=4),
        mode=st.sampled_from(AGGREGATION_MODES),
    )
    def test_elementwise_and_row_masks_agree_when_broadcast(self, seed, raw_masks, mode):
        """A row mask and its elementwise broadcast produce identical
        aggregates, in both modes."""
        masks = [np.array(m, dtype=bool) for m in raw_masks]
        row_payloads = _random_payloads(seed, len(masks), masks)
        elem_payloads = _random_payloads(seed, len(masks), masks)
        for p in elem_payloads:
            p.masks["w"] = np.broadcast_to(
                p.masks["w"][:, None], (ROWS, COLS)
            ).copy()
        prev = ParamSet({"w": np.random.default_rng(seed + 1).normal(size=(ROWS, COLS))})
        by_row = aggregate(row_payloads, prev, mode=mode)
        by_elem = aggregate(elem_payloads, prev, mode=mode)
        np.testing.assert_array_equal(by_row["w"], by_elem["w"])

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        scale=st.sampled_from([0.0, -1.0, -3.5]),
        mode=st.sampled_from(AGGREGATION_MODES),
    )
    def test_zero_or_negative_total_weight_raises(self, seed, scale, mode):
        """Both modes reject populations whose total weight is <= 0."""
        masks = [np.ones(ROWS, dtype=bool)] * 2
        payloads = _random_payloads(seed, 2, masks)
        for p in payloads:
            p.weight *= scale
        prev = ParamSet({"w": np.zeros((ROWS, COLS))})
        with pytest.raises(ValueError):
            aggregate(payloads, prev, mode=mode)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), dead_row=st.integers(0, ROWS - 1))
    def test_paper_literal_shrinks_all_dropped_row_to_zero(self, seed, dead_row):
        """Eq. (10) verbatim: an all-dropped row sums zero contributions
        and divides by the full weight — it collapses to exactly zero,
        the documented contrast with per-row's keep-previous rule."""
        masks = [np.ones(ROWS, dtype=bool) for _ in range(3)]
        for mask in masks:
            mask[dead_row] = False
        payloads = _random_payloads(seed, 3, masks)
        prev = ParamSet({"w": np.random.default_rng(seed + 1).normal(size=(ROWS, COLS))})
        out = aggregate(payloads, prev, mode="paper-literal")
        np.testing.assert_array_equal(out["w"][dead_row], np.zeros(COLS))
