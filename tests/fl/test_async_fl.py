"""Tests for FedBuff-style buffered async aggregation.

The hard requirement under test: at a fixed seed the async trajectory —
including virtual-clock, staleness and flush columns — is bit-identical
across reruns, because arrival order derives from virtual (never host)
time.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.fedavg import FedAvg
from repro.core.client import FedBIAD
from repro.fl.config import FLConfig
from repro.fl.simulation import FederatedSimulation, run_simulation


def _async_history_key(history):
    """Every trajectory-deterministic column, virtual clock included.

    Only the host-measured ``lttr_seconds_mean`` is excluded.
    """
    return tuple(
        history.series(key).tobytes()
        for key in (
            "train_loss",
            "test_loss",
            "test_accuracy",
            "upload_bits_mean",
            "upload_bits_total",
            "n_selected",
            "n_scheduled",
            "sim_round_seconds",
            "sim_clock_seconds",
            "flush_index",
            "staleness_mean",
            "staleness_max",
        )
    )


def _learning_key(history):
    """The learning-trajectory columns shared by sync and async runs."""
    return tuple(
        history.series(key).tobytes()
        for key in ("train_loss", "test_accuracy", "upload_bits_total", "n_selected")
    )


def _clock_key(history):
    """The simulated-clock columns shared by sync and async runs."""
    return tuple(
        history.series(key).tobytes()
        for key in ("sim_clock_seconds", "sim_round_seconds", "sim_compute_seconds_mean")
    )


@pytest.fixture
def async_config(session_config) -> FLConfig:
    """Straggler-profile async run: virtual compute, staleness > 0."""
    return session_config.with_overrides(
        rounds=5, mode="async", buffer_size=1, system="straggler"
    )


class TestAsyncConfig:
    def test_mode_validated(self):
        with pytest.raises(ValueError):
            FLConfig(mode="semi-sync")

    @pytest.mark.parametrize(
        "kwargs",
        [{"buffer_size": -1}, {"staleness_exponent": -0.1}, {"max_concurrency": -2}],
    )
    def test_async_fields_validated(self, kwargs):
        with pytest.raises(ValueError):
            FLConfig(**kwargs)

    def test_zero_resolves_to_cohort(self):
        cfg = FLConfig(kappa=0.5)
        assert cfg.resolved_buffer_size(6) == 3
        assert cfg.resolved_max_concurrency(6) == 3
        explicit = FLConfig(kappa=0.5, buffer_size=2, max_concurrency=100)
        assert explicit.resolved_buffer_size(6) == 2
        assert explicit.resolved_max_concurrency(6) == 6  # capped by fleet


class TestAsyncEquivalence:
    def test_serial_repeat_bit_identical(self, session_image_task, async_config):
        h1 = run_simulation(session_image_task, FedBIAD(), async_config)
        h2 = run_simulation(session_image_task, FedBIAD(), async_config)
        assert _async_history_key(h1) == _async_history_key(h2)

    def test_buffer_at_cohort_reduces_to_sync_under_ideal(
        self, session_image_task, session_config
    ):
        """buffer_size == cohort == max_concurrency under the ideal
        profile: every flush holds exactly one zero-staleness wave, so
        the async trajectory equals the sync one bit-for-bit — the
        simulated clock included, since both modes run local compute on
        the same virtual base."""
        cfg = session_config.with_overrides(rounds=3)
        sync = run_simulation(session_image_task, FedAvg(), cfg)
        asyn = run_simulation(session_image_task, FedAvg(), cfg.with_overrides(mode="async"))
        assert _learning_key(sync) == _learning_key(asyn)
        assert _clock_key(sync) == _clock_key(asyn)
        assert np.all(asyn.series("staleness_max") == 0)

    def test_buffer_above_cohort_also_reduces(self, session_image_task, session_config):
        """An oversized buffer flushes when the event queue drains, so
        buffer_size >= cohort behaves identically to == cohort."""
        cfg = session_config.with_overrides(rounds=3)
        sync = run_simulation(session_image_task, FedAvg(), cfg)
        asyn = run_simulation(
            session_image_task, FedAvg(), cfg.with_overrides(mode="async", buffer_size=100)
        )
        assert _learning_key(sync) == _learning_key(asyn)
        assert _clock_key(sync) == _clock_key(asyn)


class TestStalenessWeighting:
    @staticmethod
    def _flush_weights(sim) -> list[np.ndarray]:
        """Run every flush, reading the latest flush's weights after each."""
        weights = []
        for flush in range(1, sim.config.rounds + 1):
            record = sim.run_round(flush)
            sim.history.append(record)
            assert sim.flush_weights.shape == (record.n_selected,)
            weights.append(sim.flush_weights)
        return weights

    def test_weights_sum_to_one_at_each_flush(self, session_image_task, async_config):
        sim = FederatedSimulation(session_image_task, FedBIAD(), async_config)
        assert sim.flush_weights is None
        for weights in self._flush_weights(sim):
            assert weights.shape[0] >= 1
            assert np.all(weights > 0)
            assert float(weights.sum()) == pytest.approx(1.0, abs=1e-12)

    def test_staleness_appears_with_small_buffer(self, session_image_task, async_config):
        history = run_simulation(session_image_task, FedAvg(), async_config)
        assert history.series("staleness_max").max() > 0
        assert history.mean_staleness() > 0.0

    def test_staleness_discounts_effective_weight(self, session_image_task, async_config):
        """A stale update's normalized weight shrinks as beta grows."""
        flat, steep = (
            self._flush_weights(FederatedSimulation(
                session_image_task,
                FedAvg(),
                async_config.with_overrides(staleness_exponent=beta, buffer_size=2),
            ))
            for beta in (0.0, 4.0)
        )
        # beta = 0 keeps data-size weighting; some flush must show the
        # steep run pushing weight away from its stalest member
        assert any(not np.allclose(a, b) for a, b in zip(flat, steep))


class TestAsyncSemantics:
    def test_no_stragglers_in_async(self, session_image_task, async_config):
        history = run_simulation(session_image_task, FedAvg(), async_config)
        assert np.all(history.series("n_stragglers") == 0)
        assert np.all(history.participation() == 1.0)

    def test_flush_index_matches_round(self, session_image_task, async_config):
        history = run_simulation(session_image_task, FedAvg(), async_config)
        np.testing.assert_array_equal(
            history.series("flush_index"), history.series("round_index")
        )
        assert np.all(np.diff(history.series("sim_clock_seconds")) >= 0)

    def test_sync_records_have_zero_async_columns(
        self, session_image_task, session_config
    ):
        history = run_simulation(session_image_task, FedAvg(), session_config)
        assert np.all(history.series("flush_index") == 0)
        assert np.all(history.series("staleness_max") == 0)

    def test_run_simulation_dispatches_on_mode(self, session_image_task, session_config):
        cfg = session_config.with_overrides(mode="async")
        assert FederatedSimulation(session_image_task, FedAvg(), session_config).mode == "sync"
        assert FederatedSimulation(session_image_task, FedAvg(), cfg).mode == "async"
        history = run_simulation(session_image_task, FedAvg(), cfg)
        assert np.all(history.series("flush_index") > 0)

    def test_small_buffer_flushes_faster_than_sync_rounds(
        self, session_image_task, async_config
    ):
        """With buffer_size=1 each flush waits for one arrival, so sim
        time per record stays below the sync barrier's full-wave cost."""
        sync_cfg = async_config.with_overrides(mode="sync", system="straggler")
        sync = run_simulation(session_image_task, FedAvg(), sync_cfg)
        asyn = run_simulation(session_image_task, FedAvg(), async_config)
        assert asyn.total_sim_seconds < sync.total_sim_seconds
