"""Tests for the pluggable execution backends (repro.fl.engine)."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.baselines.fedavg import FedAvg
from repro.core.client import FedBIAD
from repro.fl.engine import (
    BACKEND_NAMES,
    ProcessPoolBackend,
    SerialBackend,
    make_backend,
)
from repro.fl.simulation import FederatedSimulation, run_simulation


def _history_key(history):
    """The deterministic columns of a run (wall-clock fields excluded)."""
    return (
        history.series("train_loss").tobytes(),
        history.series("test_accuracy").tobytes(),
        history.series("upload_bits_total").tobytes(),
        history.series("n_selected").tobytes(),
        history.series("n_scheduled").tobytes(),
    )


class TestMakeBackend:
    def test_registry_names(self):
        assert set(BACKEND_NAMES) == {"serial", "process"}
        assert isinstance(make_backend("serial"), SerialBackend)
        assert isinstance(make_backend("process", workers=2), ProcessPoolBackend)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            make_backend("gpu")

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            ProcessPoolBackend(workers=-1)

    def test_zero_workers_means_all_cores(self):
        assert ProcessPoolBackend(workers=0).workers >= 1


class TestBackendEquivalence:
    def test_default_backend_is_serial_reference(self, session_image_task, session_config):
        """A config with no backend field set runs through SerialBackend
        and matches an explicitly-passed one.

        Note this is *not* equivalence with the pre-refactor seed
        commit: client selection intentionally moved from shared-rng
        call order to per-(seed, round) streams, so cohorts — and hence
        regenerated table numbers — differ from pre-PR baselines by
        design (see CHANGES.md).
        """
        h1 = run_simulation(session_image_task, FedAvg(), session_config)
        h2 = run_simulation(
            session_image_task, FedAvg(), session_config, backend=SerialBackend()
        )
        assert _history_key(h1) == _history_key(h2)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_process_pool_bit_identical(self, session_image_task, session_config, workers):
        """Same History regardless of worker count (acceptance criterion)."""
        serial = run_simulation(
            session_image_task, FedBIAD(), session_config, backend=SerialBackend()
        )
        with ProcessPoolBackend(workers=workers) as backend:
            pooled = run_simulation(
                session_image_task, FedBIAD(), session_config, backend=backend
            )
        assert _history_key(serial) == _history_key(pooled)

    def test_process_pool_persists_client_state(self, session_image_task, session_config):
        """FedBIAD scores survive the round trip through worker processes."""
        sim = FederatedSimulation(
            session_image_task,
            FedBIAD(),
            session_config,
            backend=ProcessPoolBackend(workers=2),
        )
        try:
            for r in range(1, 3):
                sim.run_round(r)
            assert any("scores" in s for s in sim.client_states.values())
        finally:
            sim.close()

    def test_wrapped_method_survives_task_stripping(
        self, session_image_task, session_config
    ):
        """CombinedMethod nests a base method; both hold task references
        that must be masked out of the job pickle and re-attached."""
        from repro.compression.registry import make_sketched

        serial = run_simulation(
            session_image_task,
            make_sketched("fedbiad+dgc"),
            session_config,
            backend=SerialBackend(),
        )
        with ProcessPoolBackend(workers=2) as backend:
            pooled = run_simulation(
                session_image_task,
                make_sketched("fedbiad+dgc"),
                session_config,
                backend=backend,
            )
        assert _history_key(serial) == _history_key(pooled)

    def test_config_selects_backend(self, session_image_task, session_config):
        cfg = session_config.with_overrides(backend="process", workers=2)
        sim = FederatedSimulation(session_image_task, FedAvg(), cfg)
        try:
            assert isinstance(sim.backend, ProcessPoolBackend)
            assert sim.backend.workers == 2
        finally:
            sim.close()

    def test_backend_close_idempotent(self):
        backend = ProcessPoolBackend(workers=1)
        backend.close()
        backend.close()

    def test_context_manager_closes_pool(self, session_image_task, session_config):
        with ProcessPoolBackend(workers=1) as backend:
            run_simulation(
                session_image_task, FedAvg(), session_config, backend=backend
            )
        assert backend._pool is None


class _Diverging(FedAvg):
    """FedAvg whose local updates report a NaN training loss."""

    name = "diverging"

    def client_update(self, ctx):
        update = super().client_update(ctx)
        return replace(update, train_losses=[*update.train_losses, float("nan")])


class TestDivergence:
    def test_nan_client_loss_fails_fast(self, tiny_image_task, fast_config):
        with pytest.raises(FloatingPointError, match=r"round 1, client \d+: diverging"):
            run_simulation(tiny_image_task, _Diverging(), fast_config)
