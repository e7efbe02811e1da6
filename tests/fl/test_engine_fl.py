"""Tests for the execution engine (repro.fl.engine): one client's round,
run serially in selection order by the simulation."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.baselines.fedavg import FedAvg
from repro.core.client import FedBIAD
from repro.experiments.context import ExecutionContext
from repro.fl import engine
from repro.fl.config import FLConfig
from repro.fl.simulation import FederatedSimulation, run_simulation


class TestSerialEngine:
    def test_client_state_persists_across_rounds(self, session_image_task, session_config):
        """FedBIAD scores written in one round are there in the next."""
        sim = FederatedSimulation(session_image_task, FedBIAD(), session_config)
        for r in range(1, 3):
            sim.run_round(r)
        assert any("scores" in s for s in sim.client_states.values())

    def test_cohort_runs_through_module_level_execute_client(
        self, session_image_task, session_config, monkeypatch
    ):
        """The round loop resolves ``engine.execute_client`` at call time,
        so a wrapper installed on the module sees every selected client
        in selection order."""
        seen = []
        original = engine.execute_client

        def recording(*args, **kwargs):
            result = original(*args, **kwargs)
            seen.append(result.client_id)
            return result

        monkeypatch.setattr(engine, "execute_client", recording)
        selected = []
        select = FederatedSimulation._select_clients

        def logged(self, *args, **kwargs):
            ids = select(self, *args, **kwargs)
            selected.extend(int(c) for c in ids)
            return ids

        monkeypatch.setattr(FederatedSimulation, "_select_clients", logged)
        FederatedSimulation(session_image_task, FedAvg(), session_config).run_round(1)
        assert seen == selected and seen

    def test_non_serial_backend_rejected(self):
        """``"serial"`` is the only engine; the error points at sweep sharding."""
        with pytest.raises(ValueError, match="--shards"):
            FLConfig(backend="process")
        with pytest.raises(ValueError, match="--shards"):
            ExecutionContext(backend="process")


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
