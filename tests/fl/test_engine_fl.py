"""Tests for the execution engine (repro.fl.engine): a cohort's local
rounds, run in one call per cohort, results in selection order."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.baselines.fedavg import FedAvg
from repro.core.client import FedBIAD
from repro.data.registry import FederatedTask, make_fleet_task
from repro.experiments.context import ExecutionContext
from repro.fl import engine
from repro.fl.client import ClientUpdate
from repro.fl.config import FLConfig
from repro.fl.simulation import FederatedSimulation, run_simulation
from repro.nn.models import MLPClassifier
from repro.streams import VECTOR_MIN_KEYS, stream


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
            results = original(*args, **kwargs)
            seen.extend(result.client_id for result in results)
            return results

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

    def test_each_client_draws_its_engine_stream(self, monkeypatch):
        """A fleet cohort's contexts carry the ``(seed, round, client)``
        engine streams, built in one pass, untouched when training starts."""
        task = make_fleet_task(5_000, seed=1)
        config = FLConfig(seed=4, kappa=0.004, local_iterations=2)
        method = FedAvg()
        seen = {}

        def capture(ctxs):
            seen.update((ctx.client_id, ctx.rng.bit_generator.state) for ctx in ctxs)
            return [ClientUpdate(payload=None, upload_bits=0, train_losses=[0.0]) for _ in ctxs]

        sim = FederatedSimulation(task, method, config)
        monkeypatch.setattr(method, "cohort_update", capture)
        ids = list(range(100, 100 + 2 * VECTOR_MIN_KEYS))
        engine.execute_client(
            task, method, sim.model, config, sim.global_params, 6, ids, [{} for _ in ids]
        )
        assert seen == {c: stream("engine", 4, 6, c).bit_generator.state for c in ids}

    def test_non_serial_backend_rejected(self):
        """``"serial"`` is the only engine; the error points at sweep sharding."""
        with pytest.raises(ValueError, match="--shards"):
            FLConfig(backend="process")
        with pytest.raises(ValueError, match="--shards"):
            ExecutionContext(backend="process")


class _Diverging(FedAvg):
    """FedAvg whose local updates report a NaN training loss, injected
    through the cohort hook the engine calls."""

    name = "diverging"

    def cohort_update(self, ctxs):
        return [
            replace(update, train_losses=[*update.train_losses, float("nan")])
            for update in super().cohort_update(ctxs)
        ]


def _nan_shards(bad: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Six 20-sample image clients; every image of client ``bad`` holds
    a NaN."""
    shards = []
    for client_id in range(6):
        gen = np.random.default_rng(client_id)
        x = gen.normal(size=(20, 12))
        if client_id == bad:
            x[:, 0] = np.nan
        shards.append((x, gen.integers(0, 4, size=20)))
    return shards


class TestDivergence:
    def test_nan_client_loss_fails_fast(self, tiny_image_task, fast_config):
        with pytest.raises(FloatingPointError, match=r"round 1, client \d+: diverging"):
            run_simulation(tiny_image_task, _Diverging(), fast_config)

    @pytest.mark.parametrize("method", [FedAvg, FedBIAD], ids=["fedavg", "fedbiad"])
    def test_nan_shard_names_its_client_on_the_stacked_path(
        self, fast_config, monkeypatch, method
    ):
        """A NaN in the last client's data diverges that client alone
        inside a stack, and the error names it (client 1 is last in
        seed 0's round-1 cohort)."""
        gen = np.random.default_rng(99)
        task = FederatedTask(
            name="nan-shard",
            kind="image",
            model_spec={"kind": "mlp", "input_dim": 12, "hidden_dims": (8,), "n_classes": 4},
            metric="top1",
            client_data=_nan_shards(bad=1),
            test_data=(gen.normal(size=(16, 12)), gen.integers(0, 4, size=16)),
        )
        stacks, cohorts = [], []
        loss_and_grads = MLPClassifier.loss_and_grads
        execute = engine.execute_client

        def recording(self, batch):
            stacks.append(np.shape(batch[1]))
            return loss_and_grads(self, batch)

        def logged(*args):
            cohorts.append([int(c) for c in args[6]])
            return execute(*args)

        monkeypatch.setattr(MLPClassifier, "loss_and_grads", recording)
        monkeypatch.setattr(engine, "execute_client", logged)
        name = method.name
        with pytest.raises(FloatingPointError, match=rf"round 1, client 1: {name}"):
            run_simulation(task, method(), fast_config.with_overrides(kappa=1.0))
        assert stacks[0] == (6, fast_config.batch_size)
        assert cohorts[0][-1] == 1


class TestUnusableShard:
    """A shard no batcher can draw from fails with the round and client."""

    def test_empty_image_shard(self, tiny_image_task, fast_config):
        shards = [tiny_image_task.client_payload(c) for c in range(4)]
        x, y = shards[2]
        shards[2] = (x[:0], y[:0])
        task = replace(tiny_image_task, client_data=shards)
        with pytest.raises(ValueError, match=r"round 1, client 2: empty client shard"):
            run_simulation(task, FedAvg(), fast_config.with_overrides(kappa=1.0))

    def test_bad_shard_inside_a_stack_names_its_client(self, tiny_image_task, tiny_text_task):
        """A stack's batcher names the client whose shard cannot form a
        batch, wherever it sits in the stack."""
        rngs = [np.random.default_rng(c) for c in range(3)]
        shards = [tiny_image_task.client_payload(c) for c in range(4)]
        shards[2] = tuple(a[:0] for a in shards[2])
        images = replace(tiny_image_task, client_data=shards)
        with pytest.raises(ValueError, match=r"^client 2: empty client shard"):
            images.batcher([3, 2, 0], 10, rngs)
        streams = [tiny_text_task.client_payload(c) for c in range(3)]
        streams[1] = streams[1][:5]
        text = replace(tiny_text_task, client_data=streams)
        with pytest.raises(ValueError, match=r"^client 1: stream of 5 tokens too short"):
            text.batcher([0, 1, 2], 4, rngs)

    def test_short_text_stream(self, tiny_text_task, fast_config):
        streams = [tiny_text_task.client_payload(c) for c in range(3)]
        streams[1] = streams[1][:5]
        task = replace(tiny_text_task, client_data=streams)
        with pytest.raises(ValueError, match=r"round 1, client 1: stream of 5 tokens too short"):
            run_simulation(task, FedAvg(), fast_config.with_overrides(kappa=1.0))
