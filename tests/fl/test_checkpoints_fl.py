"""Tests for model/history checkpointing and mid-stream resume."""

from __future__ import annotations

import numpy as np
import pytest

import json

from repro.fl.checkpoints import (
    dumps_nan_safe,
    history_from_payload,
    history_to_payload,
    load_history,
    load_params,
    restore_checkpoint,
    save_checkpoint,
    save_history,
    save_params,
)
from repro.fl.metrics import History, RoundRecord
from repro.fl.parameters import ParamSet


def test_params_roundtrip(tmp_path, rng):
    params = ParamSet({"w": rng.normal(size=(4, 3)), "b": rng.normal(size=(4,))})
    path = tmp_path / "ckpt" / "global.npz"
    save_params(params, path)
    loaded = load_params(path)
    assert loaded.allclose(params)
    assert list(loaded.keys()) == list(params.keys())


def test_history_roundtrip(tmp_path):
    history = History("fedbiad", "mnist")
    history.append(
        RoundRecord(
            round_index=1, train_loss=1.5, test_loss=float("nan"),
            test_accuracy=float("nan"), upload_bits_mean=100.0,
            upload_bits_total=300, download_bits_per_client=400,
            n_selected=3, lttr_seconds_mean=0.01,
        )
    )
    history.append(
        RoundRecord(
            round_index=2, train_loss=1.0, test_loss=0.9, test_accuracy=0.8,
            upload_bits_mean=100.0, upload_bits_total=300,
            download_bits_per_client=400, n_selected=3,
            lttr_seconds_mean=0.01,
        )
    )
    path = tmp_path / "history.json"
    save_history(history, path)
    loaded = load_history(path)
    assert loaded.method == "fedbiad" and loaded.task == "mnist"
    assert len(loaded) == 2
    assert np.isnan(loaded.records[0].test_accuracy)
    assert loaded.records[1].test_accuracy == 0.8
    assert loaded.best_accuracy == 0.8


class TestDumpsNanSafe:
    def test_string_containing_nan_survives(self):
        """Regression: the old text-level .replace("NaN", "null")
        corrupted any *string* containing the substring."""
        payload = {"method": "NaN-robust-avg", "note": "baNaNa", "loss": float("nan")}
        decoded = json.loads(dumps_nan_safe(payload))
        assert decoded["method"] == "NaN-robust-avg"
        assert decoded["note"] == "baNaNa"
        assert decoded["loss"] is None

    def test_infinities_become_null(self):
        """Regression: Infinity/-Infinity used to pass straight through,
        producing invalid JSON for strict parsers."""
        text = dumps_nan_safe({"hi": float("inf"), "lo": float("-inf")})
        assert "Infinity" not in text
        decoded = json.loads(text)
        assert decoded["hi"] is None and decoded["lo"] is None

    def test_numpy_scalars_and_nested_containers(self):
        payload = {
            "n": np.int64(3),
            "x": np.float64(1.5),
            "bad": [np.float32("nan"), (1, np.inf)],
            "arr": np.array([1.0, np.nan]),
        }
        decoded = json.loads(dumps_nan_safe(payload))
        assert decoded == {"n": 3, "x": 1.5, "bad": [None, [1, None]], "arr": [1.0, None]}

    def test_strictly_valid_json(self):
        # allow_nan=False means anything non-finite sneaking past the
        # sanitizer raises rather than emitting invalid JSON
        json.loads(dumps_nan_safe({"v": [float("nan"), 1.0, "NaN"]}))


class TestFieldAgnosticRestore:
    def test_all_float_fields_restore_nan(self):
        """Regression: null -> NaN restoration only covered the three
        loss/accuracy columns; lttr/sim-clock/staleness round-tripped as
        None and poisoned numeric ops."""
        history = History("fedbuff", "mnist")
        history.append(
            RoundRecord(
                round_index=1, train_loss=1.0, test_loss=float("nan"),
                test_accuracy=float("nan"), upload_bits_mean=10.0,
                upload_bits_total=20, download_bits_per_client=30,
                n_selected=2, lttr_seconds_mean=float("nan"),
                sim_round_seconds=float("nan"),
                sim_clock_seconds=float("nan"),
                flush_index=1, staleness_mean=float("nan"), staleness_max=2,
            )
        )
        payload = json.loads(dumps_nan_safe(history_to_payload(history)))
        loaded = history_from_payload(payload)
        rec = loaded.records[0]
        for field in (
            "test_loss", "test_accuracy", "lttr_seconds_mean",
            "sim_round_seconds", "sim_clock_seconds",
            "staleness_mean",
        ):
            value = getattr(rec, field)
            assert isinstance(value, float) and np.isnan(value), field
        # numeric ops over the restored series must not choke on None
        assert np.isnan(loaded.series("staleness_mean")).all()
        assert rec.staleness_max == 2 and rec.flush_index == 1


def test_simulation_params_checkpoint(tmp_path, tiny_image_task, fast_config):
    from repro.baselines.fedavg import FedAvg
    from repro.fl.simulation import FederatedSimulation

    sim = FederatedSimulation(tiny_image_task, FedAvg(), fast_config)
    sim.run_round(1)
    path = tmp_path / "round1.npz"
    save_params(sim.global_params, path)
    restored = load_params(path)
    assert restored.allclose(sim.global_params)
    # restoring into the model reproduces evaluation results
    restored.to_module(sim.model)


# ----------------------------------------------------------------------
# mid-stream checkpoint/resume regression: interrupted == uninterrupted
# ----------------------------------------------------------------------

def _trajectory_key(history):
    """The trajectory-deterministic columns (host wall-clock excluded).

    The straggler profile pins compute to virtual time, so the sim-clock
    columns are part of the deterministic trajectory here too.
    """
    return tuple(
        history.series(key).tobytes()
        for key in (
            "train_loss",
            "test_loss",
            "test_accuracy",
            "upload_bits_total",
            "n_selected",
            "n_scheduled",
            "n_stragglers",
            "sim_clock_seconds",
            "flush_index",
            "staleness_mean",
            "staleness_max",
        )
    )


@pytest.mark.parametrize("mode_overrides", [
    {},  # sync
    {"mode": "async", "buffer_size": 1},  # async, staleness in play
])
def test_resume_matches_uninterrupted_run(tmp_path, tiny_image_task, fast_config, mode_overrides):
    """A run checkpointed mid-stream and resumed in a fresh simulation
    reproduces the uninterrupted run's history exactly, in both modes."""
    from repro.core.client import FedBIAD
    from repro.fl.simulation import run_simulation

    cfg = fast_config.with_overrides(rounds=5, system="straggler", **mode_overrides)
    uninterrupted = run_simulation(tiny_image_task, FedBIAD(), cfg)

    from repro.fl.simulation import FederatedSimulation

    first = FederatedSimulation(tiny_image_task, FedBIAD(), cfg)
    try:
        for round_index in range(1, 3):
            first.history.append(first.run_round(round_index))
        path = tmp_path / "mid.ckpt"
        save_checkpoint(first, path)
    finally:
        first.close()

    resumed_sim = FederatedSimulation(tiny_image_task, FedBIAD(), cfg)
    restore_checkpoint(resumed_sim, path)
    resumed = resumed_sim.run()
    assert len(resumed) == cfg.rounds
    assert _trajectory_key(resumed) == _trajectory_key(uninterrupted)


def test_restore_rejects_mode_mismatch(tmp_path, tiny_image_task, fast_config):
    from repro.baselines.fedavg import FedAvg
    from repro.fl.simulation import FederatedSimulation

    sync_sim = FederatedSimulation(tiny_image_task, FedAvg(), fast_config)
    try:
        sync_sim.history.append(sync_sim.run_round(1))
        path = tmp_path / "sync.ckpt"
        save_checkpoint(sync_sim, path)
    finally:
        sync_sim.close()
    async_sim = FederatedSimulation(
        tiny_image_task, FedAvg(), fast_config.with_overrides(mode="async")
    )
    try:
        with pytest.raises(ValueError, match="checkpoint mode='sync', simulation mode='async'"):
            restore_checkpoint(async_sim, path)
    finally:
        async_sim.close()


def _sync_checkpoint(tmp_path, task, method, config):
    from repro.fl.simulation import FederatedSimulation

    sim = FederatedSimulation(task, method, config)
    sim.history.append(sim.run_round(1))
    path = tmp_path / "sync.ckpt"
    save_checkpoint(sim, path)
    return path


def test_restore_names_mismatched_config_field(tmp_path, tiny_image_task, fast_config):
    from repro.baselines.fedavg import FedAvg
    from repro.fl.simulation import FederatedSimulation

    path = _sync_checkpoint(tmp_path, tiny_image_task, FedAvg(), fast_config.with_overrides(lr=0.1))
    sim = FederatedSimulation(tiny_image_task, FedAvg(), fast_config.with_overrides(lr=0.3))
    with pytest.raises(ValueError, match=r"checkpoint config\.lr=0\.1, simulation config\.lr=0\.3"):
        restore_checkpoint(sim, path)


def test_restore_names_mismatched_method(tmp_path, tiny_image_task, fast_config):
    from repro.baselines.fedavg import FedAvg
    from repro.core.client import FedBIAD
    from repro.fl.simulation import FederatedSimulation

    path = _sync_checkpoint(tmp_path, tiny_image_task, FedAvg(), fast_config)
    sim = FederatedSimulation(tiny_image_task, FedBIAD(), fast_config)
    with pytest.raises(ValueError, match="checkpoint method='fedavg', simulation method='fedbiad'"):
        restore_checkpoint(sim, path)


@pytest.mark.parametrize("other, message", [
    ("six-client", "checkpoint n_clients=4, simulation n_clients=6"),
    ("text", "checkpoint task='tiny-image', simulation task='tiny-text'"),
])
def test_restore_names_mismatched_task(
    tmp_path, tiny_image_task, tiny_text_task, fast_config, other, message
):
    from repro.baselines.fedavg import FedAvg
    from repro.fl.simulation import FederatedSimulation

    from tests.conftest import make_tiny_image_task

    path = _sync_checkpoint(tmp_path, tiny_image_task, FedAvg(), fast_config)
    task = make_tiny_image_task(n_clients=6) if other == "six-client" else tiny_text_task
    sim = FederatedSimulation(task, FedAvg(), fast_config)
    with pytest.raises(ValueError, match=message):
        restore_checkpoint(sim, path)


def _rewrite_format(path, fmt):
    import pickle

    state = pickle.loads(path.read_bytes())
    if fmt is None:
        del state["format"]
    else:
        state["format"] = fmt
    path.write_bytes(pickle.dumps(state))


def test_restore_rejects_foreign_format(tmp_path, tiny_image_task, fast_config):
    from repro.baselines.fedavg import FedAvg
    from repro.fl.simulation import FederatedSimulation

    path = _sync_checkpoint(tmp_path, tiny_image_task, FedAvg(), fast_config)
    _rewrite_format(path, None)  # a snapshot written before the header existed
    sim = FederatedSimulation(tiny_image_task, FedAvg(), fast_config)
    with pytest.raises(ValueError, match="checkpoint format None is not 4"):
        restore_checkpoint(sim, path)


def test_restore_rejects_previous_format(tmp_path, tiny_image_task, fast_config):
    from repro.baselines.fedavg import FedAvg
    from repro.fl.simulation import FederatedSimulation

    path = _sync_checkpoint(tmp_path, tiny_image_task, FedAvg(), fast_config)
    # format 3 snapshots were taken on the RNG streams before the
    # keyed-stream table, so resuming one would switch streams mid-run
    _rewrite_format(path, 3)
    sim = FederatedSimulation(tiny_image_task, FedAvg(), fast_config)
    with pytest.raises(ValueError, match="checkpoint format 3 is not 4"):
        restore_checkpoint(sim, path)


def test_async_checkpoint_preserves_in_flight_uploads(tmp_path, tiny_image_task, fast_config):
    """In-flight uploads pending on the virtual clock survive the
    snapshot: the resumed run folds them instead of relaunching."""
    from repro.baselines.fedavg import FedAvg
    from repro.fl.simulation import FederatedSimulation

    def pending_ids(sim):
        return [res.client_id for _, _, res, _ in sim.clock.pending()]

    cfg = fast_config.with_overrides(
        rounds=4, mode="async", buffer_size=1, system="straggler"
    )
    sim = FederatedSimulation(tiny_image_task, FedAvg(), cfg)
    try:
        sim.history.append(sim.run_round(1))
        assert len(sim.clock) > 0  # something must still be in transit
        path = tmp_path / "async.ckpt"
        save_checkpoint(sim, path)
    finally:
        sim.close()
    resumed = FederatedSimulation(tiny_image_task, FedAvg(), cfg)
    restore_checkpoint(resumed, path)
    assert pending_ids(resumed) == pending_ids(sim)
    assert len(resumed.clock) > 0
    resumed.run()


def _corrupt_empty(path):
    path.write_bytes(b"")


def _corrupt_truncated(path):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _corrupt_missing_class(path):
    # a protocol-0 pickle whose one GLOBAL opcode names a class that no
    # longer exists; format-2 async snapshots pickled this one
    path.write_bytes(b"crepro.fl.async_aggregation\n_InFlight\n.")


@pytest.mark.parametrize("corrupt, cause", [
    (_corrupt_empty, "EOFError"),
    (_corrupt_truncated, "UnpicklingError|EOFError"),
    (_corrupt_missing_class, "ModuleNotFoundError"),
], ids=["empty", "truncated", "missing-class"])
def test_restore_names_an_unreadable_file(tmp_path, tiny_image_task, fast_config, corrupt, cause):
    from repro.baselines.fedavg import FedAvg
    from repro.fl.simulation import FederatedSimulation

    path = _sync_checkpoint(tmp_path, tiny_image_task, FedAvg(), fast_config)
    corrupt(path)
    sim = FederatedSimulation(tiny_image_task, FedAvg(), fast_config)
    with pytest.raises(ValueError, match=rf"cannot read checkpoint .*sync\.ckpt.*({cause})"):
        restore_checkpoint(sim, path)
