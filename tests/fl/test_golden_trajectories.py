"""Golden trajectories: pinned sha256 digests of whole runs.

Every cell runs a short simulation at a fixed seed and hashes its
learning columns (losses, accuracies, upload/download bits, cohort
sizes) together with every cohort the server selected.  The digests
were recorded before the availability and device-model layers were
unified, so any refactor that drifts a trajectory by a single bit fails
here instead of passing unnoticed.  A deliberate numerics change must
re-pin the affected digests and say so in CHANGES.md.

The matrix covers both availability shapes the selection core serves:

* explicit id sets (every ``small`` preset, the 5,000-client fleet
  included, the array path), sync and async — async with
  ``buffer_size=1`` so in-flight clients are excluded from refills on
  that path;
* bare up-counts (the ``flash-diurnal`` trace at K=100,000), which
  sample cohort ids from the index space.

A few cells widen the method and model coverage: the nested
``fedbiad+dgc`` sketched method (a ``CombinedMethod`` wrapping FedBIAD),
plain ``dgc`` (the compressor over FedAvg), FedAvg with momentum and
gradient clipping, a ragged fleet whose clients have different shard
sizes (and so different effective batch sizes within one cohort), and
the PTB LSTM under FedBIAD and under async FedAvg.  The masked baselines
(FedDrop, AFD, FjORD, FedMP, HeteroFL) each have an mnist cell, FjORD a
PTB cell (LSTM masks), and FedBIAD three more: fmnist at ``p=0.5``,
stage two from round 2 (score-driven patterns), and momentum with
gradient clipping under its row masks.

The same run also hashes its virtual-clock columns (scheduled and
straggling counts, simulated round/clock/compute seconds, flush index
and staleness) into a second digest, ``CLOCK_GOLDEN``: every
time-to-accuracy reads these columns, so a change to the server loop
that keeps the learning trajectory but moves the clock fails here too.

``GOLDEN_PIN`` ties the whole digest table to ``SPEC_FORMAT_VERSION``:
re-pinning a digest (a deliberate numerics change) moves the pin, and
stored cells computed under the old numerics must stop being served, so
the version moves in the same commit.  ``CLOCK_PIN`` does the same for
``CLOCK_GOLDEN``.

Digests are floating-point results and so depend on the numerical
stack; they were recorded with numpy 2.4.6 on OpenBLAS 0.3.31
(scipy-openblas, ``DYNAMIC_ARCH``), CPython 3.11.
"""

from __future__ import annotations

import functools
import hashlib
import json

import numpy as np
import pytest

from repro.baselines.registry import METHOD_NAMES, make_method
from repro.compression.registry import make_sketched
from repro.data.registry import make_fleet_task, make_task
from repro.experiments.configs import preset_for
from repro.experiments.spec import SPEC_FORMAT_VERSION
from repro.fl.simulation import FederatedSimulation

LEARNING_COLUMNS = (
    "train_loss",
    "test_loss",
    "test_accuracy",
    "upload_bits_mean",
    "upload_bits_total",
    "download_bits_per_client",
    "n_selected",
)

CLOCK_COLUMNS = (
    "n_scheduled",
    "n_stragglers",
    "sim_round_seconds",
    "sim_clock_seconds",
    "sim_compute_seconds_mean",
    "flush_index",
    "staleness_mean",
    "staleness_max",
)


@functools.lru_cache(maxsize=None)
def _task(name: str):
    if name == "fleet-100k":
        return make_fleet_task(100_000, seed=1)
    if name == "fleet-ragged":
        return make_fleet_task(5_000, seed=1, size_spread=4.0)
    return make_task(name, "small", preset_for(name, "small").data_seed)


def _cells() -> dict[str, tuple[str, str, dict]]:
    """``cell id -> (task, method, FLConfig overrides)``."""
    cells = {}
    for method in ("fedavg", "fedbiad"):
        for mode, extra in (("sync", {}), ("async", {"buffer_size": 1})):
            for system in ("ideal", "flaky", "straggler", "trace:flash-diurnal"):
                cells[f"mnist-{method}-{mode}-{system}"] = (
                    "mnist", method, dict(rounds=3, mode=mode, system=system, **extra)
                )
    for mode, extra in (("sync", {}), ("async", {"buffer_size": 5})):
        for system in ("fleet", "trace:flash-diurnal"):
            cells[f"fleet-fedavg-{mode}-{system}"] = (
                "fleet", "fedavg", dict(rounds=3, kappa=0.004, mode=mode, system=system, **extra)
            )
    cells["fleet100k-fedavg-sync-trace:flash-diurnal"] = (
        "fleet-100k", "fedavg", dict(rounds=3, kappa=2e-4, system="trace:flash-diurnal")
    )
    cells["fleetragged-fedavg-sync-fleet"] = ("fleet-ragged", "fedavg", dict(rounds=3))
    cells["mnist-fedbiad+dgc-sync-ideal"] = ("mnist", "fedbiad+dgc", dict(rounds=3))
    cells["mnist-dgc-sync-ideal"] = ("mnist", "dgc", dict(rounds=3))
    cells["mnist-fedavg-sync-ideal-momentum-clip"] = (
        "mnist", "fedavg", dict(rounds=3, momentum=0.9, max_grad_norm=1.0)
    )
    for method in ("feddrop", "afd", "fjord", "fedmp", "heterofl"):
        cells[f"mnist-{method}-sync-ideal"] = ("mnist", method, dict(rounds=3))
    cells["fmnist-fedbiad-sync-ideal"] = ("fmnist", "fedbiad", dict(rounds=3))
    cells["mnist-fedbiad-sync-ideal-stage2"] = (
        "mnist", "fedbiad", dict(rounds=3, stage_boundary=1)
    )
    cells["mnist-fedbiad-sync-ideal-momentum-clip"] = (
        "mnist", "fedbiad", dict(rounds=3, momentum=0.9, max_grad_norm=1.0)
    )
    cells["ptb-fedavg-sync-ideal"] = ("ptb", "fedavg", dict(rounds=1))
    cells["ptb-fjord-sync-ideal"] = ("ptb", "fjord", dict(rounds=1))
    cells["ptb-fedbiad-sync-ideal"] = ("ptb", "fedbiad", dict(rounds=2))
    cells["ptb-fedavg-async-ideal"] = (
        "ptb", "fedavg", dict(rounds=2, mode="async", buffer_size=1)
    )
    return cells


CELLS = _cells()

GOLDEN = {
    "fleet-fedavg-async-fleet": "c5b87a8563f55955b303d82476fc8747e6f3e1622f544dd2ac83c447eeeba8df",
    "fleet-fedavg-async-trace:flash-diurnal": "bcfa8e683f515ce75e6d82e3dc9caba92b3fad2968010d8e4d18771b62248fdd",
    "fleet-fedavg-sync-fleet": "34051b749fad2aef3e5e28ee6402e1f047062a366c3837d02ce91770848afc42",
    "fleet-fedavg-sync-trace:flash-diurnal": "49b3eeb746869729f6554dae808779ec727dbcc4d3c8583bd3278b6313b0ab8e",
    "fleet100k-fedavg-sync-trace:flash-diurnal": "15ae0fae49c31293eb8cbe1a8f6417ed3b7676669e5b3086da5116037327839b",
    "fleetragged-fedavg-sync-fleet": "ddbe7dcc1fee2586dd976e7e1c2b8fb8a61fee505d2ff75c189974f1bbb44491",
    "fmnist-fedbiad-sync-ideal": "d0a653a4168692b558e146e4c4e90fa3c7e8518c792398c7a61fc6813de31f52",
    "mnist-afd-sync-ideal": "bde612b9b43f930c9ce05ef7f6e5a22a948fdd6960afc81696c999e98bc48e70",
    "mnist-dgc-sync-ideal": "9629bb4588f7c9e4d637ae5a38b630b41c381a876d94ddcf7e3d7a444b326037",
    "mnist-fedavg-async-flaky": "c9f93b02a930e09108de46a88a8c2de55e07ee7c9ac5375e8debd7a362fceb8c",
    "mnist-fedavg-async-ideal": "dd06e61f38f9702a90acfc73b204b2b0f42988c408282442cbf70b9f30331f0e",
    "mnist-fedavg-async-straggler": "7ce39372382695284ad5d4782b9e58431c3852454261b12a82f3dc4aa3692bab",
    "mnist-fedavg-async-trace:flash-diurnal": "d38a3b7b4f960b816ee4e7161953be8d1fbf8ac14d4c55b3fe14d816704ad163",
    "mnist-fedavg-sync-flaky": "8a5881f81133e179efd3a02e6757db93585c90d131aa60066d1262499174df61",
    "mnist-fedavg-sync-ideal": "dcd197fb1805daf7601050b4e96cbc066320a6dd6f8527866c3f7dcb08eee600",
    "mnist-fedavg-sync-ideal-momentum-clip": "abffde596c5bfb5aa14f7743dbbce7df41cac5647aaf3f04452c19eaf94032a5",
    "mnist-fedavg-sync-straggler": "f82c6af1b9b0a2e982b01409355066256d396b9a2db7f0ed59b8a5407f504fac",
    "mnist-fedavg-sync-trace:flash-diurnal": "b8464651047ca4310798fa4c920f77973b7b2d526f1d2239e3891ddb4f5dc32c",
    "mnist-fedbiad+dgc-sync-ideal": "7d42c8e374c43f5db70f99370aac020e05f8ddf1218c981efa3014d07bb8a44a",
    "mnist-fedbiad-async-flaky": "89fcfcce184111a1cd98e3bf52d8328ff662a6d57e2404d0d94594d1c59a3632",
    "mnist-fedbiad-async-ideal": "f1d5470cf5b9159b4eef2bdada90d3dd52767eb3542db7f1d511f8f6c0bd4dfe",
    "mnist-fedbiad-async-straggler": "348c94bae8e679000a3ff0f368261b94524d557837c450ae1cf2775e0cc45a3c",
    "mnist-fedbiad-async-trace:flash-diurnal": "d0456a772bf44d62135c6f931e4c5d30535fa7d2f77e9f0fcfde7e4d092248d4",
    "mnist-fedbiad-sync-flaky": "26746b19db9fbc14091845284d9847aeeef301fee02e9836e5f3f5c454b2a1c1",
    "mnist-fedbiad-sync-ideal": "7adef90adb4c3f894f9d09d7fa4ac179f86c51981ef6e40b390d3df34c8d04e0",
    "mnist-fedbiad-sync-ideal-momentum-clip": "f1d8ef0371a1d221c93c03957a668fa5ccd014a1447688117c3ec46c3f41755d",
    "mnist-fedbiad-sync-ideal-stage2": "eb82eaa660379b3050988ae38e331e0379d867f8cc92a98cd9c82242ec2e2043",
    "mnist-fedbiad-sync-straggler": "5960b5eb9d501b4637504bf8e101f057b204416f75551fcc113bb9628d608b28",
    "mnist-fedbiad-sync-trace:flash-diurnal": "368964ed542e2f8786be6e2c695c7008f80ddc1bef12b915dd6a9d6238bc7a0c",
    "mnist-feddrop-sync-ideal": "77bff244f58db3fa5777de0e75b23e17b0f1d65a44e6fd51d790cf93b4930046",
    "mnist-fedmp-sync-ideal": "c1c786eb0a2a3022b5fbec57c87abb9ecf81f34f1de883b804233fa71498606b",
    "mnist-fjord-sync-ideal": "04c18617f5c708138e3196e1f20c8eb9568e7b7f5b28549a93277c51b1da70d5",
    "mnist-heterofl-sync-ideal": "2b13321e19cb7d85141e6f53d494ad246c128b30d92f1c4987f0828de1daa839",
    "ptb-fedavg-async-ideal": "393595c8a8064a6381e19c14509931f4c4599151ce48edd7c8b14c77203957b7",
    "ptb-fedavg-sync-ideal": "309bb362c39c515234fb10d8433f3abab312eda4658bacf18d574a055ebf56e4",
    "ptb-fedbiad-sync-ideal": "091bdb86385341865d8b14db30cfd92cf82255e3cd071fe58898b23c590d1e3d",
    "ptb-fjord-sync-ideal": "ffb8579d4fec9aa838732e58c3185db715fd6a564a13a5f4a8fe9e93a2da3794",
}

#: ``(SPEC_FORMAT_VERSION, sha256 of the sorted GOLDEN items)``.  Moving
#: any digest moves this pin; move the version with it.
GOLDEN_PIN = (6, "d96d8647f662d5df473bcf0da5cee522842ca8238b093bd897e792fee1df5e12")

#: Per-cell sha256 over :data:`CLOCK_COLUMNS`, hashed from the same run
#: as the learning digest.
CLOCK_GOLDEN = {
    "fleet-fedavg-async-fleet": "d2fbc793fd66a57eb96df955b88f9cdb26dae42582c75d803a3de3b8972dcfc7",
    "fleet-fedavg-async-trace:flash-diurnal": "faa454b28db75e341a2bb96814736624e09f98c810c1173e24425e686b17bb98",
    "fleet-fedavg-sync-fleet": "7b41c9bba78b388a3cf3b1377af1c6d2c24b7be2b52a82976caf9546228dfb9c",
    "fleet-fedavg-sync-trace:flash-diurnal": "f5a52b7327af25366854e1bab9bc4aea6cc39ccac908eb4ff2aed0380c350422",
    "fleet100k-fedavg-sync-trace:flash-diurnal": "61d9ece1effb5b36647fd68b17c2fdb071dacc55957b8bedf1c63a7a59e99da0",
    "fleetragged-fedavg-sync-fleet": "7b41c9bba78b388a3cf3b1377af1c6d2c24b7be2b52a82976caf9546228dfb9c",
    "fmnist-fedbiad-sync-ideal": "1abb1566c7b7c672cc19f5967189e9182df0dbebaa533ddcf32307f17857ddc8",
    "mnist-afd-sync-ideal": "c30609030a63192b7102a3978dab25752fb85c92853246a8a9d6a4955ea47bfd",
    "mnist-dgc-sync-ideal": "1fa6f76f63026714ebcba5169c0f4d0fefe4e13d1cf838026e9c6e8e63686786",
    "mnist-fedavg-async-flaky": "e27fa34a9f42a73eb0ca56d67a8b5c2899e5c978325de2f8b44d5d8eb651d445",
    "mnist-fedavg-async-ideal": "72211606388346e088e8558276d9b66e3d3342d31c950a792cc08354d6d2babf",
    "mnist-fedavg-async-straggler": "7da0e863536da9d06f850b532e7fcc36b3c011fec7c6da41bcdb4b0c8f81da32",
    "mnist-fedavg-async-trace:flash-diurnal": "f521c4872921feb347b47ba71df2abe449851e4996155fa8eeef5619de712599",
    "mnist-fedavg-sync-flaky": "be0c87cbc1787f482f0367ca7d69756ed91b3590fe5ca111c1735af9ccc03f49",
    "mnist-fedavg-sync-ideal": "0327ccbb8e63e561484cd0a39fb49d40cc9f3cfb5657ae05de4ad422ef057981",
    "mnist-fedavg-sync-ideal-momentum-clip": "0327ccbb8e63e561484cd0a39fb49d40cc9f3cfb5657ae05de4ad422ef057981",
    "mnist-fedavg-sync-straggler": "bc08a60426b2374b76ec4a0f71015fb4c129e966972ce112b382b0401e09f510",
    "mnist-fedavg-sync-trace:flash-diurnal": "35dc922e7697b94b58a0bd4411f561f261b3d81b0ba74e8ab95ac5bf4d745b9b",
    "mnist-fedbiad+dgc-sync-ideal": "b6f5747cd4e4d9bb580b7c61eb8e6d32db5e1ee21a20c4565aa84520acd3d7c8",
    "mnist-fedbiad-async-flaky": "41fd8cdff02bcbc5d6caf5b46cbcdcdb0f3758e1f4aee25452875d3dbab5c2a4",
    "mnist-fedbiad-async-ideal": "d60a0cb8d2168bdb188fbea57b6445ee47f1502a3ce6d7a006d371bf9067d944",
    "mnist-fedbiad-async-straggler": "cbc49cd459bead07ad6faba02f6f88d00d7fc75bd6dd8a94c4e8e17749e5dbc3",
    "mnist-fedbiad-async-trace:flash-diurnal": "31d73ba7659300ce14e196c5575659f781de3b1bcae9a61d2f7fa23c597d01de",
    "mnist-fedbiad-sync-flaky": "68e3a7932843313abc66f0f7646e2d9fca382106c5bd6ba1a4a8372d9a8ace62",
    "mnist-fedbiad-sync-ideal": "b2594fae829030ba82f6df46039cd66641eb5163a720beb5de40d31e83a84a9c",
    "mnist-fedbiad-sync-ideal-momentum-clip": "b2594fae829030ba82f6df46039cd66641eb5163a720beb5de40d31e83a84a9c",
    "mnist-fedbiad-sync-ideal-stage2": "b2594fae829030ba82f6df46039cd66641eb5163a720beb5de40d31e83a84a9c",
    "mnist-fedbiad-sync-straggler": "6dbe8c837d1010b3e45d16fe9223d4aea3a26ff0d934dc50be07e8b7e9f2b0e9",
    "mnist-fedbiad-sync-trace:flash-diurnal": "0102c3e0445272a63acc19db0d527a7eab01a48ae49b47b690909c30b7d4df58",
    "mnist-feddrop-sync-ideal": "f846783911e364ca3d41df00a91cced76cb45f9967904e603ce7018a89bd488f",
    "mnist-fedmp-sync-ideal": "d6619576fd15a22de4b228ada9ba8da9d2c85c9588a5e3366c2eddef6c078e63",
    "mnist-fjord-sync-ideal": "0327ccbb8e63e561484cd0a39fb49d40cc9f3cfb5657ae05de4ad422ef057981",
    "mnist-heterofl-sync-ideal": "0327ccbb8e63e561484cd0a39fb49d40cc9f3cfb5657ae05de4ad422ef057981",
    "ptb-fedavg-async-ideal": "5877526894607ac3fb7442929b1685b542fea4c8805f3b21f56aef5b62bbfcde",
    "ptb-fedavg-sync-ideal": "d912502449f7a74cb71b5d7c6f75fb120cb3b05c1c0520fa566b548403b56418",
    "ptb-fedbiad-sync-ideal": "f0b9ef7b6b90a7a22bc8e9113f39784109716710dd6a791d30a1f3787388227e",
    "ptb-fjord-sync-ideal": "d912502449f7a74cb71b5d7c6f75fb120cb3b05c1c0520fa566b548403b56418",
}

#: ``(SPEC_FORMAT_VERSION, sha256 of the sorted CLOCK_GOLDEN items)``.
CLOCK_PIN = (6, "a5141e2dd5538db5964bc93ad04743e4889a456e2e157503dfeaf33b41072516")


def trajectory_digests(
    task_name: str, method: str, overrides: dict, monkeypatch
) -> tuple[str, str]:
    """sha256 over one run's learning columns and selected cohorts, and
    sha256 over the same run's clock columns."""
    preset_name = "fleet" if task_name.startswith("fleet-") else task_name
    config = preset_for(preset_name, "small").fl.with_overrides(seed=0, **overrides)
    selections: list[np.ndarray] = []
    select = FederatedSimulation._select_clients

    def logged(self, *args, **kwargs):
        ids = select(self, *args, **kwargs)
        selections.append(np.array(ids, dtype=np.int64))
        return ids

    monkeypatch.setattr(FederatedSimulation, "_select_clients", logged)
    fed_method = make_method(method) if method in METHOD_NAMES else make_sketched(method)
    history = FederatedSimulation(_task(task_name), fed_method, config).run()

    def columns_digest(columns):
        h = hashlib.sha256()
        for column in columns:
            h.update(np.asarray(history.series(column), dtype=np.float64).tobytes())
        return h

    learning = columns_digest(LEARNING_COLUMNS)
    for ids in selections:
        learning.update(ids.tobytes())
    return learning.hexdigest(), columns_digest(CLOCK_COLUMNS).hexdigest()


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_trajectory_matches_golden(cell, monkeypatch):
    task_name, method, overrides = CELLS[cell]
    learning, clock = trajectory_digests(task_name, method, overrides, monkeypatch)
    assert learning == GOLDEN[cell]
    assert clock == CLOCK_GOLDEN[cell]


def test_matrix_is_fully_pinned():
    assert sorted(GOLDEN) == sorted(CELLS)
    assert sorted(CLOCK_GOLDEN) == sorted(CELLS)


def test_golden_table_is_pinned_to_the_spec_format_version():
    table = json.dumps(sorted(GOLDEN.items())).encode()
    assert (SPEC_FORMAT_VERSION, hashlib.sha256(table).hexdigest()) == GOLDEN_PIN


def test_clock_table_is_pinned_to_the_spec_format_version():
    table = json.dumps(sorted(CLOCK_GOLDEN.items())).encode()
    assert (SPEC_FORMAT_VERSION, hashlib.sha256(table).hexdigest()) == CLOCK_PIN
