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
    "fleet-fedavg-async-fleet": "959e1d6d1a10ffb1b7ae608f4900fdf299be94945338f531cbc68896ce5545f9",
    "fleet-fedavg-async-trace:flash-diurnal": "3169daf459908f14b076478d01c2f1a85766e54c320c9c5dae3d85c3a574fd70",
    "fleet-fedavg-sync-fleet": "ae34b3097c1b3a8dd9025b15fc35a20f00b92f4da6ddfefb66947794ea146c2c",
    "fleet-fedavg-sync-trace:flash-diurnal": "249def7be95bfc149123e43cc85bbac7106e3227d7046beb5b57478e57443381",
    "fleet100k-fedavg-sync-trace:flash-diurnal": "4c66555747cbb4b76d77afe3e7cc84af45e2127e62c809fa2cae79355a39af07",
    "fleetragged-fedavg-sync-fleet": "5c1bfe40477370ca6da23c6a644615dc8fef7ede80b48f751842b9316b02a046",
    "fmnist-fedbiad-sync-ideal": "2dcc789ba91db3efe417f85f7cbc6e4900992a189b2430bb1507b4afff007e87",
    "mnist-afd-sync-ideal": "b3db16c303b596459eb57abdd63c79fcca3b9161150150e424573e2a064fc1ca",
    "mnist-dgc-sync-ideal": "fffdca1b044433602d357ed97151714b2879863b6fec3976cd7739d269e38f1c",
    "mnist-fedavg-async-flaky": "86129253e3103d4733e164096216383ce5c251d9c87a3323901c686cdc673bd7",
    "mnist-fedavg-async-ideal": "bf1d1b3fc8ecfe908f65198de647a1e352a46754d1ec22d72c3b830e0900ac7c",
    "mnist-fedavg-async-straggler": "4acd7a9b5dfd38ce97fb7abae16fec7beeead0812381459ba6df93ba3ec1a711",
    "mnist-fedavg-async-trace:flash-diurnal": "244a2ac957148d7950b74b6609eae73105a58f93d99fb25b674c3384ce2ffc91",
    "mnist-fedavg-sync-flaky": "3eebc7ae53ef1cf53977d6ec25f3c8820743f4ae10c4fe6ada752d055ce87a13",
    "mnist-fedavg-sync-ideal": "9d3a83f24614c32cd7b7e50f78f074c8fee09973480981c750a65719366f5a49",
    "mnist-fedavg-sync-ideal-momentum-clip": "5227f15abd53152a83b084d7cfe2a0e56155a6b0b8f7740aef9e0543d84dc479",
    "mnist-fedavg-sync-straggler": "bba9cc442fa4b967bbdd775c5a429e6a1725bb9b47c7b9af95bd883130f586eb",
    "mnist-fedavg-sync-trace:flash-diurnal": "4b049772ddffc42b7fab10cd789413db5a86037f562cd3c365c0cf5dfd14964e",
    "mnist-fedbiad+dgc-sync-ideal": "71526a55ef6ca6982214b1c780a368614083aed5052d7e6393382bace2d3168e",
    "mnist-fedbiad-async-flaky": "069c13e7a6ca14c9875f147f0072c64f72267e731b56121db3d99bcd002da340",
    "mnist-fedbiad-async-ideal": "8a849333ed9427a430e1e7f4019255a1e3071d680b3249f089f31661f6a7cecf",
    "mnist-fedbiad-async-straggler": "c2578ba54b2f03a871ae98f5a4fc1690fe4d84ce7933a76f0581992f653289cc",
    "mnist-fedbiad-async-trace:flash-diurnal": "c090d2fc7e9d9cfbf423847530b342541d5933e94c5c8c5773f5d43fb5d0dbf6",
    "mnist-fedbiad-sync-flaky": "e5df73ed413d97e4f57df416c87819da0611ffff0cb938710300e99b3a50930c",
    "mnist-fedbiad-sync-ideal": "61424d47a5600efa7e6e59acbb259a95f9ef4029cf87c295c752362937014f39",
    "mnist-fedbiad-sync-ideal-momentum-clip": "86c97a447cd33ab9fb2e9a6c825df782614765b2ce7fd2499beb5428d896835e",
    "mnist-fedbiad-sync-ideal-stage2": "7b47d0f209a0ae9f266cf1c2c96ba71865d084de134c21b91117b3cc153edea6",
    "mnist-fedbiad-sync-straggler": "a8f0b0ab246fdfc0e9ce1e8a3418c6d34eb9acc3510c69d8472b7dd803ac401e",
    "mnist-fedbiad-sync-trace:flash-diurnal": "26285d69ea845e9957b828ca6b3bf71e74bf6c97088d7c2af1807a3411c07fe0",
    "mnist-feddrop-sync-ideal": "1f7b48fbac752227ea79c8ac11bb246286b7ff20eb36b383c74b9d83f42a4d75",
    "mnist-fedmp-sync-ideal": "1fe31b5a1fe0c7ed1fd665326216a33bebfdb85f4e7f20c3a8180711d668f514",
    "mnist-fjord-sync-ideal": "82addc28e336969d96da5c0668a4bb234f01905529ec080473f78d9f81b15d5c",
    "mnist-heterofl-sync-ideal": "9ee647aea896c8c5fdf047448708f187fa0fb499834372b1d979c15c69a5115c",
    "ptb-fedavg-async-ideal": "393595c8a8064a6381e19c14509931f4c4599151ce48edd7c8b14c77203957b7",
    "ptb-fedavg-sync-ideal": "309bb362c39c515234fb10d8433f3abab312eda4658bacf18d574a055ebf56e4",
    "ptb-fedbiad-sync-ideal": "091bdb86385341865d8b14db30cfd92cf82255e3cd071fe58898b23c590d1e3d",
    "ptb-fjord-sync-ideal": "ffb8579d4fec9aa838732e58c3185db715fd6a564a13a5f4a8fe9e93a2da3794",
}

#: ``(SPEC_FORMAT_VERSION, sha256 of the sorted GOLDEN items)``.  Moving
#: any digest moves this pin; move the version with it.
GOLDEN_PIN = (5, "2d15ca2c90a6d4779d82003ca924b77ad07bcf52287a568f485986f215f24d00")

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
CLOCK_PIN = (5, "a5141e2dd5538db5964bc93ad04743e4889a456e2e157503dfeaf33b41072516")


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
