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
from repro.data import registry
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
    "fleet-fedavg-async-fleet": "a8980a4bd09e8110e3888fcf11aa1b8128a8ac759e096dfc6c46f9bc6dab42cf",
    "fleet-fedavg-async-trace:flash-diurnal": "1dff51acd6a7e1a46534b0054c3f5e8c5df6d9cc023a7a9ac5b738cf283d0c50",
    "fleet-fedavg-sync-fleet": "05b3a4b62f9af12182101f9c83c26e240d3dcd480985f22b95763787d0a42290",
    "fleet-fedavg-sync-trace:flash-diurnal": "fc5e41d7df00096138eb45a2369a678d7446971b7159c584453019aae470ed48",
    "fleet100k-fedavg-sync-trace:flash-diurnal": "c42ef31396365470c80523df973c8759fcbabee2e769f1bafabd09302377a66a",
    "fleetragged-fedavg-sync-fleet": "1884882455b8551ad2fa233786496dd6fdadb9b238a0460f95c228a229af3269",
    "fmnist-fedbiad-sync-ideal": "ff9756e381408b1b4704cb5a8373d97cbaa6447dbc02aca5f84d538fbf2fb743",
    "mnist-afd-sync-ideal": "5a7c0bfa1620968bc396e8c2cf5110f9801d1319580c263ad7e51de836b24407",
    "mnist-dgc-sync-ideal": "a590accf4fb4cc2c6cd0a202c81317ee518f41a324d6d56dcb3d040a2addf46c",
    "mnist-fedavg-async-flaky": "da62cf894e6222db6f1990e7e7d86c4b391eb0fe22cb95a309b700d7f849a2d1",
    "mnist-fedavg-async-ideal": "bb0a840bac8ec02638849807b1731d56462751729b460e52152006d98d34dd1d",
    "mnist-fedavg-async-straggler": "a94c33bbcb95eb2d3ab37bd37bf2751edba985fe38ff53598fe0d381212d33ca",
    "mnist-fedavg-async-trace:flash-diurnal": "8c9185bfc74d5b681515bac926dcec910e11a48a88b6d7593e25b03865fdf13f",
    "mnist-fedavg-sync-flaky": "84761afede3d71f0915840e65d4342f85cc74a781e3a5f5a6022cdeade5a7a89",
    "mnist-fedavg-sync-ideal": "f082bb26a627518c7f9ad7fed8e3cd001bda136dfa0a41d341046c2990a3a676",
    "mnist-fedavg-sync-ideal-momentum-clip": "905fa2b02452fc6fd9a9c0a5228ad9d495a81b0f8477da30b0e88db1a7d9d719",
    "mnist-fedavg-sync-straggler": "8cfb92d9207af1c344dc45508bf7d4b74f33e9254faa86e2134c274e8b274acd",
    "mnist-fedavg-sync-trace:flash-diurnal": "99c6d72ef24f03af2b8c1d8a606ce3131e23c655079c759010671deaef013baf",
    "mnist-fedbiad+dgc-sync-ideal": "01358d5a30420d1f58739582c64d7341f118714e2d65d999d8d73f99d8406453",
    "mnist-fedbiad-async-flaky": "30c38d11d72f8951d4b82ba074a05363b5178f0014b24914de232cf1214c0ef0",
    "mnist-fedbiad-async-ideal": "35660504cdecff5af123b1409fb20ec5f9500f044ad80314c51898a3f984d481",
    "mnist-fedbiad-async-straggler": "df85dcdf0306fd24197edd2f499c86f0a74b181bb1ce99a54152126dd4738099",
    "mnist-fedbiad-async-trace:flash-diurnal": "70ef63d83bacc3238cb147633794c42aea44b23327084107fa8b613bce854e2a",
    "mnist-fedbiad-sync-flaky": "03155819ed555992552b67b650d1a908d1d60c223e3da8a0ee19c9c14fc2afd4",
    "mnist-fedbiad-sync-ideal": "0633548298c3321fb6353eb0853a248fa95c0a81c4e206ce26a3a04b4fedeecb",
    "mnist-fedbiad-sync-ideal-momentum-clip": "15b49861d9c3453c64fc945f6f4f738a02d75c5f964454eecf235b419a423f22",
    "mnist-fedbiad-sync-ideal-stage2": "fc9334c4d81672148689f4a4162f3ccf75eeb58960eeb9d9539ff97b27e80415",
    "mnist-fedbiad-sync-straggler": "b3013779d7ad1aa4d958242dc8af747446d8525092dcdc3f15799fce95cb2221",
    "mnist-fedbiad-sync-trace:flash-diurnal": "15a9d53d1322ddb839253753ca7cb69b125e223260ecaf5530e874f24b5e698f",
    "mnist-feddrop-sync-ideal": "0b6f5ddc7af1c8645176ca0dafd2ce8381157068ed16fde2a8ca1841cdfc244d",
    "mnist-fedmp-sync-ideal": "b1f60f3cc942c8ee2fc91670e315139404f4eb58f8b8522e6200767dc155eb22",
    "mnist-fjord-sync-ideal": "03d2a8d8336095f0f4691b656cfa046cb6a5f117306304fed4231ada95eb9b53",
    "mnist-heterofl-sync-ideal": "20a87d5cd01ca565e9b52a4f0706c878eb7a120ac3098737fd3cc037b6814ad5",
    "ptb-fedavg-async-ideal": "ced78bf75d2d928cc56f3f2409505145912b7fe8d8872e91f43c23f213ef8e42",
    "ptb-fedavg-sync-ideal": "6d0320df7172077915180721b851aec0a89aa16babb1e646a14000cb400e75c9",
    "ptb-fedbiad-sync-ideal": "ec79ef25f440927c2e29cd3580f85bede6364efee8d98a948f2bb792f62955ed",
    "ptb-fjord-sync-ideal": "fdf0a50d09194ec7179bda3600864d62ea4e4a1a004c08f2a23dcceb29352f0f",
}

#: ``(SPEC_FORMAT_VERSION, sha256 of the sorted GOLDEN items)``.  Moving
#: any digest moves this pin; move the version with it.
GOLDEN_PIN = (7, "be83d0b909bcc1c8306d7de834a79779149d5bd4d8eb1f2c5d624f3a19f7b761")

#: Per-cell sha256 over :data:`CLOCK_COLUMNS`, hashed from the same run
#: as the learning digest.
CLOCK_GOLDEN = {
    "fleet-fedavg-async-fleet": "636deb3457a795aa8a4fe169cf5380a472700b03862a8e95e1483deb9066dcb6",
    "fleet-fedavg-async-trace:flash-diurnal": "0bd224220e8b33e51196a2c39ce85e276ea54e76528786e1aa31c5174ff75837",
    "fleet-fedavg-sync-fleet": "d98571778af9960fb09c78b28c82d3d7fa0386164d0c773a4395c238bfebdba3",
    "fleet-fedavg-sync-trace:flash-diurnal": "c8115b2b9f9aeee1dc09b8f6180677f9e637a9793a6e5cca666e0aba9634fd25",
    "fleet100k-fedavg-sync-trace:flash-diurnal": "720ee959895a115b078e7d2ecf7ed9ed80a0579e835bfaf9e025c26deca803d7",
    "fleetragged-fedavg-sync-fleet": "d98571778af9960fb09c78b28c82d3d7fa0386164d0c773a4395c238bfebdba3",
    "fmnist-fedbiad-sync-ideal": "1abb1566c7b7c672cc19f5967189e9182df0dbebaa533ddcf32307f17857ddc8",
    "mnist-afd-sync-ideal": "c30609030a63192b7102a3978dab25752fb85c92853246a8a9d6a4955ea47bfd",
    "mnist-dgc-sync-ideal": "1fa6f76f63026714ebcba5169c0f4d0fefe4e13d1cf838026e9c6e8e63686786",
    "mnist-fedavg-async-flaky": "c01b519bf8a01a4e920052ec78d2812ed44e5796972d4eb4b6d1b0ffaaf50f52",
    "mnist-fedavg-async-ideal": "72211606388346e088e8558276d9b66e3d3342d31c950a792cc08354d6d2babf",
    "mnist-fedavg-async-straggler": "e59b968e47ced6093f2be90524742f8de94d6f5759b448767d1873faf4d800e4",
    "mnist-fedavg-async-trace:flash-diurnal": "8f32cc77051f4b606130fa874c7dc7dc86b35dffbdca8f16cff7ca1f2b55bab9",
    "mnist-fedavg-sync-flaky": "0473ed1e0c469867c8d4147eaaafe9827ae8613928b4e6fcb123ac3062c190d9",
    "mnist-fedavg-sync-ideal": "0327ccbb8e63e561484cd0a39fb49d40cc9f3cfb5657ae05de4ad422ef057981",
    "mnist-fedavg-sync-ideal-momentum-clip": "0327ccbb8e63e561484cd0a39fb49d40cc9f3cfb5657ae05de4ad422ef057981",
    "mnist-fedavg-sync-straggler": "ccdf9e618345b76c7c35341bb0837ee3c07bfc07ad57cafebaf8f3273f4a1ba4",
    "mnist-fedavg-sync-trace:flash-diurnal": "cb7eb9b24d3a75d7711e5f5668662c37b115fde54a5cb05793d114c05f4e2cae",
    "mnist-fedbiad+dgc-sync-ideal": "b6f5747cd4e4d9bb580b7c61eb8e6d32db5e1ee21a20c4565aa84520acd3d7c8",
    "mnist-fedbiad-async-flaky": "4e893c72eb972b155f5c75c9c81f8f3ae3d17719d603bc8c58c8c3d260f444fd",
    "mnist-fedbiad-async-ideal": "d60a0cb8d2168bdb188fbea57b6445ee47f1502a3ce6d7a006d371bf9067d944",
    "mnist-fedbiad-async-straggler": "3210ba6943d16a3f5e1093303f695d30e031a02ccd0186dd0937043c3716ce5b",
    "mnist-fedbiad-async-trace:flash-diurnal": "bff423ba768213fbc5c399939a8635cb4a8255315f28c2e7710bdc6fe6e6c983",
    "mnist-fedbiad-sync-flaky": "41ddf4b6ae967740213960186c6567181626b41cce5ea3fae8734a931769c862",
    "mnist-fedbiad-sync-ideal": "b2594fae829030ba82f6df46039cd66641eb5163a720beb5de40d31e83a84a9c",
    "mnist-fedbiad-sync-ideal-momentum-clip": "b2594fae829030ba82f6df46039cd66641eb5163a720beb5de40d31e83a84a9c",
    "mnist-fedbiad-sync-ideal-stage2": "b2594fae829030ba82f6df46039cd66641eb5163a720beb5de40d31e83a84a9c",
    "mnist-fedbiad-sync-straggler": "da3785d524b8e3b4747a14f94e14e9aaeb5301f4cb805a4637c48114659761ce",
    "mnist-fedbiad-sync-trace:flash-diurnal": "e6441c5a750ad3dc2b889c43e605924d0716828c5cbad6a14214b5a24d807be8",
    "mnist-feddrop-sync-ideal": "f846783911e364ca3d41df00a91cced76cb45f9967904e603ce7018a89bd488f",
    "mnist-fedmp-sync-ideal": "d6619576fd15a22de4b228ada9ba8da9d2c85c9588a5e3366c2eddef6c078e63",
    "mnist-fjord-sync-ideal": "a64418bcc3069088832e83fe843cee438db969d977b13b0a9184085bd9569a9a",
    "mnist-heterofl-sync-ideal": "798f5187bd371a69e2dbef0ea9d4cc9270737596feea83ac7b6f9a25598f5a2e",
    "ptb-fedavg-async-ideal": "5877526894607ac3fb7442929b1685b542fea4c8805f3b21f56aef5b62bbfcde",
    "ptb-fedavg-sync-ideal": "d912502449f7a74cb71b5d7c6f75fb120cb3b05c1c0520fa566b548403b56418",
    "ptb-fedbiad-sync-ideal": "f0b9ef7b6b90a7a22bc8e9113f39784109716710dd6a791d30a1f3787388227e",
    "ptb-fjord-sync-ideal": "d912502449f7a74cb71b5d7c6f75fb120cb3b05c1c0520fa566b548403b56418",
}

#: ``(SPEC_FORMAT_VERSION, sha256 of the sorted CLOCK_GOLDEN items)``.
CLOCK_PIN = (7, "3818fe34aa5ed786eb6fdccf942449ab553bf962ab78b3e3691e7233bf08f333")


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


def test_ragged_cell_reads_sizes_from_the_cohort_pass(monkeypatch):
    """A prepared cohort's shard sizes are drawn once, in its stream
    pass: the ragged-fleet cell reads every size and shard without a
    per-id stream build, and its digests hold."""
    builds = []
    build = registry.fleet_shard_rng
    monkeypatch.setattr(
        registry, "fleet_shard_rng", lambda *key: builds.append(key) or build(*key)
    )
    cell = "fleetragged-fedavg-sync-fleet"
    learning, clock = trajectory_digests(*CELLS[cell], monkeypatch)
    assert (learning, clock) == (GOLDEN[cell], CLOCK_GOLDEN[cell])
    assert builds == []
