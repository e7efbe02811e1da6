"""Client data sources: the data stream every task's runs train on.

Every task's ``client_data`` is a
:class:`~repro.data.registry.ClientDataSource` materializing payloads on
demand.  These tests pin that stream: for every one of the five paper
tasks, the payloads, sizes and minibatch streams the source produces are
recorded below as sha256 digests, so a change to the data path that
would move a trajectory fails here first.  A deliberate change to the
data law re-pins them together with the golden trajectories.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.data.images import _label_pairs
from repro.data.partition import fleet_shard_rng
from repro.data.registry import (
    ALL_TASK_NAMES,
    TASK_NAMES,
    ArraySource,
    ClientDataSource,
    FederatedTask,
    FleetImageSource,
    make_fleet_task,
    make_task,
    task_summary,
)
from repro.streams import VECTOR_MIN_KEYS

#: sha256 over every client's payload arrays (dtype, shape, bytes), its
#: size and the task's ``min_client_size``, for
#: ``make_task(name, "small", seed=1)``.
EAGER_PAYLOAD_DIGESTS = {
    "mnist": "472780cd1c14b414cc55f67b9c9cf441499cee00aec517c44d2af2943eccabed",
    "fmnist": "799c033c1c19ed53c76a91fa940d3bdfa49b2b9acf3c6bcd6ed5d931656d6b15",
    "ptb": "4b8345354e143b4c3916a87ce57a5b9f27bda04c84b6e27a8d9656f764a12d8e",
    "wikitext2": "3f5b2e5b25d9c214b7063ac5f4462c86fe15930f2f8a9014c9c64941d8119ecd",
    "reddit": "f4f927084d92545c67ad917f3d2962e10e4398e0e9edf429531e205f7bd4e5fb",
}

#: sha256 over three 8-sample minibatches of the first and last client,
#: each from its ``(0, 1, client)`` stream.
EAGER_BATCH_DIGESTS = {
    "mnist": "d63f2de401e91ae9a8bf772df761006fe7b3908b52b4794905d3157b53512e28",
    "fmnist": "f43e0bf1a9979fdbeb5759e74f810e6570b837b182aa9ba7bec9e161e7355464",
    "ptb": "0b0df9946ac3610936b599df9b6844c7d9b6c40e7b6adce5220bffb6fc19cb33",
    "wikitext2": "436e0b903588bc175477b6d34ba7193cfe9b57ffeb7053d24d05e11669f4273f",
    "reddit": "0df5e0430937fc1331b4835725cebeb51d44cd2891077b31d7daa13b5de05077",
}

#: sha256 over the class prototypes and the ``(x, y)`` test split of
#: ``make_task("fleet", "paper", seed=0)`` (dtype, shape, bytes each).
FLEET_SETUP_DIGEST = "6100b0abac3f2f4bc707bb81c8e84e89b29b48ccac00b532d92df642895e7d28"


def _payloads_equal(a, b) -> bool:
    if isinstance(a, tuple):
        return isinstance(b, tuple) and all(
            np.array_equal(x, y) for x, y in zip(a, b)
        )
    return np.array_equal(a, b)


def _update(h, arrays) -> None:
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())


def payload_digest(task) -> str:
    h = hashlib.sha256()
    for c in range(task.n_clients):
        payload = task.client_payload(c)
        _update(h, payload if isinstance(payload, tuple) else (payload,))
        h.update(str(task.client_size(c)).encode())
    h.update(str(task.min_client_size()).encode())
    return h.hexdigest()


def batch_digest(task) -> str:
    h = hashlib.sha256()
    for c in (0, task.n_clients - 1):
        batcher = task.batcher([c], 8, [np.random.default_rng([0, 1, c])])
        for _ in range(3):
            _update(h, tuple(a[0] for a in batcher.next_batch()))
    return h.hexdigest()


class TestLazyMatchesEager:
    @pytest.mark.parametrize("name", TASK_NAMES)
    def test_payloads_and_sizes_bit_identical(self, name):
        task = make_task(name, "small", seed=1)
        assert isinstance(task.client_data, ClientDataSource)
        assert payload_digest(task) == EAGER_PAYLOAD_DIGESTS[name]

    @pytest.mark.parametrize("name", TASK_NAMES)
    def test_batcher_streams_identical(self, name):
        """The same (seed, round, client) RNG over a source's payload
        yields the pinned minibatches — the engine-level stream."""
        assert batch_digest(make_task(name, "small", seed=1)) == EAGER_BATCH_DIGESTS[name]

    def test_repeated_access_is_stable(self):
        task = make_task("fmnist", "small", seed=3)
        first = task.client_payload(5)
        second = task.client_payload(5)
        assert _payloads_equal(first, second)

    @pytest.mark.parametrize("name", TASK_NAMES)
    def test_payloads_are_read_only_views(self, name):
        """A resident payload is a slice of the source's arrays, never a
        copy, so writing into it must fail rather than corrupt the rows
        every later read sees."""
        task = make_task(name, "small", seed=1)
        first, second = task.client_payload(3), task.client_payload(3)
        rows = task.client_data._arrays
        reads = zip(first, second, rows) if task.kind == "image" else [(first, second, rows)]
        for a, b, whole in reads:
            assert np.shares_memory(a, b) and np.shares_memory(a, whole)
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0


class TestEagerAdapter:
    def test_wraps_plain_list(self):
        payloads = [np.arange(4), np.arange(9)]
        source = ArraySource.from_payloads(payloads)
        assert len(source) == 2
        assert np.array_equal(source.client_payload(1), np.arange(9))
        assert np.array_equal(source[1], np.arange(9))
        assert source.client_size(0) == 4
        assert source.min_client_size() == 4
        assert [len(p) for p in source] == [4, 9]
        assert np.array_equal(source[-1], np.arange(9))
        with pytest.raises(IndexError):
            source.client_payload(2)

    def test_raw_lists_still_work_on_tasks(self, tiny_image_task):
        """A task built from a plain payload list stores it once."""
        assert isinstance(tiny_image_task.client_data, ArraySource)
        assert tiny_image_task.n_clients == 4
        assert tiny_image_task.client_size(0) == 40
        assert tiny_image_task.min_client_size() == 40

    @pytest.mark.parametrize(
        "client_data, match",
        [
            ([], "no clients"),
            ([np.arange(20), (np.zeros((5, 12)), np.zeros(5))], "client 1: image and text"),
            ([(np.zeros((5, 12)), np.zeros(5)), np.arange(20)], "client 1: image and text"),
            (
                [(np.zeros((5, 12)), np.zeros(5)), (np.zeros((6, 12)), np.zeros(5))],
                r"client 1: image payload rows \[6, 5\]",
            ),
        ],
        ids=["empty", "text-then-image", "image-then-text", "row-mismatch"],
    )
    def test_bad_payload_lists_rejected_at_construction(self, client_data, match):
        """Rows are stored back to back, so a client whose x and y row
        counts differ would shift every later client's rows: a bad list
        fails when the task is built, naming the client."""
        with pytest.raises(ValueError, match=match):
            FederatedTask(
                name="bad", kind="image", model_spec={}, metric="top1",
                client_data=client_data, test_data=None,
            )


class TestFleetSource:
    def test_fleet_task_registered(self):
        assert "fleet" in ALL_TASK_NAMES
        assert "fleet" not in TASK_NAMES  # artifact sweeps must not pick it up

    def test_payloads_deterministic_per_client(self):
        task = make_task("fleet", "small", seed=2)
        source = task.client_data
        assert isinstance(source, FleetImageSource)
        a = source.client_payload(1234)
        b = source.client_payload(1234)
        assert _payloads_equal(a, b)

    def test_distinct_clients_distinct_data(self):
        task = make_task("fleet", "small", seed=2)
        x1, _ = task.client_payload(7)
        x2, _ = task.client_payload(8)
        assert not np.array_equal(x1, x2)

    def test_sizes_constant_and_o1(self):
        task = make_task("fleet", "small", seed=2)
        assert task.client_size(0) == task.client_size(task.n_clients - 1)
        assert task.min_client_size() == task.client_size(0)

    def test_setup_arrays_pinned(self):
        """Building the fleet task draws the class prototypes and the
        test split only; their bytes are pinned, so a change to how
        client shards are drawn cannot move the set-up path."""
        task = make_task("fleet", "paper", seed=0)
        h = hashlib.sha256()
        _update(h, (task.client_data._protos,) + tuple(task.test_data))
        assert h.hexdigest() == FLEET_SETUP_DIGEST

    def test_label_pairs_hold_every_label_confuser_pair_once(self):
        """One uniform code per sample gives a uniform label and an
        independent uniform other class as its confuser."""
        labels, confusers = _label_pairs(10)
        pairs = sorted(zip(labels.tolist(), confusers.tolist()))
        assert pairs == [(y, c) for y in range(10) for c in range(10) if c != y]

    def test_million_client_construction_is_cheap(self):
        """Building the paper-scale fleet must not walk K clients."""
        task = make_task("fleet", "paper", seed=1)
        assert task.n_clients == 1_000_000
        # summary samples rather than walks
        summary = task_summary(task)
        assert "clients=1000000" in summary and "~" in summary

    def test_payload_shape_matches_model_spec(self):
        task = make_task("fleet", "small", seed=0)
        x, y = task.client_payload(0)
        assert x.shape == (task.client_size(0), task.model_spec["input_dim"])
        assert y.shape == (task.client_size(0),)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            FleetImageSource(
                np.zeros((10, 64)), mix=0.1, noise=1.0,
                samples_per_client=0, n_clients=10, seed=0,
            )

    def test_make_fleet_task_arbitrary_size(self):
        """The sized builder honors K exactly and matches the preset's
        payloads at the preset's geometry."""
        task = make_fleet_task(n_clients=123_456, seed=1)
        assert task.n_clients == 123_456
        preset = make_task("fleet", "paper", seed=1)
        sized = make_fleet_task(n_clients=1_000_000, seed=1)
        assert _payloads_equal(preset.client_payload(42), sized.client_payload(42))

    @pytest.mark.parametrize("size_spread", [1.0, 4.0])
    def test_prepared_cohort_reads_the_per_id_shards(self, size_spread):
        """A prepared cohort (one stream pass) gives every client the
        payload and size it has alone, on every read; preparing holds
        each client's size and its generator drawn up to that size
        only, never a drawn shard."""
        task = make_fleet_task(5_000, seed=2, size_spread=size_spread)
        ids = list(range(4_990, 5_000)) + list(range(40, 40 + VECTOR_MIN_KEYS))
        alone = [(task.client_payload(c), task.client_size(c)) for c in ids]
        task.client_data.prepare_cohort(ids)
        fresh = task.client_data._fresh
        assert sorted(fresh) == sorted(ids)
        assert task.client_data._sizes == {c: size for c, (_, size) in zip(ids, alone)}

        def sized(c):
            rng = fleet_shard_rng(2, c)
            task.client_data._shard_size(rng)
            return rng.bit_generator.state

        assert all(g.bit_generator.state == sized(c) for c, g in fresh.items())
        for c, (payload, size) in zip(ids, alone):
            for _ in range(2):
                assert _payloads_equal(task.client_payload(c), payload)
            assert task.client_size(c) == size
        assert not fresh


class TestFleetSizeHeterogeneity:
    """Per-client |D_k| heterogeneity: log-normal sizes keyed by
    ``fleet_shard_rng(seed, client_id)``."""

    def test_default_spread_keeps_historical_stream(self):
        """size_spread=1 draws no size: the shard stream starts with its
        labels, so the default and an explicit 1.0 give the same
        payloads at the preset size."""
        plain = make_fleet_task(n_clients=100, seed=3)
        explicit = make_fleet_task(n_clients=100, seed=3, size_spread=1.0)
        for c in (0, 57, 99):
            assert _payloads_equal(plain.client_payload(c), explicit.client_payload(c))
            assert plain.client_size(c) == 32

    def test_sizes_vary_and_stay_in_clip_bounds(self):
        task = make_fleet_task(n_clients=400, seed=3, size_spread=4.0)
        sizes = [task.client_size(c) for c in range(400)]
        assert len(set(sizes)) > 5  # genuinely heterogeneous
        assert min(sizes) >= 8 and max(sizes) <= 128  # 32 / 4 .. 32 * 4
        assert task.min_client_size() == 8  # the O(1) clip floor

    def test_o1_size_agrees_with_generated_shard(self):
        """Regression: the O(1) ``client_size`` path and the actually
        generated (lazy) shard must agree client by client."""
        for spread in (1.0, 2.0, 4.0):
            task = make_fleet_task(n_clients=50_000, seed=5, size_spread=spread)
            for c in (0, 13, 4_999, 49_999):
                x, y = task.client_payload(c)
                assert x.shape[0] == task.client_size(c)
                assert y.shape[0] == task.client_size(c)

    def test_sizes_deterministic_per_seed_client(self):
        a = make_fleet_task(n_clients=1_000_000, seed=7, size_spread=3.0)
        b = make_fleet_task(n_clients=1_000_000, seed=7, size_spread=3.0)
        assert [a.client_size(c) for c in (0, 123_456, 999_999)] == [
            b.client_size(c) for c in (0, 123_456, 999_999)
        ]
        other_seed = make_fleet_task(n_clients=1_000_000, seed=8, size_spread=3.0)
        sizes_a = [a.client_size(c) for c in range(64)]
        sizes_other = [other_seed.client_size(c) for c in range(64)]
        assert sizes_a != sizes_other

    def test_invalid_spread_rejected(self):
        with pytest.raises(ValueError, match="size_spread"):
            make_fleet_task(n_clients=10, size_spread=0.5)
