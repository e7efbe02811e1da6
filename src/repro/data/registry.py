"""Federated task registry: the five evaluation datasets of the paper.

``make_task(name, scale, seed)`` builds a :class:`FederatedTask` — the
client shards, the global test set, the model specification, and the
evaluation metric — for one of:

=============  =========================  =======  ==========  ========
name           substitute for             kind     partition   metric
=============  =========================  =======  ==========  ========
``mnist``      MNIST                      image    non-IID     top-1
``fmnist``     Fashion-MNIST              image    non-IID     top-1
``ptb``        Penn TreeBank              text     IID         top-3
``wikitext2``  WikiText-2                 text     IID         top-3
``reddit``     LEAF Reddit (top users)    text     per-user    top-3
=============  =========================  =======  ==========  ========

Two scales are provided: ``"small"`` (laptop-friendly: the default for
tests and benchmarks) and ``"paper"`` (the paper's client counts and
model widths; hours of CPU time).  The paper's metric conventions are
kept: top-1 accuracy for image classification, top-3 for next-word
prediction (mobile keyboards show three candidates).

Fleet-scale simulation
----------------------
Beyond the five paper tasks there is a ``"fleet"`` task whose client
payloads are *generated on demand* from ``(seed, client_id)`` — memory
and per-round cost follow the selected cohort, never the fleet, so a
million-client simulation fits in a laptop's RAM.  Every task's
``client_data`` is a :class:`ClientDataSource`: the five paper tasks
slice their resident arrays per access (:class:`IndexedArraySource`,
:class:`StreamShardSource`; Reddit's per-user streams sit behind
:class:`EagerClientData`), and a task built from a plain per-client
list wraps it in :class:`EagerClientData` once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..streams import stream, streams
from .batching import (
    ImageBatcher,
    SequenceBatcher,
    eval_image_batches,
    eval_sequence_batches,
)
from .images import _sample_images, class_prototypes, make_image_dataset
from .partition import (
    fleet_shard_rng,
    partition_label_shards,
    partition_stream_contiguous,
)
from .text import make_text_corpus, make_user_corpora

__all__ = [
    "ClientDataSource",
    "EagerClientData",
    "IndexedArraySource",
    "StreamShardSource",
    "FleetImageSource",
    "FederatedTask",
    "make_task",
    "make_fleet_task",
    "TASK_NAMES",
    "FLEET_TASK_NAME",
    "ALL_TASK_NAMES",
    "task_summary",
]

TASK_NAMES = ("mnist", "fmnist", "ptb", "wikitext2", "reddit")

#: The synthetic cross-device fleet task (not part of the paper's
#: evaluation line-up, so artifact sweeps over :data:`TASK_NAMES` never
#: pick it up by accident).
FLEET_TASK_NAME = "fleet"

ALL_TASK_NAMES = TASK_NAMES + (FLEET_TASK_NAME,)


# ----------------------------------------------------------------------
# client data sources
# ----------------------------------------------------------------------


class ClientDataSource:
    """Lazy per-client payload access.

    A source answers ``client_payload(c)`` (the ``(x, y)`` arrays of an
    image client or the token stream of a text client) and
    ``client_size(c)`` (``|D_k|``, the aggregation weight of Eq. 10) for
    one client at a time — nothing forces all K payloads into memory at
    once.
    """

    def __len__(self) -> int:
        raise NotImplementedError

    def client_payload(self, client_id: int):
        raise NotImplementedError

    def prepare_cohort(self, client_ids) -> None:
        """Called with a cohort's ids before their payloads are read, so
        a source can get ready for all of them at once; the default
        does nothing."""

    def client_size(self, client_id: int) -> int:
        """|D_k|; default derives it from the materialized payload."""
        payload = self.client_payload(client_id)
        if isinstance(payload, tuple):
            return int(payload[0].shape[0])
        return int(payload.shape[0])

    def min_client_size(self) -> int:
        """min_k |D_k| (``m_r``'s floor in Thm. 1); override when it is
        known in O(1) — the default walks every client."""
        return min(self.client_size(c) for c in range(len(self)))

    def __getitem__(self, client_id: int):
        return self.client_payload(client_id)

    def __iter__(self):
        return (self.client_payload(c) for c in range(len(self)))


class EagerClientData(ClientDataSource):
    """Adapter presenting an in-memory payload list as a source."""

    def __init__(self, payloads: list) -> None:
        self._payloads = list(payloads)

    def __len__(self) -> int:
        return len(self._payloads)

    def client_payload(self, client_id: int):
        return self._payloads[client_id]


class IndexedArraySource(ClientDataSource):
    """Lazy image shards: one ``(x, y)`` view sliced per access.

    Holds the full training arrays once plus the per-client index
    arrays; ``client_payload(c)`` fancy-indexes on demand, so no
    per-client copy of the training set is held.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, parts: list[np.ndarray]) -> None:
        self._x = x
        self._y = y
        self._parts = parts

    def __len__(self) -> int:
        return len(self._parts)

    def client_payload(self, client_id: int):
        idx = self._parts[client_id]
        return self._x[idx], self._y[idx]

    def client_size(self, client_id: int) -> int:
        return int(self._parts[client_id].shape[0])


class StreamShardSource(ClientDataSource):
    """Lazy text shards: one stream slice per access."""

    def __init__(self, stream: np.ndarray, parts: list[np.ndarray]) -> None:
        self._stream = stream
        self._parts = parts

    def __len__(self) -> int:
        return len(self._parts)

    def client_payload(self, client_id: int):
        return self._stream[self._parts[client_id]]

    def client_size(self, client_id: int) -> int:
        return int(self._parts[client_id].shape[0])


class FleetImageSource(ClientDataSource):
    """Million-client image shards generated on demand.

    Client ``c``'s payload is drawn from the stream
    :func:`~repro.data.partition.fleet_shard_rng` ``(seed, c)`` — a pure
    function of the key, so any client can be materialized in any
    process in O(shard), with O(1) state held here (the class
    prototypes).  ``client_size`` is O(1) — fleet methods must never
    walk all K clients at setup.  :meth:`prepare_cohort` builds a
    cohort's streams in one pass before its shards are drawn.

    A shard is three draws after the size
    (:func:`~repro.data.images._sample_images`: labels with their
    confusers, amplitudes, noise), the same law as every image task's
    data.

    ``size_spread > 1`` turns on per-client *size* heterogeneity:
    ``|D_k|`` is log-normal around ``samples_per_client`` (sigma =
    ``log(size_spread) / 2``), clipped to
    ``[samples / size_spread, samples * size_spread]`` (never below 2,
    so every client can form a batch).  The size is the *first* draw of
    the client's shard stream, so it is recoverable in O(1) without
    generating the shard, in any process; ``size_spread=1`` (the
    default, and every preset) draws nothing extra, so the shard's
    first draw is its labels.
    """

    def __init__(
        self,
        protos: np.ndarray,
        mix: float,
        noise: float,
        samples_per_client: int,
        n_clients: int,
        seed: int,
        size_spread: float = 1.0,
    ) -> None:
        if samples_per_client < 1 or n_clients < 1:
            raise ValueError("samples_per_client and n_clients must be >= 1")
        if size_spread < 1.0:
            raise ValueError("size_spread must be >= 1 (1.0 = homogeneous sizes)")
        self._protos = protos
        self._mix = mix
        self._noise = noise
        self._samples = int(samples_per_client)
        self._n_clients = int(n_clients)
        self._seed = int(seed)
        self._size_spread = float(size_spread)
        self._min_samples = max(2, int(round(self._samples / self._size_spread)))
        self._max_samples = max(
            self._min_samples, int(round(self._samples * self._size_spread))
        )
        #: untouched shard streams of the latest cohort, by client id
        self._fresh: dict[int, np.random.Generator] = {}

    def __len__(self) -> int:
        return self._n_clients

    def _shard_size(self, rng: np.random.Generator) -> int:
        """|D_k| from the shard stream's leading draw (none at spread 1)."""
        if self._size_spread <= 1.0:
            return self._samples
        sigma = np.log(self._size_spread) / 2.0
        size = int(round(self._samples * float(np.exp(rng.normal(0.0, sigma)))))
        return int(np.clip(size, self._min_samples, self._max_samples))

    def prepare_cohort(self, client_ids) -> None:
        """Build the cohort's shard streams in one pass
        (:func:`repro.streams.streams`); each client's payload takes its
        stream once.  Only generators are built — no shard is drawn
        ahead of its client — so memory still holds one stack's shards."""
        ids = [int(c) for c in client_ids]
        self._fresh = dict(zip(ids, streams("fleet_shard", self._seed, ids=ids)))

    def client_payload(self, client_id: int):
        rng = self._fresh.pop(client_id, None)
        if rng is None:
            rng = fleet_shard_rng(self._seed, client_id)
        n = self._shard_size(rng)
        return _sample_images(n, self._protos, self._mix, self._noise, rng)

    def client_size(self, client_id: int) -> int:
        if self._size_spread <= 1.0:  # constant sizes: skip the rng build
            return self._samples
        return self._shard_size(fleet_shard_rng(self._seed, client_id))

    def min_client_size(self) -> int:
        """The size clip's floor: an O(1) lower bound on ``min_k |D_k|``
        (exact at ``size_spread=1``; a fleet walk is never allowed)."""
        return self._min_samples if self._size_spread > 1.0 else self._samples


@dataclass
class FederatedTask:
    """A federated dataset plus its model spec and metric.

    ``client_data`` serves per-client payloads — ``(x, y)`` tuples for
    image tasks, token streams for text tasks — through a
    :class:`ClientDataSource`, which lets payloads be computed on demand
    so fleet-scale tasks never hold all K shards at once.  A plain
    payload list is wrapped in :class:`EagerClientData` on construction.
    """

    name: str
    kind: str  # "image" | "text"
    model_spec: dict
    metric: str  # "top1" | "top3"
    client_data: ClientDataSource
    test_data: object
    seq_len: int = 0
    default_dropout_rate: float = 0.5

    def __post_init__(self) -> None:
        if not isinstance(self.client_data, ClientDataSource):
            self.client_data = EagerClientData(self.client_data)

    @property
    def n_clients(self) -> int:
        return len(self.client_data)

    @property
    def topk(self) -> int:
        return 1 if self.metric == "top1" else 3

    def client_payload(self, client_id: int):
        """One client's payload (materialized on demand for lazy sources)."""
        return self.client_data.client_payload(client_id)

    def client_size(self, client_id: int) -> int:
        """|D_k| — the aggregation weight of Eq. (10)."""
        return int(self.client_data.client_size(client_id))

    def min_client_size(self) -> int:
        """min_k |D_k|; O(1) for sources that know it without a fleet walk."""
        return int(self.client_data.min_client_size())

    def batcher(
        self, client_id: int, batch_size: int, rng: np.random.Generator, steps: int = 1
    ):
        """Build the local minibatch sampler for one client.

        ``steps`` is the number of local iterations ahead: an image
        client draws that many batches at a time, in one index draw
        (see :class:`ImageBatcher`).
        """
        payload = self.client_payload(client_id)
        if self.kind == "image":
            x, y = payload
            return ImageBatcher(x, y, batch_size, rng, steps)
        return SequenceBatcher(payload, batch_size, self.seq_len, rng)

    def eval_batches(self, batch_size: int = 256) -> Iterator:
        """Deterministic iterator over the global test set."""
        if self.kind == "image":
            x, y = self.test_data
            return eval_image_batches(x, y, batch_size)
        return eval_sequence_batches(self.test_data, self.seq_len, batch_size)


# ----------------------------------------------------------------------
# presets
# ----------------------------------------------------------------------

_SMALL = {
    "mnist": dict(
        side=8, n_train=2400, n_test=800, n_clients=30, shards=4,
        hidden=(32,), difficulty="easy", p=0.2,
    ),
    "fmnist": dict(
        side=8, n_train=2400, n_test=800, n_clients=30, shards=4,
        hidden=(48,), difficulty="hard", p=0.5,
    ),
    "ptb": dict(
        vocab=300, train_tokens=40_000, test_tokens=6_000, n_clients=20,
        embed=48, hidden=48, layers=2, seq_len=12, p=0.5,
    ),
    "wikitext2": dict(
        vocab=450, train_tokens=90_000, test_tokens=9_000, n_clients=20,
        embed=48, hidden=48, layers=2, seq_len=12, p=0.5,
    ),
    "reddit": dict(
        vocab=300, n_users=20, mean_tokens=2500, test_tokens=6_000,
        embed=48, hidden=48, layers=2, seq_len=12, p=0.5,
    ),
}

_PAPER = {
    "mnist": dict(
        side=28, n_train=60_000, n_test=10_000, n_clients=1000, shards=4,
        hidden=(128,), difficulty="easy", p=0.2,
    ),
    "fmnist": dict(
        side=28, n_train=60_000, n_test=10_000, n_clients=1000, shards=4,
        hidden=(256,), difficulty="hard", p=0.5,
    ),
    "ptb": dict(
        vocab=10_000, train_tokens=900_000, test_tokens=80_000, n_clients=100,
        embed=300, hidden=300, layers=2, seq_len=35, p=0.5,
    ),
    "wikitext2": dict(
        vocab=30_000, train_tokens=2_000_000, test_tokens=200_000, n_clients=100,
        embed=300, hidden=300, layers=2, seq_len=35, p=0.5,
    ),
    "reddit": dict(
        vocab=10_000, n_users=100, mean_tokens=9_000, test_tokens=80_000,
        embed=300, hidden=300, layers=2, seq_len=35, p=0.5,
    ),
}

_SCALES = {"small": _SMALL, "paper": _PAPER}

#: Fleet-scale presets: ``small`` keeps tests fast, ``paper`` is the
#: million-client regime the ROADMAP targets.  Every per-client quantity
#: is O(1) to derive, so building the task never touches the fleet.
_FLEET = {
    "small": dict(
        side=8, n_clients=5_000, samples_per_client=32, n_test=512,
        hidden=(32,), difficulty="easy", p=0.2,
    ),
    "paper": dict(
        side=8, n_clients=1_000_000, samples_per_client=32, n_test=512,
        hidden=(32,), difficulty="easy", p=0.2,
    ),
}


def _make_image_task(name: str, cfg: dict, seed: int) -> FederatedTask:
    ds = make_image_dataset(
        name,
        n_train=cfg["n_train"],
        n_test=cfg["n_test"],
        side=cfg["side"],
        difficulty=cfg["difficulty"],
        seed=seed,
    )
    rng = np.random.default_rng(seed + 17)
    parts = partition_label_shards(
        ds.y_train, cfg["n_clients"], shards_per_client=cfg["shards"], rng=rng
    )
    client_data = IndexedArraySource(ds.x_train, ds.y_train, parts)
    model_spec = {
        "kind": "mlp",
        "input_dim": ds.input_dim,
        "hidden_dims": cfg["hidden"],
        "n_classes": ds.n_classes,
    }
    return FederatedTask(
        name=name,
        kind="image",
        model_spec=model_spec,
        metric="top1",
        client_data=client_data,
        test_data=(ds.x_test, ds.y_test),
        default_dropout_rate=cfg["p"],
    )


def _make_text_task(name: str, cfg: dict, seed: int) -> FederatedTask:
    if name == "reddit":
        corpus = make_user_corpora(
            name,
            vocab=cfg["vocab"],
            n_users=cfg["n_users"],
            mean_tokens=cfg["mean_tokens"],
            test_tokens=cfg["test_tokens"],
            seed=seed,
        )
        # per-user streams are the natural partition and already
        # materialized by the corpus
        client_data = EagerClientData(corpus.user_streams)
    else:
        corpus = make_text_corpus(
            name,
            vocab=cfg["vocab"],
            train_tokens=cfg["train_tokens"],
            test_tokens=cfg["test_tokens"],
            seed=seed,
        )
        rng = np.random.default_rng(seed + 17)
        parts = partition_stream_contiguous(
            corpus.train_stream.shape[0], cfg["n_clients"], rng
        )
        client_data = StreamShardSource(corpus.train_stream, parts)
    model_spec = {
        "kind": "lstm",
        "vocab_size": corpus.vocab_size,
        "embed_dim": cfg["embed"],
        "hidden_size": cfg["hidden"],
        "num_layers": cfg["layers"],
    }
    return FederatedTask(
        name=name,
        kind="text",
        model_spec=model_spec,
        metric="top3",
        client_data=client_data,
        test_data=corpus.test_stream,
        seq_len=cfg["seq_len"],
        default_dropout_rate=cfg["p"],
    )


def _make_fleet_task(cfg: dict, seed: int) -> FederatedTask:
    """The million-client-capable synthetic image task.

    Construction cost is O(prototypes + test set) — independent of
    ``n_clients``.  Client shards come from :class:`FleetImageSource`,
    generated per selected client per round.
    """
    mix, noise = (0.15, 1.8) if cfg["difficulty"] == "easy" else (0.55, 1.8)
    proto_rng = np.random.default_rng(seed)
    protos = class_prototypes(10, cfg["side"], proto_rng)
    source = FleetImageSource(
        protos,
        mix=mix,
        noise=noise,
        samples_per_client=cfg["samples_per_client"],
        n_clients=cfg["n_clients"],
        seed=seed,
        size_spread=cfg.get("size_spread", 1.0),
    )
    x_test, y_test = _sample_images(
        cfg["n_test"], protos, mix, noise, stream("test_split", seed)
    )
    model_spec = {
        "kind": "mlp",
        "input_dim": cfg["side"] * cfg["side"],
        "hidden_dims": cfg["hidden"],
        "n_classes": 10,
    }
    return FederatedTask(
        name=FLEET_TASK_NAME,
        kind="image",
        model_spec=model_spec,
        metric="top1",
        client_data=source,
        test_data=(x_test, y_test),
        default_dropout_rate=cfg["p"],
    )


def make_fleet_task(
    n_clients: int,
    samples_per_client: int = 32,
    side: int = 8,
    difficulty: str = "easy",
    n_test: int = 512,
    hidden: tuple = (32,),
    dropout_rate: float = 0.2,
    seed: int = 0,
    size_spread: float = 1.0,
) -> FederatedTask:
    """A fleet task at an *arbitrary* fleet size.

    ``make_task("fleet", scale)`` covers the two presets (small K=5000,
    paper K=1,000,000); this builder is for everything in between and
    beyond — construction cost stays independent of ``n_clients``.
    ``size_spread > 1`` makes ``|D_k|`` log-normal per client (see
    :class:`FleetImageSource`).
    """
    cfg = dict(
        side=side, n_clients=n_clients, samples_per_client=samples_per_client,
        n_test=n_test, hidden=hidden, difficulty=difficulty, p=dropout_rate,
        size_spread=size_spread,
    )
    return _make_fleet_task(cfg, seed)


def make_task(name: str, scale: str = "small", seed: int = 0) -> FederatedTask:
    """Build one of the five federated evaluation tasks, or the fleet task.

    Parameters
    ----------
    name:
        One of :data:`ALL_TASK_NAMES`.
    scale:
        ``"small"`` (default) or ``"paper"``.
    seed:
        Controls data generation and partitioning.
    """
    if name not in ALL_TASK_NAMES:
        raise ValueError(f"unknown task {name!r}; choose from {ALL_TASK_NAMES}")
    if scale not in _SCALES:
        raise ValueError(f"unknown scale {scale!r}; choose from {tuple(_SCALES)}")
    if name == FLEET_TASK_NAME:
        return _make_fleet_task(_FLEET[scale], seed)
    cfg = _SCALES[scale][name]
    if name in ("mnist", "fmnist"):
        return _make_image_task(name, cfg, seed)
    return _make_text_task(name, cfg, seed)


#: Above this fleet size, :func:`task_summary` reports sizes over a
#: deterministic sample of clients instead of walking all of them.
_SUMMARY_SAMPLE_THRESHOLD = 10_000


def task_summary(task: FederatedTask, system=None) -> str:
    """One-line description used by the benchmark reports.

    For fleets beyond :data:`_SUMMARY_SAMPLE_THRESHOLD` clients the
    min/max sample sizes are estimated from a deterministic 1000-client
    sample (marked ``~``) — a summary line must not cost O(fleet).

    When a trace-backed ``system`` (anything carrying a device trace,
    e.g. :class:`repro.traces.TraceSystem`) is passed, the line also
    reports the trace name and its device-class composition over the
    same deterministic sample.
    """
    n = task.n_clients
    if n > _SUMMARY_SAMPLE_THRESHOLD:
        ids = np.linspace(0, n - 1, 1000).astype(int)
        approx = "~"
    else:
        ids = np.arange(n)
        approx = ""
    sizes = [task.client_size(int(c)) for c in ids]
    line = (
        f"{task.name}: kind={task.kind} clients={n} "
        f"samples/client min={approx}{min(sizes)} max={approx}{max(sizes)} "
        f"metric={task.metric}"
    )
    # duck-typed (not isinstance) so repro.data never imports
    # repro.traces: any system exposing a DeviceTrace-shaped `.trace`
    # gets its composition reported
    trace = getattr(system, "trace", None)
    if trace is not None and hasattr(trace, "client_record"):
        counts: dict[str, int] = {}
        for c in ids:
            name = trace.client_record(int(c)).device_class
            counts[name] = counts.get(name, 0) + 1
        composition = " ".join(
            f"{name}={approx}{count}" for name, count in sorted(counts.items())
        )
        line += f" | trace={trace.name} classes: {composition}"
    return line
