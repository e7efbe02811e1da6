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
``client_data`` is a :class:`ClientDataSource`.  The five paper tasks
and every task built from a plain per-client list hold their rows in
one :class:`ArraySource`: the rows stored back to back in client order
plus ``(K+1,)`` offsets, a payload being a read-only slice view.

Training reads data a *stack* of clients at a time:
:meth:`FederatedTask.batcher` asks the source for the stack's rows
(:meth:`ClientDataSource.stack_rows`) and builds one batcher over them.
An :class:`ArraySource` hands over its own rows and each client's row
start, so nothing is copied before the batch gather; the fleet source
draws the stack's shards back to back and mixes them in one pass.
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
from .images import (
    _draw_images,
    _mix_images,
    _sample_images,
    class_prototypes,
    make_image_dataset,
)
from .partition import (
    fleet_shard_rng,
    partition_label_shards,
    partition_stream_contiguous,
)
from .text import make_text_corpus, make_user_corpora

__all__ = [
    "ClientDataSource",
    "ArraySource",
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
    """Per-client payload access.

    A source answers ``client_payload(c)`` (an image client's ``(x, y)``
    arrays or a text client's token stream), ``client_size(c)`` (``|D_k|``,
    the aggregation weight of Eq. 10) and ``min_client_size()`` (``m_r``'s
    floor in Thm. 1) one client at a time; a size never builds a payload.
    :meth:`stack_rows` hands a stack of clients' rows to its batcher.
    """

    def __len__(self) -> int:
        raise NotImplementedError

    def client_payload(self, client_id: int):
        raise NotImplementedError

    def client_size(self, client_id: int) -> int:
        raise NotImplementedError

    def min_client_size(self) -> int:
        raise NotImplementedError

    def prepare_cohort(self, client_ids) -> None:
        """Called with a cohort's ids before their payloads are read, so
        a source can get ready for all of them at once; the default
        does nothing."""

    def stack_rows(self, client_ids):
        """``(arrays, starts, sizes)``: rows shaped like a payload, and
        the ``(c,)`` row starts and counts of each client of the stack
        (:mod:`repro.data.batching`)."""
        raise NotImplementedError

    def __getitem__(self, client_id: int):
        return self.client_payload(client_id)

    def __iter__(self):
        return (self.client_payload(c) for c in range(len(self)))


def _offsets(sizes) -> np.ndarray:
    """``(K+1,)`` row offsets of clients stored back to back."""
    return np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))


def _each(arrays, f):
    """``f`` over each array of an ``(x, y)`` pair, or over one array."""
    return tuple(map(f, arrays)) if isinstance(arrays, tuple) else f(arrays)


class ArraySource(ClientDataSource):
    """Resident client data: every client's rows back to back.

    ``arrays`` is an image task's ``(x, y)`` pair or a text task's token
    stream, its rows stored in client order: client ``c`` owns rows
    ``offsets[c]:offsets[c + 1]``.  A payload is a slice view shaped
    like ``arrays``, so the source makes the arrays read-only.
    """

    def __init__(self, arrays, offsets: np.ndarray) -> None:
        _each(arrays, lambda a: a.setflags(write=False))
        self._arrays, self._offsets = arrays, offsets

    @classmethod
    def gather(cls, arrays, parts: list[np.ndarray]) -> ArraySource:
        """Client ``c`` gets rows ``parts[c]`` of ``arrays``, gathered
        into client order in one take per array."""
        idx = np.concatenate(parts)
        return cls(_each(arrays, lambda a: a[idx]), _offsets([p.shape[0] for p in parts]))

    @classmethod
    def from_payloads(cls, payloads) -> ArraySource:
        """Store a plain per-client list: ``(x, y)`` pairs or token
        streams.  An empty list, a list mixing the two kinds, or an image
        client whose ``x`` and ``y`` row counts differ raises
        ``ValueError`` naming the client."""
        payloads = list(payloads)
        if not payloads:
            raise ValueError("client_data holds no clients")
        pair = isinstance(payloads[0], tuple)
        for c, payload in enumerate(payloads):
            if isinstance(payload, tuple) != pair:
                raise ValueError(f"client {c}: image and text payloads mixed in one list")
            if pair and (len(payload) != 2 or len(payload[0]) != len(payload[1])):
                counts = [len(a) for a in payload]
                raise ValueError(f"client {c}: image payload rows {counts}, want (x, y) alike")
        rows = tuple(map(np.concatenate, zip(*payloads))) if pair else np.concatenate(payloads)
        return cls(rows, _offsets([len(p[0] if pair else p) for p in payloads]))

    def __len__(self) -> int:
        return self._offsets.shape[0] - 1

    def _rows(self, client_id: int) -> slice:
        c = range(len(self))[client_id]  # bounds-checked; negatives count from the end
        return slice(self._offsets[c], self._offsets[c + 1])

    def client_payload(self, client_id: int):
        rows = self._rows(client_id)
        return _each(self._arrays, lambda a: a[rows])

    def client_size(self, client_id: int) -> int:
        rows = self._rows(client_id)
        return int(rows.stop - rows.start)

    def min_client_size(self) -> int:
        return int(np.diff(self._offsets).min())

    def stack_rows(self, client_ids):
        """The source's own rows: a stack gathers its batches from them
        without copying a client's rows first."""
        ids = [range(len(self))[c] for c in client_ids]
        starts = self._offsets[ids]
        return self._arrays, starts, self._offsets[np.add(ids, 1)] - starts


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
    generating the shard, in any process; a cohort pass draws it once.
    ``size_spread=1`` (the default, and every preset) draws nothing
    extra, so the shard's first draw is its labels.
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
        #: shard sizes drawn since the latest cohort pass, and its unread streams
        self._sizes: dict[int, int] = {}
        self._fresh: dict[int, np.random.Generator] = {}
        #: the noise draws' scratch rows, kept across stacks: a fresh
        #: block per stack made the heap shrink and regrow, at about
        #: 1,000 page faults per fleet round
        self._noise_rows = np.empty((0, protos.shape[1]))

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
        (:func:`repro.streams.streams`) and draw each one's size; each
        client's payload takes its stream once.  No shard is drawn ahead
        of its client, so memory still holds one stack's shards."""
        ids = [int(c) for c in client_ids]
        self._fresh = dict(zip(ids, streams("fleet_shard", self._seed, ids=ids)))
        self._sizes = {c: self._shard_size(rng) for c, rng in self._fresh.items()}

    def _shard_stream(self, client_id: int) -> np.random.Generator:
        """The client's shard stream past its size draw: the prepared
        one, taken once, or a per-id stream built now."""
        rng = self._fresh.pop(client_id, None)
        if rng is None:
            rng = fleet_shard_rng(self._seed, client_id)
            self._sizes[client_id] = self._shard_size(rng)
        return rng

    def client_payload(self, client_id: int):
        return self.stack_rows([client_id])[0]

    def stack_rows(self, client_ids):
        """Draw the stack's shards back to back: each client's three
        draws from its own stream, in order, then one elementwise mix of
        all their rows (:func:`~repro.data.images._mix_images`)."""
        rngs = [self._shard_stream(c) for c in client_ids]
        sizes = np.array([self._sizes[c] for c in client_ids], dtype=np.int64)
        offsets = _offsets(sizes)
        k, d = self._protos.shape
        n = int(offsets[-1])
        if self._noise_rows.shape[0] < n:
            self._noise_rows = np.empty((n, d))
        codes, amplitude, z = np.empty(n, np.int64), np.empty((n, 1)), self._noise_rows[:n]
        for rng, a, b in zip(rngs, offsets[:-1].tolist(), offsets[1:].tolist()):
            _draw_images(rng, k, codes[a:b], amplitude[a:b], z[a:b])
        rows = _mix_images(codes, amplitude, z, self._protos, self._mix, self._noise)
        return rows, offsets[:-1], sizes

    def client_size(self, client_id: int) -> int:
        if client_id in self._sizes or self._size_spread <= 1.0:
            return self._sizes.get(client_id, self._samples)
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
    payload list is checked into an :class:`ArraySource` on construction.
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
            self.client_data = ArraySource.from_payloads(self.client_data)

    @property
    def n_clients(self) -> int:
        return len(self.client_data)

    @property
    def topk(self) -> int:
        return 1 if self.metric == "top1" else 3

    def client_payload(self, client_id: int):
        """One client's payload (a resident view, or a fleet shard drawn now)."""
        return self.client_data.client_payload(client_id)

    def client_size(self, client_id: int) -> int:
        """|D_k| — the aggregation weight of Eq. (10)."""
        return int(self.client_data.client_size(client_id))

    def min_client_size(self) -> int:
        """min_k |D_k|, read without building a payload."""
        return int(self.client_data.min_client_size())

    def batcher(
        self,
        client_ids,
        batch_size: int,
        rngs: list[np.random.Generator],
        steps: int = 1,
    ):
        """Build the local minibatch sampler of a stack of clients.

        Client ``client_ids[i]`` draws its batches from ``rngs[i]`` and
        owns slot ``i`` of every batch's leading axis; a lone client is
        a stack of one.  ``steps`` is the number of local iterations
        ahead: an image client draws that many batches at a time, in one
        index draw (see :class:`ImageBatcher`).  A client whose shard
        cannot form a batch (empty, or a token stream too short for one
        window) raises ``ValueError`` naming it.
        """
        ids = [int(c) for c in client_ids]
        arrays, starts, sizes = self.client_data.stack_rows(ids)
        if self.kind == "image":
            return ImageBatcher(
                *arrays, starts, sizes, batch_size, rngs, steps, ids,
                n_classes=self.model_spec["n_classes"],
            )
        return SequenceBatcher(arrays, starts, sizes, batch_size, self.seq_len, rngs, ids)

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
    client_data = ArraySource.gather((ds.x_train, ds.y_train), parts)
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
        # per-user streams are the natural partition, and the training
        # stream already holds them back to back
        client_data = ArraySource(corpus.train_stream, corpus.user_offsets)
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
        client_data = ArraySource.gather(corpus.train_stream, parts)
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
