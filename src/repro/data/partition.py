"""Client data partitioning strategies.

Implements the partitioning schemes used in the paper's evaluation:

* label-shard non-IID for image datasets (the strategy of [28]/McMahan:
  sort by label, carve into shards, deal a few shards per client);
* contiguous token-stream chunks for PTB/WikiText-2 ("randomly sample
  data without overlap and allocate");
* natural per-user partitioning for Reddit;
* IID random and Dirichlet label-skew splits as extra knobs.

Every function returns a list of disjoint index arrays covering all
samples exactly once — properties pinned by hypothesis tests.
"""

from __future__ import annotations

import numpy as np

from ..streams import stream

__all__ = [
    "partition_iid",
    "partition_label_shards",
    "partition_dirichlet",
    "partition_stream_contiguous",
    "contiguous_client_span",
    "contiguous_client_chunk",
    "fleet_shard_rng",
]


def _validate(n_samples: int, n_clients: int) -> None:
    if n_clients <= 0:
        raise ValueError("n_clients must be positive")
    if n_samples < n_clients:
        raise ValueError(f"cannot split {n_samples} samples across {n_clients} clients")


def partition_iid(
    n_samples: int,
    n_clients: int,
    rng: np.random.Generator,
) -> list[np.ndarray]:
    """Random equal split (remainder spread over the first clients)."""
    _validate(n_samples, n_clients)
    order = rng.permutation(n_samples)
    return [np.sort(chunk) for chunk in np.array_split(order, n_clients)]


def partition_label_shards(
    labels: np.ndarray,
    n_clients: int,
    shards_per_client: int = 2,
    rng: np.random.Generator | None = None,
) -> list[np.ndarray]:
    """Pathological label-skew split (McMahan et al.).

    Samples are sorted by label and cut into ``n_clients *
    shards_per_client`` contiguous shards; each client receives
    ``shards_per_client`` random shards, so it mostly sees
    ``shards_per_client`` classes.
    """
    labels = np.asarray(labels)
    _validate(labels.shape[0], n_clients)
    rng = rng if rng is not None else np.random.default_rng(0)
    n_shards = n_clients * shards_per_client
    if labels.shape[0] < n_shards:
        raise ValueError("not enough samples for the requested shard count")
    # stable sort keeps ties in input order; shuffle within label first
    perm = rng.permutation(labels.shape[0])
    order = perm[np.argsort(labels[perm], kind="stable")]
    shards = np.array_split(order, n_shards)
    shard_ids = rng.permutation(n_shards)
    out = []
    for c in range(n_clients):
        take = shard_ids[c * shards_per_client : (c + 1) * shards_per_client]
        out.append(np.sort(np.concatenate([shards[s] for s in take])))
    return out


def partition_dirichlet(
    labels: np.ndarray,
    n_clients: int,
    alpha: float = 0.5,
    rng: np.random.Generator | None = None,
    min_per_client: int = 1,
) -> list[np.ndarray]:
    """Dirichlet label-skew split (Hsu et al. convention).

    For every class, sample client proportions from ``Dir(alpha)`` and
    deal the class's samples accordingly.  Small ``alpha`` gives severe
    skew.  Clients left under ``min_per_client`` samples steal from the
    largest client to keep every client trainable.
    """
    labels = np.asarray(labels)
    _validate(labels.shape[0], n_clients)
    if min_per_client < 0:
        raise ValueError("min_per_client must be >= 0")
    if labels.shape[0] < n_clients * min_per_client:
        raise ValueError(
            f"cannot guarantee min_per_client={min_per_client}: "
            f"{labels.shape[0]} samples across {n_clients} clients "
            f"leaves fewer than {n_clients * min_per_client} to deal"
        )
    rng = rng if rng is not None else np.random.default_rng(0)
    buckets: list[list[int]] = [[] for _ in range(n_clients)]
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        rng.shuffle(idx)
        proportions = rng.dirichlet(np.full(n_clients, alpha))
        cuts = (np.cumsum(proportions)[:-1] * idx.size).astype(int)
        for client, chunk in enumerate(np.split(idx, cuts)):
            buckets[client].extend(chunk.tolist())
    # rebalance empty/starved clients.  The starved client is excluded
    # from the donor argmax (taking from itself would loop forever), and
    # a donor must sit strictly above min_per_client or the steal would
    # just starve it in turn.  Feasibility is guaranteed by the total
    # check above: while any bucket is short, some *other* bucket holds
    # more than min_per_client — the guard below is defensive only.
    for c in range(n_clients):
        while len(buckets[c]) < min_per_client:
            donor_sizes = [
                len(b) if i != c else -1 for i, b in enumerate(buckets)
            ]
            donor = int(np.argmax(donor_sizes))
            if donor_sizes[donor] <= min_per_client:
                raise ValueError(
                    f"dirichlet rebalance infeasible: no donor above "
                    f"min_per_client={min_per_client} while client {c} "
                    f"holds {len(buckets[c])} samples"
                )
            buckets[c].append(buckets[donor].pop())
    return [np.sort(np.array(b, dtype=np.int64)) for b in buckets]


def partition_stream_contiguous(
    stream_len: int,
    n_clients: int,
    rng: np.random.Generator,
) -> list[np.ndarray]:
    """Split a token stream into contiguous chunks, dealt randomly.

    Contiguity preserves the local sequence structure each client
    trains on; the random deal removes any ordering bias — matching the
    paper's "randomly sample data without overlap" for PTB/WikiText-2.
    """
    _validate(stream_len, n_clients)
    order = rng.permutation(n_clients)
    return [contiguous_client_chunk(stream_len, n_clients, int(i)) for i in order]


# ----------------------------------------------------------------------
# O(1)-per-client shard assignment
# ----------------------------------------------------------------------
# The functions below answer "what is client c's shard?" in O(1) (plus
# the size of that one shard), as pure functions of the partition
# geometry and seed, without materializing all K shards.


def contiguous_client_span(
    stream_len: int, n_clients: int, client_id: int
) -> tuple[int, int]:
    """``[start, stop)`` of one client's contiguous chunk, in O(1).

    Evaluates the same cut points as
    ``np.linspace(0, stream_len, n_clients + 1).astype(int)`` —
    the historical bounds of :func:`partition_stream_contiguous` —
    pointwise: ``linspace`` computes ``i * (stream_len / n_clients)``
    in float64 and truncates, which is reproduced here exactly, so one
    client's chunk is bit-identical to its part of the whole split.
    """
    _validate(stream_len, n_clients)
    if not 0 <= client_id < n_clients:
        raise ValueError(f"client_id {client_id} out of range [0, {n_clients})")
    step = stream_len / n_clients
    start = int(client_id * step)
    stop = stream_len if client_id == n_clients - 1 else int((client_id + 1) * step)
    return start, stop


def contiguous_client_chunk(
    stream_len: int, n_clients: int, client_id: int
) -> np.ndarray:
    """One client's contiguous index chunk (see :func:`contiguous_client_span`)."""
    start, stop = contiguous_client_span(stream_len, n_clients, client_id)
    return np.arange(start, stop)


def fleet_shard_rng(seed: int, client_id: int) -> np.random.Generator:
    """The RNG stream owning one fleet client's shard.

    Keyed by ``(seed, client_id)`` — never by draw order — so any
    client's payload can be generated on demand, in any process, without
    touching the other K-1 clients (the ``"fleet_shard"`` purpose of
    :mod:`repro.streams`).
    """
    return stream("fleet_shard", seed, client_id)
