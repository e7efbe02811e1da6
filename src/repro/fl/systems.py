"""Virtual-clock system simulation: availability, latency, stragglers.

Real federated deployments are dominated by *system* heterogeneity —
devices come and go, compute at different speeds, and sit behind very
different links.  This module adds that layer to the simulation without
touching the learning code:

* :class:`VirtualClock` — a priority-queue event clock.  Client uploads
  are scheduled at their simulated arrival time; the server pops events
  until its round deadline and advances the clock to the time the round
  actually closed.  Rounds therefore cost *simulated* seconds (derived
  from the device's compute time and the modeled link), not host
  wall-clock.
* :class:`Availability` — the clients selectable in one round, as one
  value: explicit ascending ids (paper-scale fleets) or only an
  up-count (million-client fleets, where even an ``arange(K)`` is too
  much per round).  It owns the one sampling call that picks
  Algorithm 1's cohort, so the server never branches on its shape.
* :class:`SystemModel` — the device-model hooks, and itself the ideal
  system.  A device is a ``(speed, bandwidth_divisor)`` trait pair:
  compute time is the virtual one-second LTTR base times the speed,
  and the link is the paper's 5G link with both rates divided by the
  bandwidth trait.  :class:`repro.traces.TraceSystem` is the one
  subclass: it reads traits and availability from a device trace.

Every other profile name — ``heterogeneous``, ``flaky``, ``straggler``
and ``fleet`` (:data:`DEVICE_PROFILES`), a registered trace
or a trace file — is a :class:`~repro.traces.TraceSystem`;
:func:`make_system` resolves the name for ``FLConfig.system`` and
``experiments.cli run --device-profile``.

All stochastic device behaviour draws from RNG streams derived from
``(seed, round)`` — never from execution order — and simulated compute
never reads host wall-clock, so a scenario, sim-clock columns and
straggler sets included, is reproducible across reruns, hosts and sweep
shard counts.  The host-measured LTTR is only reported
(``RoundRecord.lttr_seconds_mean``), never simulated.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from ..comm.network import TMOBILE_5G, NetworkModel

__all__ = [
    "VirtualClock",
    "ClientArrival",
    "Availability",
    "sample_index_cohort",
    "SystemModel",
    "LAZY_AVAILABILITY_THRESHOLD",
    "DEVICE_PROFILES",
    "SYSTEM_NAMES",
    "make_system",
]

#: Fleet sizes at or above this threshold draw availability as an
#: up-count (and select with :func:`sample_index_cohort`); smaller
#: fleets draw explicit ids.  Far above every paper-scale fleet
#: (K <= 5000), far below the million-client regime, so fleet runs
#: never pay O(K) per round.
LAZY_AVAILABILITY_THRESHOLD = 100_000


class VirtualClock:
    """A simulated clock with a priority queue of timed events.

    The queue orders payloads by their scheduled time (ties broken by
    insertion order, keeping pops deterministic).  Time only moves
    forward; :meth:`advance_to` on a past instant is a no-op guard.
    """

    def __init__(self) -> None:
        self._time = 0.0
        self._heap: list[tuple[float, int, object]] = []
        self._counter = 0

    @property
    def now(self) -> float:
        return self._time

    def schedule(self, payload, at: float) -> None:
        """Enqueue ``payload`` to arrive at absolute time ``at``."""
        if at < self._time:
            raise ValueError(f"cannot schedule in the past ({at} < {self._time})")
        heapq.heappush(self._heap, (float(at), self._counter, payload))
        self._counter += 1

    def pop_until(self, t: float) -> list:
        """Pop every payload scheduled at or before ``t``, in time order."""
        out = []
        while self._heap and self._heap[0][0] <= t:
            out.append(heapq.heappop(self._heap)[2])
        return out

    def next_time(self) -> float | None:
        """Scheduled time of the earliest pending event, or ``None``."""
        return self._heap[0][0] if self._heap else None

    def pop_next(self):
        """Pop the earliest pending event as ``(time, payload)``.

        Unlike :meth:`pop_until` this ignores the current time — it is
        the server 'blocking on the next upload', however late.  Raises
        ``IndexError`` on an empty queue.
        """
        if not self._heap:
            raise IndexError("pop_next on an empty event queue")
        at, _, payload = heapq.heappop(self._heap)
        return at, payload

    def pending(self) -> list:
        """Every event still in the queue, in time order (not popped)."""
        return [item[2] for item in sorted(self._heap)]

    def drop_pending(self) -> list:
        """Discard (and return) every event still in the queue."""
        out = self.pending()
        self._heap.clear()
        return out

    def advance_to(self, t: float) -> None:
        """Move the clock forward to absolute time ``t`` (never back)."""
        self._time = max(self._time, float(t))

    def __len__(self) -> int:
        return len(self._heap)


@dataclass(frozen=True, eq=False)
class Availability:
    """The clients selectable in one round of a ``n_clients`` fleet.

    Exactly one of ``ids`` (explicit, ascending client ids) or ``count``
    (how many devices are up, without saying which) is set.  Either way
    :meth:`sample` draws the round's cohort uniformly, so the server's
    selection code never looks at the shape.
    """

    n_clients: int
    ids: np.ndarray | None = None
    count: int | None = None

    def __post_init__(self) -> None:
        if (self.ids is None) == (self.count is None):
            raise ValueError("set exactly one of ids and count")
        if self.count is not None and not 0 <= self.count <= self.n_clients:
            raise ValueError("count must be in [0, n_clients]")

    @classmethod
    def at_rate(cls, n_clients: int, rate: float, rng: np.random.Generator) -> "Availability":
        """Each device up independently with probability ``rate``.

        At or above :data:`LAZY_AVAILABILITY_THRESHOLD` clients the
        result is an up-count drawn as one binomial (O(1) per round);
        below it, ids from a Bernoulli sweep over the fleet.  A server
        cannot run an empty round, so a draw that leaves nobody up falls
        back to one device.  ``rate >= 1`` draws nothing.
        """
        if n_clients >= LAZY_AVAILABILITY_THRESHOLD:
            count = n_clients if rate >= 1.0 else int(rng.binomial(n_clients, rate))
            return cls(n_clients, count=max(count, 1))
        if rate >= 1.0:
            return cls(n_clients, ids=np.arange(n_clients))
        up = rng.random(n_clients) < rate
        if not up.any():
            return cls(n_clients, ids=np.array([rng.integers(n_clients)]))
        return cls(n_clients, ids=np.flatnonzero(up))

    @property
    def size(self) -> int:
        """How many clients are up."""
        return self.count if self.ids is None else self.ids.size

    def sample(self, rng: np.random.Generator, c: int, exclude=None) -> np.ndarray:
        """Up to ``c`` distinct available ids, none of them in ``exclude``.

        Explicit ids are drawn with ``rng.choice`` after dropping the
        excluded ones; an up-count samples the fleet's id range directly
        (:func:`sample_index_cohort`), in O(cohort).  Returns an empty
        array when nobody is left to draw.
        """
        if self.ids is None:
            c = min(c, self.count - (len(exclude) if exclude else 0))
            if c <= 0:
                return np.empty(0, dtype=np.int64)
            return sample_index_cohort(rng, self.n_clients, c, exclude=exclude)
        ids = self.ids
        if exclude:
            ids = ids[~np.isin(ids, np.fromiter(exclude, dtype=np.int64, count=len(exclude)))]
        c = min(c, ids.size)
        if c <= 0:
            return np.empty(0, dtype=np.int64)
        return rng.choice(ids, size=c, replace=False)


def sample_index_cohort(
    rng: np.random.Generator,
    n_clients: int,
    size: int,
    exclude=None,
) -> np.ndarray:
    """Draw ``size`` distinct client ids from ``range(n_clients)``.

    Never materializes the id range: rejection-samples batched
    ``rng.integers`` draws, skipping duplicates and the ``exclude`` set
    (async in-flight clients).  With cohorts far below the fleet size —
    the fleet regime by definition — the expected cost is O(size).  The
    result is a pure function of the generator state, so per-``(seed,
    round)`` keyed streams make selection fully deterministic.
    """
    exclude = exclude if exclude is not None else ()
    if size < 0:
        raise ValueError("size must be >= 0")
    if size > n_clients - len(exclude):
        raise ValueError(
            f"cannot draw {size} distinct ids from {n_clients} clients "
            f"with {len(exclude)} excluded"
        )
    chosen: set[int] = set()
    out: list[int] = []
    while len(out) < size:
        draws = rng.integers(0, n_clients, size=2 * (size - len(out)))
        for cid in draws:
            cid = int(cid)
            if cid in chosen or cid in exclude:
                continue
            chosen.add(cid)
            out.append(cid)
            if len(out) == size:
                break
    return np.array(out, dtype=np.int64)


@dataclass(frozen=True)
class ClientArrival:
    """Simulated timing decomposition of one client's round."""

    client_id: int
    download_seconds: float
    compute_seconds: float
    upload_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.download_seconds + self.compute_seconds + self.upload_seconds


class SystemModel:
    """The device model consumed by the simulation — the ideal system.

    Everyone is available, every device is the unit device (compute at
    the one-second virtual LTTR base, the paper's 5G link) and no round
    has a deadline.  :class:`repro.traces.TraceSystem` overrides the
    three sources — :meth:`traits`, :meth:`availability_rate` and
    :meth:`round_deadline`; the hooks the simulation calls
    (:meth:`prepare_cohort`, :meth:`available_clients`,
    :meth:`compute_seconds`, :meth:`network`) are defined here once.
    :meth:`bind` is called once per simulation with the task and config.
    """

    name = "ideal"

    def __init__(self) -> None:
        self.task = None
        self.config = None

    def bind(self, task, config) -> None:
        self.task = task
        self.config = config

    # -- what subclasses supply ------------------------------------------
    def traits(self, client_id: int) -> tuple[float, float]:
        """``(speed, bandwidth_divisor)`` of one device; 1.0 is the
        unit device."""
        return 1.0, 1.0

    def availability_rate(self, round_index: int) -> float:
        """Probability that a client is selectable in this round."""
        return 1.0

    def round_deadline(self, arrival_seconds: np.ndarray) -> float | None:
        """Cutoff (seconds after round start) past which clients are
        dropped as stragglers; ``None`` waits for everyone.

        ``arrival_seconds`` holds every scheduled client's total round
        duration, letting relative deadlines anchor on the cohort.
        """
        return None

    # -- hooks ----------------------------------------------------------
    def prepare_cohort(self, client_ids) -> None:
        """Called with a launched cohort's ids before its arrivals are
        simulated, so traits can be read for all of them at once; the
        unit devices need nothing."""

    def available_clients(self, round_index: int, rng: np.random.Generator) -> Availability:
        """Clients selectable this round (never empty)."""
        return Availability.at_rate(
            self.task.n_clients, self.availability_rate(round_index), rng
        )

    def compute_seconds(self, round_index: int, client_id: int) -> float:
        """Simulated local-training time: the one-second virtual LTTR
        base times the device's speed."""
        return self.traits(client_id)[0]

    def network(self, round_index: int, client_id: int) -> NetworkModel:
        """The client's link: the 5G link with both rates divided by the
        device's bandwidth trait."""
        divisor = self.traits(client_id)[1]
        return NetworkModel(
            downlink_mbps=TMOBILE_5G.downlink_mbps / divisor,
            uplink_mbps=TMOBILE_5G.uplink_mbps / divisor,
            latency_seconds=TMOBILE_5G.latency_seconds,
        )


# perfbench's tracer looks these names up on the module; ROADMAP item 5
# deletes them together with the tracer's class list.
HeterogeneousSystem = FleetSystem = SystemModel

#: The built-in device profiles, by ``FLConfig.system`` name: each is a
#: one-class trace (:func:`repro.traces.profile_system`) with parameters
#: ``(speed_spread, bandwidth_spread, availability rate, deadline_factor)``.
DEVICE_PROFILES: dict[str, tuple[float, float, float, float | None]] = {
    # mild heterogeneity, everyone waits for everyone
    "heterogeneous": (4.0, 2.0, 1.0, None),
    # flaky fleet: a third of the fleet offline each round
    "flaky": (4.0, 2.0, 0.7, None),
    # wide speed spread + a deadline at 1.5x the fastest client: slow
    # devices become stragglers and are dropped from aggregation
    "straggler": (8.0, 4.0, 1.0, 1.5),
    # million-client regime: on-demand traits, binomial availability
    "fleet": (4.0, 2.0, 0.6, None),
}

#: Every built-in ``FLConfig.system`` profile: the ideal base model plus
#: the trace profiles.
SYSTEM_NAMES = ("ideal", *DEVICE_PROFILES)


def make_system(name: str) -> SystemModel:
    """Build a device model from a profile name or a trace spec.

    ``"ideal"`` is the base :class:`SystemModel`.  Every other profile is
    a one-class trace, and ``"trace:<name-or-path>"`` specs (and bare
    ``*.json`` trace paths) replay a recorded or synthetic device trace;
    both are built by the trace subsystem — see :mod:`repro.traces`.
    """
    if name == "ideal":
        return SystemModel()
    from ..traces import is_trace_spec, make_trace_system, profile_system

    if name in DEVICE_PROFILES:
        return profile_system(name, *DEVICE_PROFILES[name])
    if is_trace_spec(name):
        return make_trace_system(name)
    raise ValueError(
        f"unknown system profile {name!r}; choose from {SYSTEM_NAMES} "
        f"or a 'trace:<name-or-path>' spec"
    )
