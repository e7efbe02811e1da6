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
* :class:`SystemModel` — the one device model.  A device is a
  ``(speed, bandwidth_divisor)`` trait pair: compute time is the
  virtual LTTR base ``lttr_seconds`` times the speed, and the link is
  ``base_network`` with both rates divided by the bandwidth trait.
  Subclasses only say where traits come from
  (:meth:`SystemModel.traits`), how many devices are up each round
  (:meth:`SystemModel.availability_rate`) and, optionally, when a round
  closes (:meth:`SystemModel.round_deadline`).

Profiles are registered in :data:`DEVICE_PROFILES` and selected by name
through ``FLConfig.system`` or ``experiments.cli run --device-profile``.

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
from typing import Callable

import numpy as np

from ..comm.network import TMOBILE_5G, NetworkModel

__all__ = [
    "VirtualClock",
    "ClientArrival",
    "Availability",
    "sample_index_cohort",
    "SystemModel",
    "IdealSystem",
    "HeterogeneousSystem",
    "FleetSystem",
    "LAZY_AVAILABILITY_THRESHOLD",
    "DEVICE_PROFILES",
    "SYSTEM_NAMES",
    "make_system",
]

#: Fleet sizes at or above this threshold draw availability as an
#: up-count (and select with :func:`sample_index_cohort`) unless the
#: system model fixes the shape.  Far above every paper-scale fleet
#: (K <= 1000), so existing trajectories are untouched; far below the
#: million-client regime, so fleet runs never pay O(K) per round.
LAZY_AVAILABILITY_THRESHOLD = 100_000

#: Per-client traits kept by a bound system model before the cache is
#: emptied; bounds memory over long fleet runs.
TRAIT_CACHE_SIZE = 4096


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

    def drop_pending(self) -> list:
        """Discard (and return) every event still in the queue."""
        out = [item[2] for item in sorted(self._heap)]
        self._heap.clear()
        return out

    def advance_to(self, t: float) -> None:
        """Move the clock forward to absolute time ``t`` (never back)."""
        self._time = max(self._time, float(t))

    def advance(self, dt: float) -> None:
        """Move the clock forward by ``dt`` simulated seconds."""
        if dt < 0:
            raise ValueError("cannot advance the clock backwards")
        self._time += float(dt)

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
    def at_rate(
        cls,
        n_clients: int,
        rate: float,
        rng: np.random.Generator,
        lazy: bool | None = None,
    ) -> "Availability":
        """Each device up independently with probability ``rate``.

        ``lazy`` picks the shape: an up-count drawn as one binomial
        (O(1) per round), or ids from a Bernoulli sweep over the fleet.
        ``None`` takes the count at or above
        :data:`LAZY_AVAILABILITY_THRESHOLD` clients.  A server cannot run
        an empty round, so a draw that leaves nobody up falls back to one
        device.  ``rate >= 1`` draws nothing.
        """
        if lazy is None:
            lazy = n_clients >= LAZY_AVAILABILITY_THRESHOLD
        if lazy:
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


def _spread_sigma(spread: float) -> float:
    """Log-normal sigma realizing a heterogeneity ``spread``.

    ``spread=1.0`` is the degenerate edge: sigma 0, every trait exactly
    1.0 (heterogeneity off) — a valid request, e.g. from a calibration
    fit of a homogeneous trace.  Anything below 1 is rejected here
    rather than silently producing a negative sigma (or ``-inf`` at 0),
    which ``Generator.normal`` would only reject later and less clearly.
    """
    if spread < 1.0:
        raise ValueError(f"spread must be >= 1 (1.0 disables the axis), got {spread}")
    return np.log(spread) / 2.0


def _scaled_network(base: NetworkModel, divisor: float) -> NetworkModel:
    """``base`` with both link rates divided by a bandwidth trait."""
    return NetworkModel(
        downlink_mbps=base.downlink_mbps / divisor,
        uplink_mbps=base.uplink_mbps / divisor,
        latency_seconds=base.latency_seconds,
    )


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
    """The device model consumed by the simulation.

    Every device is a ``(speed, bandwidth_divisor)`` trait pair from
    :meth:`traits`; the base class is the ideal system (everyone
    available, unit traits, the paper's 5G link, no deadline).
    Subclasses supply a trait source, an :meth:`availability_rate` and
    optionally a :meth:`round_deadline`; the hooks the simulation calls
    (:meth:`available_clients`, :meth:`compute_seconds`,
    :meth:`network`) are defined here once.  :meth:`bind` is called once
    per simulation with the task and config so models can derive
    per-client traits deterministically from ``config.seed``.

    Parameters
    ----------
    availability:
        Per-round probability that a client is selectable.
    base_network:
        The link of a unit-bandwidth device; a device's link divides
        both rates by its bandwidth trait.
    lttr_seconds:
        Virtual local-training time of a unit-speed device; a device
        computes for ``lttr_seconds * speed`` simulated seconds.
    """

    name = "ideal"

    #: availability shape: ``True`` always draws an up-count, ``False``
    #: always explicit ids, ``None`` decides by fleet size (see
    #: :meth:`Availability.at_rate`)
    lazy_availability: bool | None = None

    def __init__(
        self,
        availability: float = 1.0,
        base_network: NetworkModel = TMOBILE_5G,
        lttr_seconds: float = 1.0,
    ) -> None:
        if not 0.0 < availability <= 1.0:
            raise ValueError("availability must be in (0, 1]")
        if lttr_seconds is None or lttr_seconds <= 0:
            raise ValueError(f"lttr_seconds must be positive, got {lttr_seconds}")
        self.availability = availability
        self.base_network = base_network
        self.lttr_seconds = lttr_seconds
        self.task = None
        self.config = None
        self._trait_cache: dict[int, tuple[float, float]] = {}

    def bind(self, task, config) -> None:
        self.task = task
        self.config = config
        # traits may be keyed by config.seed; a rebind (same instance,
        # new config) must not serve the previous run's cache
        self._trait_cache.clear()

    # -- what subclasses supply ------------------------------------------
    def traits(self, client_id: int) -> tuple[float, float]:
        """``(speed, bandwidth_divisor)`` of one device; 1.0 is the
        unit device (compute at the LTTR base, link at ``base_network``)."""
        return 1.0, 1.0

    def availability_rate(self, round_index: int) -> float:
        """Probability that a client is selectable in this round."""
        return self.availability

    def round_deadline(self, arrival_seconds: np.ndarray) -> float | None:
        """Cutoff (seconds after round start) past which clients are
        dropped as stragglers; ``None`` waits for everyone.

        ``arrival_seconds`` holds every scheduled client's total round
        duration, letting relative deadlines anchor on the cohort.
        """
        return None

    # -- hooks ----------------------------------------------------------
    def available_clients(self, round_index: int, rng: np.random.Generator) -> Availability:
        """Clients selectable this round (never empty)."""
        return Availability.at_rate(
            self.task.n_clients, self.availability_rate(round_index), rng,
            lazy=self.lazy_availability,
        )

    def _cached_traits(self, client_id: int) -> tuple[float, float]:
        """:meth:`traits` through a bounded per-client cache."""
        client_id = int(client_id)
        cached = self._trait_cache.get(client_id)
        if cached is None:
            cached = self.traits(client_id)
            if len(self._trait_cache) >= TRAIT_CACHE_SIZE:
                self._trait_cache.clear()
            self._trait_cache[client_id] = cached
        return cached

    def compute_seconds(self, round_index: int, client_id: int) -> float:
        """Simulated local-training time: the LTTR base times the speed."""
        return self.lttr_seconds * self._cached_traits(client_id)[0]

    def network(self, round_index: int, client_id: int) -> NetworkModel:
        """The client's link for this round."""
        return _scaled_network(self.base_network, self._cached_traits(client_id)[1])


class IdealSystem(SystemModel):
    """No system heterogeneity — the historical simulation behaviour."""

    name = "ideal"


class HeterogeneousSystem(SystemModel):
    """Log-normal device speeds, scaled bandwidth, Bernoulli availability.

    Per-client traits are drawn once in :meth:`bind` from
    ``default_rng([seed, 0x51D5])``:

    * ``speed`` — multiplies the LTTR base (1.0 = a unit-speed device;
      log-normal with ``sigma = log(speed_spread)/2``);
    * ``bandwidth`` — divides both link rates of ``base_network``
      (log-normal with ``sigma = log(bandwidth_spread)/2``).

    Availability is always explicit ids, from a per-round Bernoulli
    sweep at ``availability``.  ``availability``, ``base_network`` and
    ``lttr_seconds`` are as in :class:`SystemModel`.

    Parameters
    ----------
    speed_spread, bandwidth_spread:
        Heterogeneity width; ``1.0`` disables that axis.
    deadline_factor:
        Round deadline as a multiple of the *fastest* scheduled
        client's finish time; clients beyond it are stragglers.  A
        relative deadline keeps scenarios host-speed independent and
        guarantees at least one client always reports.
    deadline_seconds:
        Absolute deadline alternative (applied after, and capped by,
        ``deadline_factor`` when both are set).
    """

    name = "heterogeneous"
    lazy_availability = False

    def __init__(
        self,
        availability: float = 1.0,
        speed_spread: float = 4.0,
        bandwidth_spread: float = 2.0,
        deadline_factor: float | None = None,
        deadline_seconds: float | None = None,
        base_network: NetworkModel = TMOBILE_5G,
        lttr_seconds: float = 1.0,
    ) -> None:
        super().__init__(availability, base_network, lttr_seconds)
        if deadline_factor is not None and deadline_factor < 1.0:
            raise ValueError("deadline_factor must be >= 1")
        self.speed_spread = speed_spread
        self.bandwidth_spread = bandwidth_spread
        self._sigmas = (_spread_sigma(speed_spread), _spread_sigma(bandwidth_spread))
        self.deadline_factor = deadline_factor
        self.deadline_seconds = deadline_seconds
        self._speed: np.ndarray | None = None
        self._bandwidth: np.ndarray | None = None

    def bind(self, task, config) -> None:
        super().bind(task, config)
        rng = np.random.default_rng([config.seed, 0x51D5])
        n = task.n_clients
        self._speed = np.exp(rng.normal(0.0, self._sigmas[0], size=n))
        self._bandwidth = np.exp(rng.normal(0.0, self._sigmas[1], size=n))

    def traits(self, client_id: int) -> tuple[float, float]:
        return float(self._speed[client_id]), float(self._bandwidth[client_id])

    def round_deadline(self, arrival_seconds: np.ndarray) -> float | None:
        cutoff = None
        if self.deadline_factor is not None and arrival_seconds.size:
            cutoff = self.deadline_factor * float(arrival_seconds.min())
        if self.deadline_seconds is not None:
            cutoff = self.deadline_seconds if cutoff is None else min(cutoff, self.deadline_seconds)
        return cutoff


class FleetSystem(SystemModel):
    """Fleet-scale heterogeneity: per-round cost O(cohort), not O(K).

    :class:`HeterogeneousSystem` draws per-client trait *arrays* at bind
    time — O(K) memory — which caps it at the paper's thousand-client
    fleets.  This model binds in O(1):

    * traits are drawn on demand from ``default_rng([seed, 0xF1EE7,
      client_id])`` — a pure function of the key, so any client's speed
      and bandwidth can be computed in any process without touching the
      rest of the fleet;
    * availability is always an up-count, one binomial draw per round
      instead of a ``rng.random(K)`` Bernoulli sweep; selection then
      samples cohort indices directly.

    The trait and availability streams differ from
    :class:`HeterogeneousSystem`'s, so this sampler is registered as the
    *new* ``"fleet"`` profile — existing profiles keep their historical
    draws bit-for-bit.
    """

    name = "fleet"
    lazy_availability = True

    #: per-client trait keying tag (cannot collide with the 3-element
    #: ``[seed, round, client]`` client streams: the tag exceeds any
    #: realistic round index)
    _TRAIT_TAG = 0xF1EE7

    def __init__(
        self,
        availability: float = 1.0,
        speed_spread: float = 4.0,
        bandwidth_spread: float = 2.0,
        base_network: NetworkModel = TMOBILE_5G,
        lttr_seconds: float = 1.0,
    ) -> None:
        super().__init__(availability, base_network, lttr_seconds)
        self.speed_spread = speed_spread
        self.bandwidth_spread = bandwidth_spread
        self._sigmas = (_spread_sigma(speed_spread), _spread_sigma(bandwidth_spread))

    def traits(self, client_id: int) -> tuple[float, float]:
        rng = np.random.default_rng([self.config.seed, self._TRAIT_TAG, client_id])
        speed = float(np.exp(rng.normal(0.0, self._sigmas[0])))
        bw = float(np.exp(rng.normal(0.0, self._sigmas[1])))
        return speed, bw


#: Named device profiles selectable via ``FLConfig.system``.
DEVICE_PROFILES: dict[str, Callable[[], SystemModel]] = {
    "ideal": IdealSystem,
    # mild heterogeneity, everyone waits for everyone
    "heterogeneous": lambda: HeterogeneousSystem(speed_spread=4.0, bandwidth_spread=2.0),
    # flaky fleet: a third of the fleet offline each round
    "flaky": lambda: HeterogeneousSystem(
        availability=0.7, speed_spread=4.0, bandwidth_spread=2.0
    ),
    # wide speed spread + a deadline at 1.5x the fastest client: slow
    # devices become stragglers and are dropped from aggregation
    "straggler": lambda: HeterogeneousSystem(
        speed_spread=8.0, bandwidth_spread=4.0, deadline_factor=1.5
    ),
    # million-client regime: O(cohort) per-round cost, on-demand traits,
    # binomial availability
    "fleet": lambda: FleetSystem(availability=0.6, speed_spread=4.0, bandwidth_spread=2.0),
}

SYSTEM_NAMES = tuple(DEVICE_PROFILES)


def make_system(name: str) -> SystemModel:
    """Build a device profile from its registry name.

    ``"trace:<name-or-path>"`` specs (and bare ``*.json`` trace paths)
    are delegated to the trace subsystem, which replays a recorded or
    synthetic device trace instead of a parametric profile — see
    :mod:`repro.traces`.
    """
    if name.startswith("trace:") or name.endswith(".json"):
        from ..traces import make_trace_system

        return make_trace_system(name)
    try:
        factory = DEVICE_PROFILES[name]
    except KeyError:
        raise ValueError(
            f"unknown system profile {name!r}; choose from {SYSTEM_NAMES} "
            f"or a 'trace:<name-or-path>' spec"
        ) from None
    model = factory()
    model.name = name
    return model
