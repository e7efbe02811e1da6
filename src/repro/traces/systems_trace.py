"""Trace replay as a :class:`~repro.fl.systems.SystemModel`.

:class:`TraceSystem` makes a :class:`~repro.traces.schema.DeviceTrace`
the trait and availability source of the device model: each client
record's ``compute_speed`` and ``bandwidth_divisor`` are its
``(speed, bandwidth_divisor)`` traits, fetched on demand through a
bounded per-client cache (a launched cohort's missing records are read
in one pass, :meth:`TraceSystem.prepare_cohort`), and the per-round
availability rate follows the trace's period schedule (day/night
cycles).  It is the only source of device traits: the built-in
``heterogeneous``, ``flaky``, ``straggler`` and ``fleet`` profiles are
one-class synthetic traces replayed here
(:data:`repro.fl.systems.DEVICE_PROFILES`).

Availability takes the shape the fleet size calls for
(:meth:`~repro.fl.systems.Availability.at_rate`): explicit ids from a
Bernoulli sweep on paper-scale fleets, and at or above
:data:`~repro.fl.systems.LAZY_AVAILABILITY_THRESHOLD` clients an
up-count that is **one binomial draw at the period's rate**
(round-dependent, so diurnal cycles survive at K = 1,000,000 with
O(cohort) per-round cost), never a ``rng.random(K)`` sweep.

Local compute is the virtual base (1 s) scaled by each record's
``compute_speed`` and the link is the paper's 5G link divided by its
``bandwidth_divisor``, so traced trajectories — sim-clock columns
included — are bit-identical across hosts, reruns and sweep shard
counts.
"""

from __future__ import annotations

import numpy as np

from ..fl.systems import SystemModel
from .schema import DeviceTrace

__all__ = ["TraceSystem"]

#: Per-client traits kept before the cache is emptied; bounds memory
#: over long fleet runs.
TRAIT_CACHE_SIZE = 4096


class TraceSystem(SystemModel):
    """Replay a device trace through the system-model hooks.

    Parameters
    ----------
    trace:
        The source of every client's traits and of the per-round
        availability rate.
    deadline_factor:
        Round deadline as a multiple of the *fastest* scheduled
        client's finish time; clients beyond it are stragglers.  A
        relative deadline keeps scenarios host-speed independent and
        guarantees at least one client always reports.  ``None`` waits
        for everyone.
    """

    def __init__(self, trace: DeviceTrace, deadline_factor: float | None = None) -> None:
        super().__init__()
        if deadline_factor is not None and deadline_factor < 1.0:
            raise ValueError("deadline_factor must be >= 1")
        self.trace = trace
        self.deadline_factor = deadline_factor
        self.name = f"trace:{trace.name}"
        self._trait_cache: dict[int, tuple[float, float]] = {}

    def bind(self, task, config) -> None:
        super().bind(task, config)
        self.trace.require_fleet(task.n_clients)

    def traits(self, client_id: int) -> tuple[float, float]:
        client_id = int(client_id)
        cached = self._trait_cache.get(client_id)
        if cached is None:
            record = self.trace.client_record(client_id)
            cached = record.compute_speed, record.bandwidth_divisor
            if len(self._trait_cache) >= TRAIT_CACHE_SIZE:
                self._trait_cache.clear()
            self._trait_cache[client_id] = cached
        return cached

    def prepare_cohort(self, client_ids) -> None:
        """Cache the cohort's traits, reading the records of the ids not
        cached yet in one pass (:meth:`DeviceTrace.client_records`).  A
        full cache is emptied first, keeping the cohort's own entries,
        so every cohort trait is cached when the arrivals read it."""
        cache = self._trait_cache
        ids = list(dict.fromkeys(int(c) for c in client_ids))
        missing = [c for c in ids if c not in cache]
        if not missing:
            return
        if len(cache) + len(missing) > TRAIT_CACHE_SIZE:
            kept = {c: cache[c] for c in ids if c in cache}
            cache.clear()
            cache.update(kept)
        for c, record in zip(missing, self.trace.client_records(missing)):
            cache[c] = record.compute_speed, record.bandwidth_divisor

    def availability_rate(self, round_index: int) -> float:
        return self.trace.availability_rate(round_index)

    def round_deadline(self, arrival_seconds: np.ndarray) -> float | None:
        if self.deadline_factor is None or not arrival_seconds.size:
            return None
        return self.deadline_factor * float(arrival_seconds.min())
