"""Trace replay as a :class:`~repro.fl.systems.SystemModel`.

:class:`TraceSystem` makes a :class:`~repro.traces.schema.DeviceTrace`
the trait and availability source of the device model: each client
record's ``compute_speed`` and ``bandwidth_divisor`` are its
``(speed, bandwidth_divisor)`` traits, fetched on demand through the
model's bounded trait cache, and the per-round availability rate follows
the trace's period schedule (day/night cycles).

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

from ..fl.systems import SystemModel
from .schema import DeviceTrace

__all__ = ["TraceSystem"]


class TraceSystem(SystemModel):
    """Replay a device trace through the system-model hooks."""

    def __init__(self, trace: DeviceTrace) -> None:
        super().__init__()
        self.trace = trace
        self.name = f"trace:{trace.name}"

    def bind(self, task, config) -> None:
        super().bind(task, config)
        self.trace.require_fleet(task.n_clients)

    def traits(self, client_id: int) -> tuple[float, float]:
        record = self.trace.client_record(client_id)
        return record.compute_speed, record.bandwidth_divisor

    def availability_rate(self, round_index: int) -> float:
        return self.trace.availability_rate(round_index)
