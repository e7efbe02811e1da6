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

Local compute defaults to the virtual base ``lttr_seconds=1.0`` scaled
by each record's ``compute_speed``, making traced trajectories —
sim-clock columns included — bit-identical across hosts, reruns and
sweep shard counts; pass ``lttr_seconds=None`` to scale measured LTTR
instead.
"""

from __future__ import annotations

from ..comm.network import TMOBILE_5G, NetworkModel
from ..fl.systems import SystemModel
from .schema import DeviceTrace

__all__ = ["TraceSystem"]


class TraceSystem(SystemModel):
    """Replay a device trace through the system-model hooks."""

    def __init__(
        self,
        trace: DeviceTrace,
        base_network: NetworkModel = TMOBILE_5G,
        lttr_seconds: float | None = 1.0,
    ) -> None:
        super().__init__(base_network=base_network, lttr_seconds=lttr_seconds)
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
