"""Versioned device-trace schema and strict-JSON persistence.

A *device trace* is a replayable description of a client fleet's system
behaviour: per-client device class, compute speed and link bandwidth,
plus a per-period availability schedule (day/night cycles).  Traces come
in two kinds sharing one on-disk format (``format`` is
:data:`TRACE_FORMAT_VERSION`; loaders reject anything else):

* ``"tabular"`` — an explicit per-client record table
  (:class:`TabularTrace`), the natural form for observed/measured
  fleets.  O(K) on disk and in memory, so it suits fleets up to the
  paper's thousands of clients.
* ``"synthetic"`` — a generative parameterization
  (:class:`~repro.traces.generators.SyntheticTrace`) whose client
  records are drawn on demand from ``(seed, client_id)``-keyed RNG
  streams.  A million-client trace serializes to a few hundred bytes
  and replays at O(cohort) cost per round.

Files are strict JSON written through
:func:`repro.fl.checkpoints.dumps_nan_safe` — no NaN/Infinity literals
ever reach disk, so any strict parser can read a trace.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from ..fl.checkpoints import dumps_nan_safe

__all__ = [
    "TRACE_FORMAT_VERSION",
    "ClientRecord",
    "DeviceTrace",
    "TabularTrace",
    "materialize",
    "save_trace",
    "load_trace",
    "trace_from_payload",
]

#: Bumped whenever the trace payload layout changes; every loader
#: rejects foreign versions instead of misreading them.
TRACE_FORMAT_VERSION = 1


@dataclass(frozen=True)
class ClientRecord:
    """One client's device traits.

    * ``compute_speed`` multiplies the simulation's LTTR base (1.0 = as
      fast as the reference device; 2.0 = twice as slow);
    * ``bandwidth_divisor`` divides both link rates of the base
      :class:`~repro.comm.network.NetworkModel` (2.0 = half the
      bandwidth).

    These are the ``(speed, bandwidth_divisor)`` traits of
    :class:`~repro.fl.systems.SystemModel`, which
    :class:`~repro.traces.TraceSystem` reads record by record.
    """

    client_id: int
    device_class: str
    compute_speed: float
    bandwidth_divisor: float

    def __post_init__(self) -> None:
        if self.client_id < 0:
            raise ValueError("client_id must be >= 0")
        if not self.compute_speed > 0:
            raise ValueError("compute_speed must be positive")
        if not self.bandwidth_divisor > 0:
            raise ValueError("bandwidth_divisor must be positive")


def _validate_availability(availability, rounds_per_period: int) -> tuple[float, ...]:
    rates = tuple(float(r) for r in availability)
    if not rates:
        raise ValueError("availability must hold at least one period rate")
    if any(not 0.0 <= r <= 1.0 for r in rates):
        raise ValueError("availability rates must be in [0, 1]")
    if rounds_per_period < 1:
        raise ValueError("rounds_per_period must be >= 1")
    return rates


class DeviceTrace:
    """Interface shared by tabular and synthetic traces.

    Subclasses provide ``name``, ``kind``, ``availability``
    (per-period rates) and ``rounds_per_period`` attributes, plus
    :meth:`client_record` and :meth:`to_payload`.  ``n_clients`` may be
    ``None`` for synthetic traces, meaning "sized by whatever task the
    trace is bound to" — client records are pure functions of
    ``(seed, client_id)``, so the fleet size is not part of their
    identity.
    """

    name: str = "trace"
    kind: str = "abstract"
    availability: tuple[float, ...] = (1.0,)
    rounds_per_period: int = 1

    @property
    def n_clients(self) -> int | None:
        raise NotImplementedError

    def client_record(self, client_id: int) -> ClientRecord:
        raise NotImplementedError

    def client_records(self, client_ids) -> list[ClientRecord]:
        """Several clients' records, in order; a trace may build them
        in one pass."""
        return [self.client_record(c) for c in client_ids]

    def device_class_names(self) -> tuple[str, ...]:
        raise NotImplementedError

    def to_payload(self) -> dict:
        raise NotImplementedError

    def availability_rate(self, round_index: int) -> float:
        """The availability rate governing round ``round_index`` (1-based).

        Periods advance every ``rounds_per_period`` rounds and wrap
        around the schedule — a 24-entry schedule with one round per
        period is a day/night cycle sampled hourly.
        """
        if round_index < 1:
            raise ValueError("round_index is 1-based")
        period = ((round_index - 1) // self.rounds_per_period) % len(self.availability)
        return self.availability[period]

    def mean_availability(self) -> float:
        """Schedule-average availability (one full cycle)."""
        return sum(self.availability) / len(self.availability)

    def require_fleet(self, n_clients: int) -> None:
        """Raise unless this trace covers a fleet of ``n_clients``."""
        if self.n_clients is not None and n_clients > self.n_clients:
            raise ValueError(
                f"trace {self.name!r} records {self.n_clients} clients but "
                f"the task has {n_clients}; regenerate or materialize a "
                f"larger trace"
            )


class TabularTrace(DeviceTrace):
    """An explicit per-client record table (observed-fleet form).

    Records must cover client ids ``0..K-1`` exactly once, in order —
    the trace is an array keyed by client id, not a sparse mapping.
    """

    kind = "tabular"

    def __init__(
        self,
        name: str,
        records,
        availability=(1.0,),
        rounds_per_period: int = 1,
    ) -> None:
        self.name = str(name)
        self.records = tuple(records)
        if not self.records:
            raise ValueError("a tabular trace needs at least one client record")
        for expected, record in enumerate(self.records):
            if record.client_id != expected:
                raise ValueError(
                    f"records must cover client ids 0..{len(self.records) - 1} "
                    f"in order; position {expected} holds id {record.client_id}"
                )
        self.availability = _validate_availability(availability, rounds_per_period)
        self.rounds_per_period = int(rounds_per_period)

    @property
    def n_clients(self) -> int:
        return len(self.records)

    def client_record(self, client_id: int) -> ClientRecord:
        if not 0 <= client_id < len(self.records):
            raise ValueError(f"client_id {client_id} outside the trace's fleet")
        return self.records[client_id]

    def device_class_names(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for record in self.records:
            seen.setdefault(record.device_class, None)
        return tuple(seen)

    def to_payload(self) -> dict:
        return {
            "format": TRACE_FORMAT_VERSION,
            "kind": self.kind,
            "name": self.name,
            "availability": list(self.availability),
            "rounds_per_period": self.rounds_per_period,
            "records": [
                {
                    "client_id": r.client_id,
                    "device_class": r.device_class,
                    "compute_speed": r.compute_speed,
                    "bandwidth_divisor": r.bandwidth_divisor,
                }
                for r in self.records
            ],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "TabularTrace":
        records = [
            ClientRecord(
                client_id=int(r["client_id"]),
                device_class=str(r["device_class"]),
                compute_speed=float(r["compute_speed"]),
                bandwidth_divisor=float(r["bandwidth_divisor"]),
            )
            for r in payload["records"]
        ]
        return cls(
            name=payload["name"],
            records=records,
            availability=payload.get("availability", (1.0,)),
            rounds_per_period=int(payload.get("rounds_per_period", 1)),
        )


def materialize(trace: DeviceTrace, n_clients: int | None = None) -> TabularTrace:
    """Snapshot any trace into an explicit :class:`TabularTrace`.

    ``n_clients`` is required when the trace is unsized (synthetic with
    ``n_clients=None``); for sized traces it may shrink the table (a
    prefix snapshot) but never grow past the trace's own fleet.
    """
    size = n_clients if n_clients is not None else trace.n_clients
    if size is None:
        raise ValueError("materializing an unsized trace requires n_clients")
    trace.require_fleet(size)
    return TabularTrace(
        name=trace.name,
        records=[trace.client_record(c) for c in range(size)],
        availability=trace.availability,
        rounds_per_period=trace.rounds_per_period,
    )


def trace_from_payload(payload: dict) -> DeviceTrace:
    """Rebuild a trace from its :meth:`DeviceTrace.to_payload` form."""
    version = payload.get("format")
    if version != TRACE_FORMAT_VERSION:
        raise ValueError(
            f"unsupported trace format {version!r} "
            f"(this build reads format {TRACE_FORMAT_VERSION})"
        )
    kind = payload.get("kind")
    if kind == "tabular":
        return TabularTrace.from_payload(payload)
    if kind == "synthetic":
        from .generators import SyntheticTrace

        return SyntheticTrace.from_payload(payload)
    raise ValueError(f"unknown trace kind {kind!r}")


def save_trace(trace: DeviceTrace, path: str | Path) -> None:
    """Write a trace as strict JSON (via ``dumps_nan_safe``)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dumps_nan_safe(trace.to_payload()))


def load_trace(path: str | Path) -> DeviceTrace:
    """Read a trace written by :func:`save_trace`."""
    return trace_from_payload(json.loads(Path(path).read_text()))
