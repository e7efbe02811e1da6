"""Deterministic synthetic trace generators.

Real cross-device fleets are dominated by a few device *classes* whose
population follows a heavy-tailed (Zipf-like) distribution — the
FLASH-style characterization used to stress-test Adaptive Federated
Dropout and FedDD.  :class:`SyntheticTrace` reproduces that shape:

* device classes are **Zipf-weighted** (first class heaviest,
  ``weight ∝ 1 / rank^s``);
* within a class, compute speed and bandwidth divisor are
  **log-normal** around the class medians;
* availability follows a **diurnal sinusoid** sampled into the schema's
  per-period rate table (:func:`diurnal_availability`).

Every per-client quantity is drawn from the ``"trace_traits"`` stream
of ``(seed, client_id)`` (:mod:`repro.streams`) — a pure function of the
key, never of draw order — so any client's record can be generated in
any process in O(1), and a ``K = 1,000,000`` trace costs O(cohort) per
simulated round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..streams import stream, streams
from .schema import (
    TRACE_FORMAT_VERSION,
    ClientRecord,
    DeviceTrace,
    _validate_availability,
)

__all__ = [
    "DeviceClassSpec",
    "FLASH_DEVICE_CLASSES",
    "zipf_class_weights",
    "diurnal_availability",
    "SyntheticTrace",
    "make_synthetic_trace",
]

@dataclass(frozen=True)
class DeviceClassSpec:
    """One device tier: log-normal speed/bandwidth around class medians.

    ``speed_median`` multiplies the LTTR base (bigger = slower device);
    ``bandwidth_median`` divides the base link rates (bigger = slower
    link) — the :class:`~repro.traces.schema.ClientRecord` conventions.
    """

    name: str
    speed_median: float
    speed_sigma: float
    bandwidth_median: float
    bandwidth_sigma: float

    def __post_init__(self) -> None:
        if self.speed_median <= 0 or self.bandwidth_median <= 0:
            raise ValueError("class medians must be positive")
        if self.speed_sigma < 0 or self.bandwidth_sigma < 0:
            raise ValueError("class sigmas must be >= 0")


#: FLASH-style device tiers, heaviest (Zipf rank 1) first: a fleet
#: dominated by slow low-end phones, a mid tier at the reference speed,
#: and a thin head of fast flagships on good links.
FLASH_DEVICE_CLASSES = (
    DeviceClassSpec("low", speed_median=2.5, speed_sigma=0.30,
                    bandwidth_median=2.0, bandwidth_sigma=0.40),
    DeviceClassSpec("mid", speed_median=1.0, speed_sigma=0.25,
                    bandwidth_median=1.0, bandwidth_sigma=0.35),
    DeviceClassSpec("high", speed_median=0.45, speed_sigma=0.20,
                    bandwidth_median=0.5, bandwidth_sigma=0.30),
)


def zipf_class_weights(n_classes: int, exponent: float) -> np.ndarray:
    """Normalized Zipf weights over class ranks: ``w_i ∝ 1/(i+1)^s``."""
    if n_classes < 1:
        raise ValueError("n_classes must be >= 1")
    if exponent < 0:
        raise ValueError("exponent must be >= 0")
    weights = 1.0 / np.arange(1, n_classes + 1, dtype=np.float64) ** exponent
    return weights / weights.sum()


def diurnal_availability(
    period: int = 24,
    mean: float = 0.55,
    amplitude: float = 0.35,
    min_rate: float = 0.05,
    phase: float = 0.0,
) -> tuple[float, ...]:
    """A day/night availability cycle as per-period rates.

    Samples ``mean + amplitude * sin(2π (i + phase) / period)`` at each
    of the ``period`` steps, clipped to ``[min_rate, 1]`` — the schema's
    per-period record form of a diurnal sinusoid (devices charge and
    idle at night, drop off during the day, as in the FedBuff/papaya
    production observations).
    """
    if period < 1:
        raise ValueError("period must be >= 1")
    if not 0.0 < min_rate <= 1.0:
        raise ValueError("min_rate must be in (0, 1]")
    rates = tuple(
        float(np.clip(mean + amplitude * math.sin(2.0 * math.pi * (i + phase) / period),
                      min_rate, 1.0))
        for i in range(period)
    )
    return rates


class SyntheticTrace(DeviceTrace):
    """A generative trace: Zipf device classes, lazy per-client records.

    ``n_clients=None`` leaves the fleet size open — the trace covers any
    task it is bound to, because records are pure functions of
    ``(seed, client_id)``.  Serializes to its parameters (a few hundred
    bytes at any fleet size).
    """

    kind = "synthetic"

    def __init__(
        self,
        name: str,
        classes=FLASH_DEVICE_CLASSES,
        zipf_exponent: float = 1.2,
        seed: int = 0,
        n_clients: int | None = None,
        availability=(1.0,),
        rounds_per_period: int = 1,
    ) -> None:
        self.name = str(name)
        self.classes = tuple(classes)
        if not self.classes:
            raise ValueError("a synthetic trace needs at least one device class")
        self.zipf_exponent = float(zipf_exponent)
        self.seed = int(seed)
        if n_clients is not None and n_clients < 1:
            raise ValueError("n_clients must be >= 1 (or None for unsized)")
        self._n_clients = None if n_clients is None else int(n_clients)
        self.availability = _validate_availability(availability, rounds_per_period)
        self.rounds_per_period = int(rounds_per_period)
        # cumulative Zipf weights; searchsorted turns one uniform draw
        # into a class index
        self._cum_weights = np.cumsum(
            zipf_class_weights(len(self.classes), self.zipf_exponent)
        )
        self._log_medians = np.array(
            [(math.log(c.speed_median), math.log(c.bandwidth_median)) for c in self.classes]
        )
        self._sigmas = np.array([(c.speed_sigma, c.bandwidth_sigma) for c in self.classes])

    @property
    def n_clients(self) -> int | None:
        return self._n_clients

    def _check(self, client_id) -> int:
        client_id = int(client_id)
        if client_id < 0 or (self._n_clients is not None and client_id >= self._n_clients):
            raise ValueError(f"client_id {client_id} outside the trace's fleet")
        return client_id

    def client_record(self, client_id: int) -> ClientRecord:
        client_id = self._check(client_id)
        return self._records([client_id], [stream("trace_traits", self.seed, client_id)])[0]

    def client_records(self, client_ids) -> list[ClientRecord]:
        """The records of ``client_ids``, their trait streams built in
        one pass (:func:`repro.streams.streams`)."""
        ids = [self._check(c) for c in client_ids]
        return self._records(ids, streams("trace_traits", self.seed, ids=ids))

    def _records(self, ids: list[int], rngs) -> list[ClientRecord]:
        """Each client's three scalar draws from its own stream (a class
        uniform, then the speed and bandwidth normals), turned into
        records array-wide: one ``searchsorted`` for the classes and one
        ``exp`` for both traits.  ``rng.normal(mu, sigma)`` is ``mu +
        sigma * standard_normal()``, so the traits are the same numbers
        as drawing each at its class's parameters."""
        draws = np.array(
            [(rng.random(), rng.standard_normal(), rng.standard_normal()) for rng in rngs]
        ).reshape(len(ids), 3)
        index = np.searchsorted(self._cum_weights, draws[:, 0], side="right")
        index = np.minimum(index, len(self.classes) - 1)
        # (c, 2): speed then bandwidth, log-normal around the class medians
        traits = np.exp(self._log_medians[index] + self._sigmas[index] * draws[:, 1:]).tolist()
        return [
            ClientRecord(
                client_id=c,
                device_class=self.classes[k].name,
                compute_speed=speed,
                bandwidth_divisor=bandwidth,
            )
            for c, k, (speed, bandwidth) in zip(ids, index.tolist(), traits)
        ]

    def device_class_names(self) -> tuple[str, ...]:
        return tuple(cls.name for cls in self.classes)

    def to_payload(self) -> dict:
        return {
            "format": TRACE_FORMAT_VERSION,
            "kind": self.kind,
            "name": self.name,
            "availability": list(self.availability),
            "rounds_per_period": self.rounds_per_period,
            "seed": self.seed,
            "zipf_exponent": self.zipf_exponent,
            "n_clients": self._n_clients,
            "classes": [
                {
                    "name": cls.name,
                    "speed_median": cls.speed_median,
                    "speed_sigma": cls.speed_sigma,
                    "bandwidth_median": cls.bandwidth_median,
                    "bandwidth_sigma": cls.bandwidth_sigma,
                }
                for cls in self.classes
            ],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "SyntheticTrace":
        classes = tuple(
            DeviceClassSpec(
                name=str(c["name"]),
                speed_median=float(c["speed_median"]),
                speed_sigma=float(c["speed_sigma"]),
                bandwidth_median=float(c["bandwidth_median"]),
                bandwidth_sigma=float(c["bandwidth_sigma"]),
            )
            for c in payload["classes"]
        )
        n_clients = payload.get("n_clients")
        return cls(
            name=payload["name"],
            classes=classes,
            zipf_exponent=float(payload["zipf_exponent"]),
            seed=int(payload["seed"]),
            n_clients=None if n_clients is None else int(n_clients),
            availability=payload.get("availability", (1.0,)),
            rounds_per_period=int(payload.get("rounds_per_period", 1)),
        )


def make_synthetic_trace(
    name: str = "synthetic",
    n_clients: int | None = None,
    classes=FLASH_DEVICE_CLASSES,
    zipf_exponent: float = 1.2,
    seed: int = 0,
    availability=(1.0,),
    rounds_per_period: int = 1,
) -> SyntheticTrace:
    """Build a Zipf-weighted synthetic device trace (one-liner form)."""
    return SyntheticTrace(
        name=name,
        classes=classes,
        zipf_exponent=zipf_exponent,
        seed=seed,
        n_clients=n_clients,
        availability=availability,
        rounds_per_period=rounds_per_period,
    )
