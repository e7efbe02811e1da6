"""Trace-driven device & availability subsystem.

A :class:`~repro.traces.schema.DeviceTrace` is a first-class,
replayable description of fleet system behaviour — per-client device
class, compute speed and bandwidth, plus a per-period availability
schedule — and the only source of device traits: every built-in device
profile (:data:`repro.fl.systems.DEVICE_PROFILES`) is a one-class
synthetic trace (:func:`profile_system`), and Fig. 7-style scenarios
replay FLASH-style multi-class traces:

* :mod:`repro.traces.schema` — versioned schema, strict-JSON save/load;
* :mod:`repro.traces.generators` — deterministic synthetic traces
  (Zipf device classes, diurnal availability), lazy at any fleet size;
* :mod:`repro.traces.systems_trace` — :class:`TraceSystem` replays a
  trace through the simulation's system-model hooks;
* :mod:`repro.traces.calibration` — fits profile parameters back from
  a trace (method of moments) with an LTTR round-trip check.

Traces plug into ``FLConfig.system`` as ``"trace:<name-or-path>"``
specs (see :func:`trace_system_spec`); registered names live in
:data:`TRACE_REGISTRY`, everything else is treated as a path to a
:func:`~repro.traces.schema.save_trace` file.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Callable

from .calibration import TraceFit, fit, lttr_round_trip_error
from .generators import (
    FLASH_DEVICE_CLASSES,
    DeviceClassSpec,
    SyntheticTrace,
    diurnal_availability,
    make_synthetic_trace,
    zipf_class_weights,
)
from .schema import (
    TRACE_FORMAT_VERSION,
    ClientRecord,
    DeviceTrace,
    TabularTrace,
    load_trace,
    materialize,
    save_trace,
    trace_from_payload,
)
from .systems_trace import TraceSystem

__all__ = [
    "TRACE_FORMAT_VERSION",
    "ClientRecord",
    "DeviceTrace",
    "TabularTrace",
    "materialize",
    "save_trace",
    "load_trace",
    "trace_from_payload",
    "DeviceClassSpec",
    "FLASH_DEVICE_CLASSES",
    "SyntheticTrace",
    "diurnal_availability",
    "make_synthetic_trace",
    "zipf_class_weights",
    "TraceSystem",
    "TraceFit",
    "fit",
    "lttr_round_trip_error",
    "profile_system",
    "TRACE_SYSTEM_PREFIX",
    "TRACE_REGISTRY",
    "TRACE_NAMES",
    "register_trace",
    "make_trace",
    "make_trace_system",
    "trace_system_spec",
    "is_trace_spec",
]

#: ``FLConfig.system`` values with this prefix route to the trace
#: subsystem instead of :data:`repro.fl.systems.DEVICE_PROFILES`.
TRACE_SYSTEM_PREFIX = "trace:"

#: Registered trace factories, selectable by name anywhere a trace spec
#: is accepted (``FLConfig.system="trace:flash"``, ``--trace flash``).
TRACE_REGISTRY: dict[str, Callable[[], DeviceTrace]] = {
    # FLASH-style Zipf device classes, always-on fleet: deterministic
    # traced Fig. 7 rows
    "flash": lambda: make_synthetic_trace(name="flash"),
    # the same fleet under a 24-period diurnal availability sinusoid
    "flash-diurnal": lambda: make_synthetic_trace(
        name="flash-diurnal", availability=diurnal_availability()
    ),
}


def _spread_sigma(spread: float) -> float:
    """Log-normal sigma realizing a heterogeneity ``spread``.

    ``spread=1.0`` is the degenerate edge: sigma 0, every trait exactly
    1.0 (heterogeneity off).  Anything below 1 is rejected here rather
    than silently producing a negative sigma (or ``-inf`` at 0).
    """
    if spread < 1.0:
        raise ValueError(f"spread must be >= 1 (1.0 disables the axis), got {spread}")
    return math.log(spread) / 2.0


def profile_system(
    name: str,
    speed_spread: float,
    bandwidth_spread: float,
    rate: float = 1.0,
    deadline_factor: float | None = None,
) -> TraceSystem:
    """A device profile: one median-1 log-normal device class, each
    device up with probability ``rate`` every round, under a fixed trace
    seed (a fixed fleet, like every registered trace)."""
    device = DeviceClassSpec(
        name,
        speed_median=1.0,
        speed_sigma=_spread_sigma(speed_spread),
        bandwidth_median=1.0,
        bandwidth_sigma=_spread_sigma(bandwidth_spread),
    )
    system = TraceSystem(
        SyntheticTrace(name, classes=(device,), availability=(rate,)),
        deadline_factor=deadline_factor,
    )
    system.name = name
    return system


def register_trace(name: str, factory: Callable[[], DeviceTrace]) -> None:
    """Register a trace factory under ``name`` (overwrites allowed)."""
    global TRACE_NAMES
    TRACE_REGISTRY[str(name)] = factory
    TRACE_NAMES = tuple(TRACE_REGISTRY)


#: Registered trace names; refreshed by :func:`register_trace`, so read
#: it as ``repro.traces.TRACE_NAMES`` (a ``from``-import binds the
#: tuple at import time and will not see later registrations).
TRACE_NAMES = tuple(TRACE_REGISTRY)


def is_trace_spec(system: str | None) -> bool:
    """Whether a ``FLConfig.system`` value names a trace (vs a device
    profile): the ``trace:`` prefix or a bare ``.json`` trace path."""
    return bool(system) and (
        system.startswith(TRACE_SYSTEM_PREFIX) or system.endswith(".json")
    )


def trace_system_spec(trace: str) -> str:
    """Normalize a trace name or path into a ``FLConfig.system`` spec."""
    if not trace:
        raise ValueError("empty trace spec")
    if trace.startswith(TRACE_SYSTEM_PREFIX):
        return trace
    return f"{TRACE_SYSTEM_PREFIX}{trace}"


def make_trace(spec: str) -> DeviceTrace:
    """Resolve a trace spec: registry name first, then a file path."""
    name = spec[len(TRACE_SYSTEM_PREFIX):] if spec.startswith(TRACE_SYSTEM_PREFIX) else spec
    factory = TRACE_REGISTRY.get(name)
    if factory is not None:
        return factory()
    if Path(name).is_file():
        return load_trace(name)
    raise ValueError(
        f"unknown trace {name!r}: not a registered name "
        f"{tuple(TRACE_REGISTRY)} and no such file"
    )


def make_trace_system(spec: str) -> TraceSystem:
    """Build the :class:`TraceSystem` behind a ``trace:...`` system spec
    (the hook :func:`repro.fl.systems.make_system` delegates to)."""
    return TraceSystem(make_trace(spec))
