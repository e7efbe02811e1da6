"""Fit analytic device profiles to an observed trace (method of moments).

:class:`~repro.fl.systems.HeterogeneousSystem` and
:class:`~repro.fl.systems.FleetSystem` model device heterogeneity as
median-1 log-normal speed/bandwidth spreads around a base LTTR and a
base network.  :func:`fit` recovers those parameters from any
:class:`~repro.traces.schema.DeviceTrace` by matching moments over a
deterministic client sample:

* ``sigma = std(log x)`` gives the log-normal width, so the profile
  spread is ``exp(2 * sigma)`` (inverting ``_spread_sigma``);
* the *scale* is chosen so the fitted log-normal's analytic **mean**
  equals the sample mean exactly — ``scale = mean(x) / exp(sigma^2 / 2)``
  — and folds into ``lttr_seconds`` (speed) or the base network
  (bandwidth), since the profiles' own log-normals are median-1;
* availability is the trace schedule's cycle average.

A trace drawn from a *mixture* of class log-normals is not itself
log-normal, so the fit is an approximation — but first moments match by
construction, which is what the Fig. 7 LTTR round-trip checks:
:func:`lttr_round_trip_error` compares the trace's mean LTTR against a
fitted profile's and must stay within tolerance (10% in the tests and
the CI trace-smoke job).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..comm.network import TMOBILE_5G, NetworkModel
from ..fl.config import FLConfig
from ..fl.systems import FleetSystem, HeterogeneousSystem, _scaled_network
from .schema import DeviceTrace

__all__ = ["TraceFit", "fit", "lttr_round_trip_error"]


def sample_client_ids(n_clients: int, sample_size: int) -> np.ndarray:
    """Deterministic evenly-spaced client sample (never O(fleet))."""
    if n_clients < 1:
        raise ValueError("n_clients must be >= 1")
    if sample_size < 2:
        raise ValueError("sample_size must be >= 2")
    return np.unique(np.linspace(0, n_clients - 1, min(n_clients, sample_size)).astype(int))


@dataclass(frozen=True)
class TraceFit:
    """Fitted profile parameters plus builders for both profile classes.

    ``speed_scale``/``bandwidth_scale`` carry the trait medians the
    median-1 profiles cannot express: the speed scale multiplies the
    profile's virtual LTTR base, the bandwidth scale divides the base
    network's link rates.
    """

    speed_spread: float
    speed_scale: float
    bandwidth_spread: float
    bandwidth_scale: float
    availability: float
    sample_size: int

    def expected_lttr(self, lttr_seconds: float = 1.0) -> float:
        """Analytic mean LTTR of the fitted profile (= the sample mean
        of the trace it was fitted to, by construction)."""
        sigma = np.log(self.speed_spread) / 2.0
        return lttr_seconds * self.speed_scale * float(np.exp(sigma**2 / 2.0))

    def _network(self, base_network: NetworkModel) -> NetworkModel:
        return _scaled_network(base_network, self.bandwidth_scale)

    def heterogeneous_system(
        self,
        lttr_seconds: float = 1.0,
        base_network: NetworkModel = TMOBILE_5G,
        **kwargs,
    ) -> HeterogeneousSystem:
        """The fitted :class:`HeterogeneousSystem` (paper-scale fleets);
        extra kwargs (e.g. ``deadline_factor``) pass through."""
        return HeterogeneousSystem(
            availability=self.availability,
            speed_spread=self.speed_spread,
            bandwidth_spread=self.bandwidth_spread,
            lttr_seconds=lttr_seconds * self.speed_scale,
            base_network=self._network(base_network),
            **kwargs,
        )

    def fleet_system(
        self,
        lttr_seconds: float = 1.0,
        base_network: NetworkModel = TMOBILE_5G,
    ) -> FleetSystem:
        """The fitted O(cohort) :class:`FleetSystem` (million-client
        fleets)."""
        return FleetSystem(
            availability=self.availability,
            speed_spread=self.speed_spread,
            bandwidth_spread=self.bandwidth_spread,
            lttr_seconds=lttr_seconds * self.speed_scale,
            base_network=self._network(base_network),
        )


def _moment_fit(values: np.ndarray) -> tuple[float, float]:
    """(spread, scale) of the mean-matching log-normal for ``values``."""
    sigma = float(np.std(np.log(values)))
    spread = float(np.exp(2.0 * sigma))
    scale = float(values.mean() / np.exp(sigma**2 / 2.0))
    return spread, scale


def fit(
    trace: DeviceTrace,
    n_clients: int | None = None,
    sample_size: int = 2048,
) -> TraceFit:
    """Method-of-moments fit of profile parameters to a trace.

    ``n_clients`` is required for unsized synthetic traces (it bounds
    the client sample); sized traces use their own fleet size.  The
    sample is deterministic (evenly spaced ids), so fitting is
    reproducible and O(sample), never O(fleet).
    """
    size = trace.n_clients if trace.n_clients is not None else n_clients
    if size is None:
        raise ValueError("fitting an unsized trace requires n_clients")
    trace.require_fleet(size)
    ids = sample_client_ids(size, sample_size)
    records = [trace.client_record(int(c)) for c in ids]
    speeds = np.array([r.compute_speed for r in records], dtype=np.float64)
    bandwidths = np.array([r.bandwidth_divisor for r in records], dtype=np.float64)
    speed_spread, speed_scale = _moment_fit(speeds)
    bandwidth_spread, bandwidth_scale = _moment_fit(bandwidths)
    availability = min(max(trace.mean_availability(), 1e-6), 1.0)
    return TraceFit(
        speed_spread=speed_spread,
        speed_scale=speed_scale,
        bandwidth_spread=bandwidth_spread,
        bandwidth_scale=bandwidth_scale,
        availability=availability,
        sample_size=int(ids.size),
    )


class _FitTask:
    """Minimal task shim so a fitted profile can be bound for sampling."""

    def __init__(self, n_clients: int) -> None:
        self.n_clients = n_clients


def lttr_round_trip_error(
    trace: DeviceTrace,
    n_clients: int | None = None,
    sample_size: int = 2048,
    lttr_seconds: float = 1.0,
    seed: int = 0,
) -> float:
    """Relative mean-LTTR error of the fitted profile vs the trace.

    Fits the trace, binds the fitted :class:`HeterogeneousSystem` to a
    ``sample``-sized fleet, and compares the mean simulated local
    compute of the fitted profile's own trait draws against the trace
    sample's — the Fig. 7 LTTR validation loop.  The acceptance bound
    (10% in tests and CI) covers both the mixture-vs-log-normal model
    error and the fitted profile's finite-fleet sampling noise.
    """
    size = trace.n_clients if trace.n_clients is not None else n_clients
    if size is None:
        raise ValueError("an unsized trace requires n_clients")
    result = fit(trace, n_clients=size, sample_size=sample_size)
    ids = sample_client_ids(size, sample_size)
    trace_mean = lttr_seconds * float(
        np.mean([trace.client_record(int(c)).compute_speed for c in ids])
    )

    fitted = result.heterogeneous_system(lttr_seconds=lttr_seconds)
    fitted.bind(_FitTask(int(ids.size)), FLConfig(seed=seed))
    fitted_mean = float(np.mean([fitted.compute_seconds(1, c) for c in range(ids.size)]))
    return abs(fitted_mean - trace_mean) / trace_mean
