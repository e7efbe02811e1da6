"""Fit a one-class log-normal trace to an observed trace (method of moments).

Every built-in device profile is a one-class
:class:`~repro.traces.generators.SyntheticTrace`: log-normal speed and
bandwidth around class medians.  :func:`fit` recovers such a class from
any :class:`~repro.traces.schema.DeviceTrace` by matching moments over
a deterministic client sample:

* ``sigma = std(log x)`` gives the log-normal width;
* the *median* is chosen so the fitted log-normal's analytic **mean**
  equals the sample mean exactly — ``median = mean(x) / exp(sigma^2 / 2)``;
* availability is the trace schedule's cycle average.

A trace drawn from a *mixture* of class log-normals is not itself
log-normal, so the fit is an approximation — but first moments match by
construction, which is what the Fig. 7 LTTR round-trip checks:
:func:`lttr_round_trip_error` replays the fitted trace and compares its
mean LTTR against the original's, which must stay within tolerance (10%
in the tests and the CI trace-smoke job).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .generators import DeviceClassSpec, SyntheticTrace
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
    """The fitted device class and availability of a trace."""

    device: DeviceClassSpec
    availability: float
    sample_size: int

    def expected_lttr(self) -> float:
        """Analytic mean LTTR of the fitted class on the one-second
        virtual base (= the sample mean of the trace it was fitted to,
        by construction)."""
        return self.device.speed_median * float(np.exp(self.device.speed_sigma**2 / 2.0))

    def trace(self) -> SyntheticTrace:
        """The fitted one-class trace."""
        return SyntheticTrace(
            "fitted", classes=(self.device,), availability=(self.availability,)
        )


def _moment_fit(values: np.ndarray) -> tuple[float, float]:
    """(median, sigma) of the mean-matching log-normal for ``values``."""
    sigma = float(np.std(np.log(values)))
    median = float(values.mean() / np.exp(sigma**2 / 2.0))
    return median, sigma


def _fleet_size(trace: DeviceTrace, n_clients: int | None) -> int:
    size = trace.n_clients if trace.n_clients is not None else n_clients
    if size is None:
        raise ValueError("an unsized trace requires n_clients")
    return size


def _mean_speed(trace: DeviceTrace, ids) -> float:
    return float(np.mean([trace.client_record(int(c)).compute_speed for c in ids]))


def fit(
    trace: DeviceTrace,
    n_clients: int | None = None,
    sample_size: int = 2048,
) -> TraceFit:
    """Method-of-moments fit of a one-class log-normal trace.

    ``n_clients`` is required for unsized synthetic traces (it bounds
    the client sample); sized traces use their own fleet size.  The
    sample is deterministic (evenly spaced ids), so fitting is
    reproducible and O(sample), never O(fleet).
    """
    size = _fleet_size(trace, n_clients)
    trace.require_fleet(size)
    ids = sample_client_ids(size, sample_size)
    records = [trace.client_record(int(c)) for c in ids]
    speeds = np.array([r.compute_speed for r in records], dtype=np.float64)
    bandwidths = np.array([r.bandwidth_divisor for r in records], dtype=np.float64)
    speed_median, speed_sigma = _moment_fit(speeds)
    bandwidth_median, bandwidth_sigma = _moment_fit(bandwidths)
    return TraceFit(
        device=DeviceClassSpec(
            "fitted",
            speed_median=speed_median,
            speed_sigma=speed_sigma,
            bandwidth_median=bandwidth_median,
            bandwidth_sigma=bandwidth_sigma,
        ),
        availability=min(max(trace.mean_availability(), 1e-6), 1.0),
        sample_size=int(ids.size),
    )


def lttr_round_trip_error(
    trace: DeviceTrace,
    n_clients: int | None = None,
    sample_size: int = 2048,
) -> float:
    """Relative mean-LTTR error of the fitted trace vs the original.

    Fits the trace, replays the fitted one-class trace over a
    ``sample``-sized fleet, and compares its mean simulated local
    compute against the original trace sample's — the Fig. 7 LTTR
    validation loop.  The acceptance bound (10% in tests and CI) covers
    both the mixture-vs-log-normal model error and the fitted trace's
    finite-fleet sampling noise.  The replay reads client ids past the
    original fleet, so even when both traces share a trace seed (and
    hence per-client RNG streams) the fitted sample's noise is
    independent of the sample it was fitted to.
    """
    size = _fleet_size(trace, n_clients)
    result = fit(trace, n_clients=size, sample_size=sample_size)
    ids = sample_client_ids(size, sample_size)
    trace_mean = _mean_speed(trace, ids)
    fitted_mean = _mean_speed(result.trace(), range(size, size + ids.size))
    return abs(fitted_mean - trace_mean) / trace_mean
