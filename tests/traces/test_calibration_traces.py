"""Calibration: moment fits and the Fig. 7 LTTR round-trip bound."""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm.network import TMOBILE_5G
from repro.fl.config import FLConfig
from repro.traces import (
    ClientRecord,
    SyntheticTrace,
    TabularTrace,
    TraceSystem,
    fit,
    lttr_round_trip_error,
    make_synthetic_trace,
    make_trace,
    materialize,
)
from repro.traces.calibration import sample_client_ids


class _Task:
    def __init__(self, n_clients: int) -> None:
        self.n_clients = n_clients


class TestFit:
    def test_round_trips_registered_zipf_trace(self):
        """The acceptance bound: the fitted one-class trace reproduces
        the generated Zipf trace's mean LTTR within 10%."""
        trace = make_trace("flash")
        assert lttr_round_trip_error(trace, n_clients=5000) < 0.10

    def test_round_trips_million_client_diurnal_trace(self):
        trace = make_trace("flash-diurnal")
        assert lttr_round_trip_error(trace, n_clients=1_000_000) < 0.10

    def test_fit_deterministic_and_o_sample(self):
        trace = make_synthetic_trace("t", seed=2)
        a = fit(trace, n_clients=1_000_000, sample_size=512)
        b = fit(trace, n_clients=1_000_000, sample_size=512)
        assert a == b
        assert a.sample_size == 512

    def test_expected_lttr_matches_sample_mean(self):
        trace = make_synthetic_trace("t", seed=4)
        result = fit(trace, n_clients=4096)
        ids = sample_client_ids(4096, 2048)
        sample_mean = float(
            np.mean([trace.client_record(int(c)).compute_speed for c in ids])
        )
        # the scale is chosen so the analytic mean equals the sample
        # mean exactly — the heart of the method-of-moments fit
        assert result.expected_lttr() == pytest.approx(sample_mean)

    def test_availability_is_cycle_mean(self):
        trace = make_synthetic_trace("t", availability=(0.2, 0.6, 1.0))
        result = fit(trace, n_clients=256)
        assert result.availability == pytest.approx(0.6)

    def test_unsized_trace_requires_n_clients(self):
        trace = make_synthetic_trace("t")
        with pytest.raises(ValueError, match="n_clients"):
            fit(trace)
        with pytest.raises(ValueError, match="n_clients"):
            lttr_round_trip_error(trace)

    def test_degenerate_homogeneous_trace(self):
        """A spread-free trace fits to sigma 0 — the degenerate
        log-normal a device class must accept."""
        records = [ClientRecord(c, "only", 2.0, 3.0) for c in range(64)]
        trace = TabularTrace("flat", records)
        result = fit(trace)
        assert result.device.speed_sigma == pytest.approx(0.0)
        assert result.device.speed_median == pytest.approx(2.0)
        assert result.device.bandwidth_median == pytest.approx(3.0)
        system = TraceSystem(result.trace())
        system.bind(_Task(64), FLConfig(seed=0))
        for c in (0, 63):
            assert system.compute_seconds(1, c) == pytest.approx(2.0)
        assert lttr_round_trip_error(trace) < 1e-9

    def test_fitted_trace_carries_all_parameters(self):
        trace = make_synthetic_trace("t", seed=1, availability=(0.5,))
        result = fit(trace, n_clients=2048)
        fitted = result.trace()
        assert isinstance(fitted, SyntheticTrace)
        assert fitted.classes == (result.device,)
        assert fitted.availability == (result.availability,)
        system = TraceSystem(fitted, deadline_factor=1.5)
        system.bind(_Task(2048), FLConfig())
        assert system.availability_rate(1) == pytest.approx(0.5)
        assert system.deadline_factor == 1.5
        record = fitted.client_record(5)
        assert system.compute_seconds(1, 5) == record.compute_speed
        assert system.network(1, 5).uplink_mbps == pytest.approx(
            TMOBILE_5G.uplink_mbps / record.bandwidth_divisor
        )

    def test_materialized_trace_fits_identically(self, tmp_path):
        """fit(synthetic) == fit(materialize(synthetic)): the tabular
        snapshot carries everything calibration reads."""
        trace = make_synthetic_trace("t", seed=9)
        tab = materialize(trace, 1024)
        assert fit(trace, n_clients=1024, sample_size=512) == fit(
            tab, sample_size=512
        )

    def test_sample_ids_validated(self):
        with pytest.raises(ValueError):
            sample_client_ids(0, 10)
        with pytest.raises(ValueError):
            sample_client_ids(10, 1)
