"""Calibration: moment fits and the Fig. 7 LTTR round-trip bound."""

from __future__ import annotations

import numpy as np
import pytest

from repro.fl.config import FLConfig
from repro.fl.systems import FleetSystem, HeterogeneousSystem
from repro.traces import (
    ClientRecord,
    TabularTrace,
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
        """The acceptance bound: a fitted HeterogeneousSystem reproduces
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
        """A spread-free trace fits to spread 1.0 — the degenerate
        log-normal the profiles must accept (sigma 0)."""
        records = [ClientRecord(c, "only", 2.0, 3.0) for c in range(64)]
        trace = TabularTrace("flat", records)
        result = fit(trace)
        assert result.speed_spread == pytest.approx(1.0)
        assert result.speed_scale == pytest.approx(2.0)
        assert result.bandwidth_scale == pytest.approx(3.0)
        system = result.heterogeneous_system()
        system.bind(_Task(64), FLConfig(seed=0))
        for c in (0, 63):
            assert system.compute_seconds(1, c) == pytest.approx(2.0)
        assert lttr_round_trip_error(trace) < 1e-9

    def test_fitted_systems_carry_all_parameters(self):
        trace = make_synthetic_trace("t", seed=1, availability=(0.5,))
        result = fit(trace, n_clients=2048)
        het = result.heterogeneous_system(lttr_seconds=2.0, deadline_factor=1.5)
        assert isinstance(het, HeterogeneousSystem)
        assert het.availability == pytest.approx(result.availability)
        assert het.speed_spread == pytest.approx(result.speed_spread)
        assert het.lttr_seconds == pytest.approx(2.0 * result.speed_scale)
        assert het.deadline_factor == 1.5
        # the bandwidth scale folds into the base network
        assert het.base_network.uplink_mbps == pytest.approx(
            14.0 / result.bandwidth_scale
        )
        fleet = result.fleet_system()
        assert isinstance(fleet, FleetSystem)
        assert fleet.speed_spread == pytest.approx(result.speed_spread)

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
