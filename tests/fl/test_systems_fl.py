"""Tests for the virtual clock and system models (repro.fl.systems)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.fedavg import FedAvg
from repro.comm.network import TMOBILE_5G
from repro.fl.config import FLConfig
from repro.fl.simulation import run_simulation
from repro.fl.systems import (
    DEVICE_PROFILES,
    LAZY_AVAILABILITY_THRESHOLD,
    SYSTEM_NAMES,
    SystemModel,
    VirtualClock,
    make_system,
)
from repro.traces import (
    DeviceClassSpec,
    TraceSystem,
    _spread_sigma,
    make_synthetic_trace,
)


def _one_class_trace(speed_sigma: float, bandwidth_sigma: float, rate: float = 1.0):
    device = DeviceClassSpec("only", 1.0, speed_sigma, 1.0, bandwidth_sigma)
    return make_synthetic_trace("one-class", classes=(device,), availability=(rate,))


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now == 0.0

    def test_pop_until_returns_time_ordered(self):
        clock = VirtualClock()
        clock.schedule("b", at=2.0)
        clock.schedule("a", at=1.0)
        clock.schedule("c", at=3.0)
        assert clock.pop_until(2.5) == ["a", "b"]
        assert len(clock) == 1

    def test_ties_break_by_insertion_order(self):
        clock = VirtualClock()
        clock.schedule("first", at=1.0)
        clock.schedule("second", at=1.0)
        assert clock.pop_until(1.0) == ["first", "second"]

    def test_drop_pending_clears_queue(self):
        clock = VirtualClock()
        clock.schedule("x", at=5.0)
        clock.schedule("y", at=4.0)
        assert clock.drop_pending() == ["y", "x"]
        assert len(clock) == 0

    def test_schedule_in_past_rejected(self):
        clock = VirtualClock()
        clock.advance_to(10.0)
        with pytest.raises(ValueError):
            clock.schedule("late", at=5.0)

    def test_advance_never_goes_backwards(self):
        clock = VirtualClock()
        clock.advance_to(5.0)
        clock.advance_to(3.0)  # no-op guard
        assert clock.now == 5.0


class _Task:
    """Minimal stand-in exposing what SystemModel.bind reads."""

    def __init__(self, n_clients: int = 8) -> None:
        self.n_clients = n_clients


class TestSystemModels:
    def test_registry_profiles(self):
        for name in SYSTEM_NAMES:
            model = make_system(name)
            assert model.name == name

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            make_system("datacenter")

    @pytest.mark.parametrize("name", sorted(DEVICE_PROFILES))
    def test_profile_is_trace_system_with_threshold_availability(self, name):
        """Every built-in profile replays a trace, and its availability
        shape follows the fleet size alone: ids below the threshold, an
        up-count at or above it."""
        system = make_system(name)
        assert isinstance(system, TraceSystem)
        for n_clients, lazy in (
            (LAZY_AVAILABILITY_THRESHOLD - 1, False),
            (LAZY_AVAILABILITY_THRESHOLD, True),
        ):
            system.bind(_Task(n_clients), FLConfig())
            avail = system.available_clients(1, np.random.default_rng(0))
            assert (avail.ids is None) == lazy
            assert (avail.count is None) != lazy

    @pytest.mark.parametrize(
        "name, speed_spread, bandwidth_spread, rate, deadline_factor",
        [
            ("heterogeneous", 4.0, 2.0, 1.0, None),
            ("flaky", 4.0, 2.0, 0.7, None),
            ("straggler", 8.0, 4.0, 1.0, 1.5),
            ("fleet", 4.0, 2.0, 0.6, None),
        ],
    )
    def test_profile_keeps_its_parameters(
        self, name, speed_spread, bandwidth_spread, rate, deadline_factor
    ):
        """Each profile is one median-1 log-normal class with its
        spreads, up-rate and deadline, under the fixed trace seed 0."""
        system = make_system(name)
        trace = system.trace
        assert trace.seed == 0
        assert trace.availability == (rate,)
        assert system.deadline_factor == deadline_factor
        (device,) = trace.classes
        assert device.speed_median == device.bandwidth_median == 1.0
        assert device.speed_sigma == _spread_sigma(speed_spread)
        assert device.bandwidth_sigma == _spread_sigma(bandwidth_spread)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            TraceSystem(_one_class_trace(0.5, 0.5), deadline_factor=0.5)

    def test_spread_sigma_degenerate_edge(self):
        """spread=1.0 is the valid degenerate log-normal (sigma 0,
        every trait exactly 1); below 1 — including the spread=0 case
        that used to produce -inf — is rejected loudly."""
        assert _spread_sigma(1.0) == 0.0
        assert _spread_sigma(4.0) == pytest.approx(np.log(4.0) / 2.0)
        for bad in (0.0, 0.5, -1.0):
            with pytest.raises(ValueError, match="spread"):
                _spread_sigma(bad)
        # a spread-1 trace binds and yields constant unit traits
        system = TraceSystem(_one_class_trace(_spread_sigma(1.0), _spread_sigma(1.0)))
        system.bind(_Task(), FLConfig(seed=0))
        for c in range(8):
            assert system.compute_seconds(1, c) == 1.0
            assert system.network(1, c).uplink_mbps == pytest.approx(14.0)

    def test_ideal_system_is_transparent(self):
        system = SystemModel()
        system.bind(_Task(), FLConfig())
        rng = np.random.default_rng(0)
        np.testing.assert_array_equal(
            system.available_clients(1, rng).ids, np.arange(8)
        )
        assert system.compute_seconds(1, 3) == 1.0
        assert system.network(1, 3) == TMOBILE_5G
        assert system.round_deadline(np.array([1.0, 2.0])) is None

    def test_availability_fallback_never_empty(self):
        system = TraceSystem(_one_class_trace(0.5, 0.5, rate=1e-9))
        system.bind(_Task(), FLConfig())
        available = system.available_clients(1, np.random.default_rng(0))
        assert available.size >= 1

    def test_bandwidth_divides_link_rates(self):
        system = make_system("heterogeneous")
        system.bind(_Task(), FLConfig())
        for cid in range(8):
            net = system.network(1, cid)
            assert net.downlink_mbps / net.uplink_mbps == pytest.approx(
                TMOBILE_5G.downlink_mbps / TMOBILE_5G.uplink_mbps
            )
            assert net.uplink_mbps == TMOBILE_5G.uplink_mbps / system.traits(cid)[1]

    def test_relative_deadline_anchors_on_fastest(self):
        system = TraceSystem(_one_class_trace(0.5, 0.5), deadline_factor=2.0)
        system.bind(_Task(), FLConfig())
        assert system.round_deadline(np.array([3.0, 1.0, 9.0])) == pytest.approx(2.0)
        assert make_system("straggler").deadline_factor == 1.5
        assert make_system("heterogeneous").round_deadline(np.array([1.0])) is None


class TestSystemSimulation:
    def test_ideal_run_populates_sim_columns(self, session_image_task, session_config):
        history = run_simulation(session_image_task, FedAvg(), session_config)
        clock = history.series("sim_clock_seconds")
        assert np.all(np.diff(clock) > 0)  # strictly increasing
        assert np.all(history.participation() == 1.0)
        assert history.total_sim_seconds == pytest.approx(float(clock[-1]))
        assert np.all(history.series("n_scheduled") == history.series("n_selected"))

    def test_straggler_scenario_drops_clients(self, session_image_task, session_config):
        cfg = session_config.with_overrides(rounds=4, seed=1, system="straggler")
        history = run_simulation(session_image_task, FedAvg(), cfg)
        stragglers = history.series("n_stragglers")
        assert stragglers.sum() > 0
        assert np.all(history.series("n_selected") >= 1)
        assert np.all(
            history.series("n_selected") + stragglers == history.series("n_scheduled")
        )

    @staticmethod
    def _assert_rerun_identical(task, cfg):
        h1 = run_simulation(task, FedAvg(), cfg)
        h2 = run_simulation(task, FedAvg(), cfg)
        # cohorts, learning and the clock are purely virtual (no
        # host-measured terms), so all of them are exactly reproducible
        for key in (
            "n_selected", "n_stragglers", "train_loss",
            "sim_clock_seconds", "sim_round_seconds", "sim_compute_seconds_mean",
        ):
            assert h1.series(key).tobytes() == h2.series(key).tobytes(), key

    def test_straggler_profile_deterministic_across_runs(
        self, session_image_task, session_config
    ):
        cfg = session_config.with_overrides(system="straggler", rounds=3)
        self._assert_rerun_identical(session_image_task, cfg)

    @pytest.mark.parametrize("profile", ["ideal", "heterogeneous", "flaky"])
    def test_sync_clock_deterministic_across_runs(
        self, session_image_task, session_config, profile
    ):
        cfg = session_config.with_overrides(system=profile, rounds=3)
        self._assert_rerun_identical(session_image_task, cfg)

    def test_simulated_tta_reads_clock_column(self, session_image_task, session_config):
        history = run_simulation(session_image_task, FedAvg(), session_config)
        assert history.total_sim_seconds > 0
        # an unreachable target yields None; a trivial one the first eval round
        assert history.time_to_accuracy(2.0) is None
        trivial = history.time_to_accuracy(-1.0)
        assert trivial == pytest.approx(history.records[0].sim_clock_seconds)

    def test_flaky_profile_still_selects_cohort(self, session_image_task, session_config):
        cfg = session_config.with_overrides(system="flaky", rounds=3)
        history = run_simulation(session_image_task, FedAvg(), cfg)
        assert np.all(history.series("n_selected") >= 1)


class _OverTightDeadline(TraceSystem):
    """A deadline *below* every client's finish time — even the fastest
    client technically misses it, exercising the server's
    cannot-close-empty fallback."""

    def round_deadline(self, arrival_seconds: np.ndarray) -> float:
        return 0.5 * float(arrival_seconds.min())


class TestOverTightDeadlineFallback:
    """Regression: the round must never reduce ``wait`` over an empty
    on-time sequence, whatever the deadline returns (see run_round)."""

    def test_fallback_takes_fastest_client(self, session_image_task, session_config):
        cfg = session_config.with_overrides(rounds=3)
        system = _OverTightDeadline(make_system("straggler").trace)
        history = run_simulation(session_image_task, FedAvg(), cfg, system=system)
        # every round closes on exactly the fastest client; the rest
        # are stragglers
        assert np.all(history.series("n_selected") == 1)
        np.testing.assert_array_equal(
            history.series("n_stragglers"),
            history.series("n_scheduled") - 1,
        )
        assert np.all(np.diff(history.series("sim_clock_seconds")) > 0)

    def test_fallback_keeps_simultaneous_fastest_ties(
        self, session_image_task, session_config
    ):
        """With identical devices every upload lands at the same instant:
        the fallback must include the whole tie, not crash on it."""
        cfg = session_config.with_overrides(rounds=2)
        # zero sigmas disable heterogeneity -> all arrivals tie
        system = _OverTightDeadline(_one_class_trace(0.0, 0.0))
        history = run_simulation(session_image_task, FedAvg(), cfg, system=system)
        np.testing.assert_array_equal(
            history.series("n_selected"), history.series("n_scheduled")
        )
        assert np.all(history.series("n_stragglers") == 0)

    def test_fallback_deterministic_across_reruns(
        self, session_image_task, session_config
    ):
        cfg = session_config.with_overrides(rounds=2)
        first, second = (
            run_simulation(
                session_image_task, FedAvg(), cfg,
                system=_OverTightDeadline(make_system("straggler").trace),
            )
            for _ in range(2)
        )
        np.testing.assert_array_equal(
            first.series("n_selected"), second.series("n_selected")
        )
        np.testing.assert_array_equal(
            first.series("train_loss"), second.series("train_loss")
        )
