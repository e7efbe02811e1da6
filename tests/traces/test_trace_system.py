"""TraceSystem: hook replay, lazy diurnal availability, integration."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.baselines.fedavg import FedAvg
from repro.data.registry import make_task, task_summary
from repro.fl.config import FLConfig
from repro.fl.simulation import FederatedSimulation, run_simulation
from repro.fl.systems import LAZY_AVAILABILITY_THRESHOLD, make_system
from repro.traces import (
    ClientRecord,
    TabularTrace,
    TraceSystem,
    diurnal_availability,
    make_synthetic_trace,
    make_trace_system,
    save_trace,
    trace_system_spec,
    zipf_class_weights,
)
from repro.streams import VECTOR_MIN_KEYS, stream
from repro.traces.systems_trace import TRAIT_CACHE_SIZE


class _Task:
    def __init__(self, n_clients: int) -> None:
        self.n_clients = n_clients


def _bound(trace, n_clients: int, seed: int = 0) -> TraceSystem:
    system = TraceSystem(trace)
    system.bind(_Task(n_clients), FLConfig(seed=seed))
    return system


class TestHooks:
    def test_compute_and_network_follow_records(self):
        records = [
            ClientRecord(0, "low", compute_speed=3.0, bandwidth_divisor=2.0),
            ClientRecord(1, "high", compute_speed=0.5, bandwidth_divisor=0.5),
        ]
        system = _bound(TabularTrace("t", records), 2)
        # virtual base 1.0 scaled by the record's speed
        assert system.compute_seconds(1, 0) == pytest.approx(3.0)
        assert system.compute_seconds(1, 1) == pytest.approx(0.5)
        slow, fast = system.network(1, 0), system.network(1, 1)
        assert fast.uplink_mbps == pytest.approx(4 * slow.uplink_mbps)

    def test_bind_requires_coverage(self):
        records = [ClientRecord(0, "mid", 1.0, 1.0)]
        system = TraceSystem(TabularTrace("t", records))
        with pytest.raises(ValueError, match="records 1 clients"):
            system.bind(_Task(2), FLConfig())

    def test_record_cache_stays_bounded(self):
        trace = make_synthetic_trace("t", seed=0)
        system = _bound(trace, 10_000)
        for cid in range(5000):
            system.compute_seconds(1, cid)
        assert len(system._trait_cache) <= 4096
        # eviction never changes a draw
        assert system.compute_seconds(1, 17) == pytest.approx(
            trace.client_record(17).compute_speed
        )

    def test_cohort_records_equal_per_id_records(self):
        trace = make_synthetic_trace("t", seed=3)
        ids = [5, 0, 77, 2**20, 5] + list(range(900, 900 + VECTOR_MIN_KEYS))
        assert trace.client_records(ids) == [trace.client_record(c) for c in ids]

    def test_records_equal_the_scalar_draws_for_200_ids(self):
        """The array-wide records are bit for bit what the scalar
        formula gives each id's own stream: a class uniform, then
        ``exp(normal(log median, sigma))`` for speed and bandwidth."""
        trace = make_synthetic_trace("t", seed=11)
        ids = list(range(7, 7 * 201, 7))
        expected = []
        for c in ids:
            rng = stream("trace_traits", 11, c)
            k = int(np.searchsorted(np.cumsum(zipf_class_weights(3, 1.2)), rng.random(), "right"))
            cls = trace.classes[min(k, 2)]
            speed = float(np.exp(rng.normal(math.log(cls.speed_median), cls.speed_sigma)))
            bw = float(np.exp(rng.normal(math.log(cls.bandwidth_median), cls.bandwidth_sigma)))
            expected.append(ClientRecord(c, cls.name, speed, bw))
        assert len(ids) == 200
        assert trace.client_records(ids) == expected
        assert [trace.client_record(c) for c in ids] == expected
        assert len({r.device_class for r in expected}) == 3

    def test_prepare_cohort_reads_only_uncached_ids(self, monkeypatch):
        trace = make_synthetic_trace("t", seed=1)
        system = _bound(trace, 10_000)
        system.traits(3)
        system.traits(4)
        asked = []
        read = trace.client_records

        def recording(ids):
            asked.append(list(ids))
            return read(ids)

        monkeypatch.setattr(trace, "client_records", recording)
        system.prepare_cohort([3, 9, 4, 11, 9])
        assert asked == [[9, 11]]
        for c in (3, 4, 9, 11):
            record = trace.client_record(c)
            assert system.traits(c) == (record.compute_speed, record.bandwidth_divisor)

    def test_cache_clear_keeps_the_cohort(self, monkeypatch):
        """A cohort that overflows the cache empties it first, keeping
        its own cached entries: no cohort trait is read twice."""
        trace = make_synthetic_trace("t", seed=2)
        system = _bound(trace, 100_000)
        for cid in range(TRAIT_CACHE_SIZE - 2):
            system.traits(cid)
        cohort = [0, 1] + list(range(50_000, 50_000 + 2 * VECTOR_MIN_KEYS))
        system.prepare_cohort(cohort)
        assert len(system._trait_cache) == len(cohort)

        def unexpected(client_id):
            raise AssertionError(f"client {client_id}'s record read again")

        monkeypatch.setattr(trace, "client_record", unexpected)
        for cid in cohort:
            assert system.compute_seconds(1, cid) > 0
            assert system.network(1, cid).uplink_mbps > 0


class TestAvailability:
    def test_full_rate_small_fleet_keeps_array_path(self):
        system = _bound(make_synthetic_trace("t"), 50)
        avail = system.available_clients(1, np.random.default_rng(0))
        np.testing.assert_array_equal(avail.ids, np.arange(50))

    def test_partial_rate_small_fleet_bernoulli(self):
        trace = make_synthetic_trace("t", availability=(0.5,))
        system = _bound(trace, 200)
        avail = system.available_clients(1, np.random.default_rng(0))
        assert 0 < avail.size < 200

    def test_partial_rate_never_empty(self):
        trace = make_synthetic_trace("t", availability=(0.0,))
        system = _bound(trace, 20)
        avail = system.available_clients(1, np.random.default_rng(0))
        assert avail.size >= 1

    def test_million_client_diurnal_is_lazy_binomial(self):
        """Day/night cycles at K=1M: one binomial per round, never an
        O(K) sweep, and the up-count tracks the period's rate."""
        rates = diurnal_availability()
        trace = make_synthetic_trace("t", availability=rates)
        n = 1_000_000
        assert n >= LAZY_AVAILABILITY_THRESHOLD
        system = _bound(trace, n)
        counts = {}
        for round_index in (1, 7, 13):
            avail = system.available_clients(
                round_index, np.random.default_rng([0, round_index])
            )
            assert avail.ids is None
            counts[round_index] = avail.count
        for round_index, count in counts.items():
            expected = rates[(round_index - 1) % len(rates)] * n
            assert abs(count - expected) < 5_000  # binomial concentration
        # day and night genuinely differ
        assert abs(counts[7] - counts[1]) > 100_000

    def test_full_rate_large_fleet_lazy(self):
        system = _bound(make_synthetic_trace("t"), LAZY_AVAILABILITY_THRESHOLD)
        avail = system.available_clients(1, np.random.default_rng(0))
        assert avail.ids is None
        assert avail.size == LAZY_AVAILABILITY_THRESHOLD


class TestMakeSystem:
    def test_registered_name(self):
        system = make_system("trace:flash")
        assert isinstance(system, TraceSystem)
        assert system.name == "trace:flash"

    def test_path_spec(self, tmp_path):
        path = tmp_path / "fleet.json"
        save_trace(make_synthetic_trace("saved", seed=3), path)
        for spec in (str(path), f"trace:{path}"):
            system = make_system(spec)
            assert isinstance(system, TraceSystem)
            assert system.trace.seed == 3

    def test_unknown_trace_and_profile(self):
        with pytest.raises(ValueError, match="unknown trace"):
            make_system("trace:nope")
        with pytest.raises(ValueError, match="trace:<name-or-path>"):
            make_system("nope")

    def test_trace_system_spec_normalizes(self):
        assert trace_system_spec("flash") == "trace:flash"
        assert trace_system_spec("trace:flash") == "trace:flash"
        with pytest.raises(ValueError):
            trace_system_spec("")

    def test_register_trace_refreshes_names(self):
        import repro.traces as traces

        assert "tmp-registered" not in traces.TRACE_NAMES
        traces.register_trace(
            "tmp-registered", lambda: make_synthetic_trace("tmp-registered")
        )
        try:
            assert "tmp-registered" in traces.TRACE_NAMES
            assert make_system("trace:tmp-registered").trace.name == "tmp-registered"
        finally:
            del traces.TRACE_REGISTRY["tmp-registered"]
            traces.TRACE_NAMES = tuple(traces.TRACE_REGISTRY)


class TestSimulationIntegration:
    def test_traced_run_deterministic(self, tiny_image_task, fast_config):
        cfg = fast_config.with_overrides(system="trace:flash")
        h1 = run_simulation(tiny_image_task, FedAvg(), cfg)
        h2 = run_simulation(tiny_image_task, FedAvg(), cfg)
        np.testing.assert_array_equal(h1.series("train_loss"), h2.series("train_loss"))
        # the trace's virtual compute base makes sim columns exact too
        np.testing.assert_array_equal(
            h1.series("sim_clock_seconds"), h2.series("sim_clock_seconds")
        )
        np.testing.assert_array_equal(
            h1.series("sim_compute_seconds_mean"),
            h2.series("sim_compute_seconds_mean"),
        )
        assert (h1.series("sim_compute_seconds_mean") > 0).all()

    def test_async_traced_flushes_record_virtual_compute(self, tiny_image_task, fast_config):
        """Regression: async flush records must populate the simulated
        compute column from the virtual base, so traced Fig. 7 rows
        never fall back to host wall-clock under --mode async."""
        cfg = fast_config.with_overrides(
            system="trace:flash", mode="async", buffer_size=2, rounds=4
        )
        h1 = run_simulation(tiny_image_task, FedAvg(), cfg)
        h2 = run_simulation(tiny_image_task, FedAvg(), cfg)
        assert h1.series("flush_index").all()
        assert (h1.series("sim_compute_seconds_mean") > 0).all()
        np.testing.assert_array_equal(
            h1.series("sim_compute_seconds_mean"),
            h2.series("sim_compute_seconds_mean"),
        )

    def test_million_client_traced_rounds_complete(self):
        """K=1M + diurnal trace: rounds run at O(cohort) cost."""
        task = make_task("fleet", "paper", seed=1)
        config = FLConfig(
            rounds=2, kappa=2e-5, local_iterations=2, batch_size=8, lr=0.3,
            dropout_rate=0.2, eval_every=2, system="trace:flash-diurnal", seed=0,
        )
        sim = FederatedSimulation(task, FedAvg(), config)
        try:
            # no O(K) state may appear on the system model
            assert not any(
                hasattr(v, "__len__") and not isinstance(v, str) and len(v) >= 10_000
                for v in vars(sim.system).values()
            )
            for r in (1, 2):
                record = sim.run_round(r)
                assert record.n_selected == 20
                assert record.sim_compute_seconds_mean > 0
        finally:
            sim.close()


class TestTaskSummaryComposition:
    def test_trace_composition_reported(self):
        task = make_task("fleet", "small", seed=1)
        system = make_trace_system("trace:flash")
        system.bind(task, FLConfig())
        summary = task_summary(task, system=system)
        assert "trace=flash" in summary
        assert "low=" in summary and "mid=" in summary and "high=" in summary

    def test_plain_system_keeps_historical_line(self):
        task = make_task("mnist", "small", seed=1)
        assert task_summary(task) == task_summary(task, system=make_system("ideal"))
        assert "trace=" not in task_summary(task)
