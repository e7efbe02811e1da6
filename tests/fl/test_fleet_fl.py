"""Fleet-scale simulation: O(cohort) selection, traits, and snapshots.

Covers the million-client subsampling layer: the lazy availability
descriptor, the index-space cohort sampler, on-demand device traits,
deterministic per-``(seed, round)`` fleet sampling, deep-copied
simulation snapshots, and the empty-availability guard.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.baselines.fedavg import FedAvg
from repro.data.registry import make_task
from repro.fl.config import FLConfig
from repro.fl.simulation import FederatedSimulation, run_simulation
from repro.fl.systems import (
    DEVICE_PROFILES,
    Availability,
    LAZY_AVAILABILITY_THRESHOLD,
    SystemModel,
    make_system,
    sample_index_cohort,
)
from repro.streams import stream
from repro.traces import TraceSystem, profile_system


class _Fleet:
    n_clients = 1_000_000


class _SmallTask:
    n_clients = 8


class TestSampleIndexCohort:
    def test_distinct_and_in_range(self):
        ids = sample_index_cohort(np.random.default_rng(0), 1_000_000, 50)
        assert ids.shape == (50,)
        assert len(set(ids.tolist())) == 50
        assert ids.min() >= 0 and ids.max() < 1_000_000

    def test_deterministic_given_rng(self):
        a = sample_index_cohort(np.random.default_rng(42), 10**6, 30)
        b = sample_index_cohort(np.random.default_rng(42), 10**6, 30)
        np.testing.assert_array_equal(a, b)

    def test_exclusion_respected(self):
        exclude = {1, 2, 3}
        ids = sample_index_cohort(np.random.default_rng(0), 10, 7, exclude=exclude)
        assert set(ids.tolist()).isdisjoint(exclude)
        assert len(set(ids.tolist())) == 7

    def test_oversized_request_rejected(self):
        with pytest.raises(ValueError):
            sample_index_cohort(np.random.default_rng(0), 5, 4, exclude={0, 1})
        with pytest.raises(ValueError):
            sample_index_cohort(np.random.default_rng(0), 5, -1)

    def test_full_draw_without_exclusion(self):
        ids = sample_index_cohort(np.random.default_rng(0), 6, 6)
        assert sorted(ids.tolist()) == list(range(6))


class TestFleetAvailability:
    def test_size_mirrors_ndarray(self):
        assert Availability(100, count=40).size == 40
        assert Availability(100, ids=np.array([3, 9])).size == 2

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            Availability(10, count=11)
        with pytest.raises(ValueError):
            Availability(10, count=-1)
        with pytest.raises(ValueError, match="exactly one"):
            Availability(10)
        with pytest.raises(ValueError, match="exactly one"):
            Availability(10, ids=np.arange(3), count=3)

    def test_base_model_goes_lazy_above_threshold(self):
        system = SystemModel()
        system.bind(_Fleet(), FLConfig())
        avail = system.available_clients(1, np.random.default_rng(0))
        assert avail.ids is None
        assert avail.size == _Fleet.n_clients

    def test_base_model_keeps_arrays_below_threshold(self):
        """Paper-scale fleets keep the historical arange/choice path —
        existing trajectories must stay bit-identical."""
        assert _SmallTask.n_clients < LAZY_AVAILABILITY_THRESHOLD
        system = SystemModel()
        system.bind(_SmallTask(), FLConfig())
        avail = system.available_clients(1, np.random.default_rng(0))
        np.testing.assert_array_equal(avail.ids, np.arange(8))

    def test_sample_excludes_on_both_shapes(self):
        """Async refills exclude in-flight clients from explicit ids and
        from an up-count alike."""
        in_flight = {0: None, 2: None, 4: None}
        ids = Availability(6, ids=np.arange(6)).sample(
            np.random.default_rng(0), 5, exclude=in_flight
        )
        assert sorted(ids.tolist()) == [1, 3, 5]
        ids = Availability(6, count=6).sample(
            np.random.default_rng(0), 5, exclude=in_flight
        )
        assert sorted(ids.tolist()) == [1, 3, 5]
        assert Availability(6, ids=np.array([2])).sample(
            np.random.default_rng(0), 5, exclude=in_flight
        ).size == 0


class TestFleetProfile:
    def test_registered_profile(self):
        system = make_system("fleet")
        assert isinstance(system, TraceSystem)
        assert "fleet" in DEVICE_PROFILES

    def test_bind_holds_no_fleet_sized_state(self):
        system = make_system("fleet")
        system.bind(_Fleet(), FLConfig(seed=3))
        assert not any(
            hasattr(v, "__len__") and len(v) >= 10_000
            for v in vars(system).values()
        )

    def test_traits_are_a_fixed_fleet(self):
        """Traits are a pure function of the client id: they agree
        across instances, access orders, config seeds and rebinds."""
        a = make_system("fleet")
        b = make_system("fleet")
        a.bind(_Fleet(), FLConfig(seed=3))
        b.bind(_Fleet(), FLConfig(seed=9))
        assert a.compute_seconds(1, 999_999) == b.compute_seconds(5, 999_999)
        assert a.compute_seconds(1, 999_999) == a.traits(999_999)[0]
        assert a.network(1, 7).uplink_mbps == b.network(2, 7).uplink_mbps
        assert a.compute_seconds(1, 7) != a.compute_seconds(1, 8)
        old = a.compute_seconds(1, 7)
        a.bind(_Fleet(), FLConfig(seed=9))
        assert a.compute_seconds(1, 7) == old

    def test_binomial_availability_deterministic_per_seed_round(self):
        system = make_system("fleet")
        system.bind(_Fleet(), FLConfig(seed=0))
        draws = []
        for _ in range(2):
            rng = stream("system", 0, 3)  # the simulation's (seed, round) system stream
            draws.append(system.available_clients(3, rng).size)
        assert draws[0] == draws[1]
        # roughly 60% of the fleet (binomial concentration)
        assert abs(draws[0] - 600_000) < 5_000

    def test_invalid_parameters_rejected(self):
        """The profile builder rejects what the fleet profile's old
        constructor did: spreads below 1, up-rates outside [0, 1] and
        deadlines tighter than the fastest client."""
        with pytest.raises(ValueError, match="spread"):
            profile_system("bad", 0.5, 2.0)
        with pytest.raises(ValueError, match="spread"):
            profile_system("bad", 4.0, 0.0)
        for rate in (-0.1, 1.5):
            with pytest.raises(ValueError, match="availability"):
                profile_system("bad", 4.0, 2.0, rate=rate)
        with pytest.raises(ValueError, match="deadline_factor"):
            profile_system("bad", 4.0, 2.0, deadline_factor=0.5)

    def test_trait_cache_stays_bounded(self):
        system = make_system("fleet")
        system.bind(_Fleet(), FLConfig(seed=0))
        for cid in range(5000):
            system.compute_seconds(1, cid)
        assert len(system._trait_cache) <= 4096
        # a cache eviction never changes the draw
        fresh = make_system("fleet")
        fresh.bind(_Fleet(), FLConfig(seed=0))
        assert system.compute_seconds(1, 123) == fresh.compute_seconds(1, 123)


@pytest.fixture(scope="module")
def small_fleet_task():
    return make_task("fleet", "small", seed=1)


@pytest.fixture(scope="module")
def fleet_config():
    return FLConfig(
        rounds=3, kappa=0.004, local_iterations=4, batch_size=8, lr=0.3,
        dropout_rate=0.2, eval_every=3, system="fleet", seed=0,
    )


class TestFleetSimulation:
    def test_selection_deterministic_per_seed_round(self, small_fleet_task, fleet_config):
        h1 = run_simulation(small_fleet_task, FedAvg(), fleet_config)
        h2 = run_simulation(small_fleet_task, FedAvg(), fleet_config)
        np.testing.assert_array_equal(h1.series("train_loss"), h2.series("train_loss"))
        np.testing.assert_array_equal(
            h1.series("sim_clock_seconds"), h2.series("sim_clock_seconds")
        )
        np.testing.assert_array_equal(h1.series("n_selected"), h2.series("n_selected"))

    def test_seed_changes_cohort(self, small_fleet_task, fleet_config):
        h1 = run_simulation(small_fleet_task, FedAvg(), fleet_config)
        h2 = run_simulation(
            small_fleet_task, FedAvg(), fleet_config.with_overrides(seed=9)
        )
        assert not np.array_equal(h1.series("train_loss"), h2.series("train_loss"))

    def test_memory_tracks_cohort_not_fleet(self, small_fleet_task, fleet_config):
        sim = FederatedSimulation(small_fleet_task, FedAvg(), fleet_config)
        try:
            for r in range(1, fleet_config.rounds + 1):
                sim.history.append(sim.run_round(r))
            touched = len(sim.client_states)
            scheduled = int(sim.history.series("n_scheduled").sum())
            assert touched <= scheduled  # never more state than executions
            assert touched < small_fleet_task.n_clients // 10
        finally:
            sim.close()

    def test_async_fleet_runs_and_is_deterministic(self, small_fleet_task, fleet_config):
        cfg = fleet_config.with_overrides(mode="async", buffer_size=5, rounds=4)
        h1 = run_simulation(small_fleet_task, FedAvg(), cfg)
        h2 = run_simulation(small_fleet_task, FedAvg(), cfg)
        np.testing.assert_array_equal(h1.series("train_loss"), h2.series("train_loss"))
        assert h1.series("flush_index").all()


class _EmptyAvailability(SystemModel):
    """A misbehaving custom model returning nobody available."""

    name = "empty"

    def available_clients(self, round_index, rng):
        return Availability(self.task.n_clients, ids=np.empty(0, dtype=np.int64))


class TestAvailabilityValidation:
    def test_empty_availability_fails_clearly(self, tiny_image_task, fast_config):
        sim = FederatedSimulation(
            tiny_image_task, FedAvg(), fast_config, system=_EmptyAvailability()
        )
        try:
            with pytest.raises(ValueError, match="no available clients"):
                sim.run_round(1)
        finally:
            sim.close()

    def test_empty_availability_fails_clearly_in_async_mode(self, tiny_image_task, fast_config):
        """Async mode stops with the same error, naming the system
        model and the round, instead of a bare nothing-in-flight one."""
        cfg = fast_config.with_overrides(mode="async", buffer_size=1)
        with pytest.raises(
            ValueError,
            match="system model 'empty' returned no available clients in round 1",
        ):
            run_simulation(tiny_image_task, FedAvg(), cfg, system=_EmptyAvailability())


class TestSnapshotIsolation:
    def test_snapshot_frozen_while_run_continues(self, tiny_image_task, fast_config):
        """Regression: checkpoint_state returned live references, so a
        mid-run snapshot was silently mutated by subsequent rounds and
        restore replayed corrupted state."""
        cfg = fast_config.with_overrides(rounds=4)
        uninterrupted = run_simulation(tiny_image_task, FedAvg(), cfg)

        sim = FederatedSimulation(tiny_image_task, FedAvg(), cfg)
        try:
            for r in (1, 2):
                sim.history.append(sim.run_round(r))
            snapshot = sim.checkpoint_state()
            frozen = copy.deepcopy(snapshot)  # reference copy for comparison
            for r in (3, 4):  # continue the live run past the snapshot
                sim.history.append(sim.run_round(r))
        finally:
            sim.close()

        # the snapshot did not move with the live run
        assert snapshot["next_round"] == 3
        assert len(snapshot["history"].records) == 2
        assert snapshot["global_params"].allclose(frozen["global_params"])
        for cid, state in frozen["client_states"].items():
            assert set(snapshot["client_states"][cid]) == set(state)

        # restoring the mid-run snapshot replays the uninterrupted tail
        resumed = FederatedSimulation(tiny_image_task, FedAvg(), cfg)
        try:
            resumed.restore_state(snapshot)
            history = resumed.run()
        finally:
            resumed.close()
        np.testing.assert_array_equal(
            history.series("train_loss"), uninterrupted.series("train_loss")
        )
        # ...and the snapshot survives the restore untouched, so it can
        # seed another restore
        assert len(snapshot["history"].records) == 2
        again = FederatedSimulation(tiny_image_task, FedAvg(), cfg)
        try:
            again.restore_state(snapshot)
            history2 = again.run()
        finally:
            again.close()
        np.testing.assert_array_equal(
            history2.series("train_loss"), uninterrupted.series("train_loss")
        )
