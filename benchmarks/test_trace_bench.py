"""Benchmark: trace-driven million-client fleet — peak RSS and latency.

Runs the K=1,000,000 fleet task under a *trace-backed* device model
(``TraceSystem`` replaying the diurnal FLASH-style synthetic trace) and
asserts the same property the plain fleet benchmark pins: per-round
cost and peak RSS follow the selected cohort, never the fleet.  The
diurnal availability path in particular must stay one binomial draw per
round — an O(K) Bernoulli sweep or a materialized record table would
blow the RSS bound immediately at this scale.
"""

from __future__ import annotations

import resource
import time

from repro.baselines.registry import make_method
from repro.data.registry import make_task, task_summary
from repro.fl.config import FLConfig
from repro.fl.simulation import FederatedSimulation
from repro.fl.systems import make_system

from conftest import emit

FLEET_CLIENTS = 1_000_000
ROUNDS = 3
COHORT = 20
#: Hard bound on peak RSS (the fleet example enforces the same 512MB in
#: CI; the python + numpy floor is ~40MB, an O(K) regression costs
#: hundreds of MB at K=1M).
MAX_RSS_MB = 512


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def test_trace_fleet_scale(benchmark):
    task = make_task("fleet", "paper", seed=1)
    assert task.n_clients == FLEET_CLIENTS
    system = make_system("trace:flash-diurnal")
    config = FLConfig(
        rounds=ROUNDS, kappa=COHORT / FLEET_CLIENTS, local_iterations=5,
        batch_size=16, lr=0.3, dropout_rate=0.2, eval_every=ROUNDS,
        system="trace:flash-diurnal", seed=0,
    )

    sim = FederatedSimulation(task, make_method("fedavg"), config, system=system)
    try:
        # the diurnal availability hook must stay on the lazy binomial
        # path at this scale
        probe = sim.system.available_clients(1, sim._system_rng(1))
        assert probe.ids is None
        assert 0 < probe.count <= FLEET_CLIENTS

        def run_rounds() -> float:
            start = time.perf_counter()
            for round_index in range(1, ROUNDS + 1):
                record = sim.run_round(round_index)
                assert record.n_selected == COHORT
            return (time.perf_counter() - start) / ROUNDS

        per_round = benchmark.pedantic(run_rounds, rounds=1, iterations=1)
    finally:
        sim.close()

    rss = _peak_rss_mb()
    lines = [
        f"trace-driven fleet simulation (K={FLEET_CLIENTS:,}, fedavg, "
        f"{ROUNDS} rounds, trace:flash-diurnal)",
        "",
        task_summary(task, system=system),
        "",
        f"per round: {per_round * 1e3:.0f}ms   peak RSS: {rss:.0f}MB "
        f"(bound {MAX_RSS_MB}MB)",
    ]
    emit("trace_bench", "\n".join(lines))
    # O(cohort) acceptance under traces: availability, traits, and data
    # all stay lazy at K=1M
    assert rss <= MAX_RSS_MB, f"peak RSS {rss:.0f}MB exceeds {MAX_RSS_MB}MB"
