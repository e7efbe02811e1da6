"""Async buffered aggregation vs the sync barrier on a straggler fleet.

Run with::

    python examples/async_vs_sync.py

Trains FedBIAD on the MNIST-like task twice at the same seed on the
``straggler`` device profile (log-normal speeds across ~1 order of
magnitude, virtual compute base, deadline at 1.5x the fastest client):

* **sync** — Algorithm 1's barrier: every round waits for the deadline
  and drops late clients, so most of the fleet's work is discarded
  (participation ~28% here) and simulated time per round is bounded by
  the deadline;
* **async** — FedBuff-style buffered aggregation, the same round loop
  (:meth:`repro.fl.simulation.FederatedSimulation.run_round`) without
  the deadline: up to ``max_concurrency`` clients train concurrently,
  the server folds the
  buffer into the global model every ``buffer_size`` arrivals with
  staleness-weighted mixing (``1 / (1 + staleness)**beta``), and nobody
  is dropped — slow devices land late and merely count for less.

Both runs are fully deterministic (arrival order derives from virtual
time), so the time-to-accuracy comparison
(:meth:`repro.fl.metrics.History.time_to_accuracy`, the virtual clock at
the first round reaching the target) is exact and reproducible across
hosts and reruns.
"""

from __future__ import annotations

from repro.core import FedBIAD
from repro.data import make_task
from repro.fl import FLConfig, run_simulation

TARGET_ACCURACY = 0.45


def main() -> None:
    task = make_task("mnist", scale="small", seed=1)
    sync_config = FLConfig(
        rounds=15,
        kappa=0.2,
        local_iterations=10,
        batch_size=20,
        lr=0.3,
        dropout_rate=0.5,
        tau=3,
        seed=7,
        system="straggler",
    )
    # same seed/profile; the async server keeps twice the cohort in
    # flight and flushes every 3 arrivals
    async_config = sync_config.with_overrides(
        mode="async", buffer_size=3, max_concurrency=12, rounds=40
    )

    print(f"task: {task.name} with {task.n_clients} non-IID clients")
    print("\n--- sync barrier (straggler deadline drops late clients) ---")
    sync_history = run_simulation(task, FedBIAD(), sync_config)

    print("--- async buffered (FedBuff-style, staleness-weighted) ---")
    async_history = run_simulation(task, FedBIAD(), async_config)

    print(f"\n{'flush':>5} {'buffer':>6} {'staleness':>12} {'t_flush (sim)':>14}")
    for r in async_history.records[:10]:
        print(
            f"{r.flush_index:>5} {r.n_selected:>6}"
            f" {r.staleness_mean:>7.2f}/{r.staleness_max:<4d}"
            f" {r.sim_round_seconds:>13.3f}s"
        )
    print(f"  ... ({len(async_history)} flushes total)")

    sync_tta = sync_history.time_to_accuracy(TARGET_ACCURACY)
    async_tta = async_history.time_to_accuracy(TARGET_ACCURACY)
    print()
    print(
        f"sync  : best acc {sync_history.best_accuracy:.3f}, "
        f"sim clock {sync_history.total_sim_seconds:.2f}s, "
        f"participation {100 * sync_history.participation().mean():.0f}%"
    )
    print(
        f"async : best acc {async_history.best_accuracy:.3f}, "
        f"sim clock {async_history.total_sim_seconds:.2f}s, "
        f"mean staleness {async_history.mean_staleness():.2f}"
    )
    print(f"\nsimulated time to {TARGET_ACCURACY:.0%} test accuracy:")
    print(f"  sync  : {sync_tta:.2f}s" if sync_tta else "  sync  : not reached")
    print(f"  async : {async_tta:.2f}s" if async_tta else "  async : not reached")
    if sync_tta and async_tta and async_tta < sync_tta:
        print(f"  -> async reaches the target {sync_tta / async_tta:.1f}x sooner")


if __name__ == "__main__":
    main()
