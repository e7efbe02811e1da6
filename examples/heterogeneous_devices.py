"""Straggler scenario: FedBIAD on a heterogeneous device fleet.

Run with::

    python examples/heterogeneous_devices.py

Trains FedBIAD on the MNIST-like task twice — once on the ideal fleet
(every device identical, server waits for everyone) and once on the
built-in ``straggler`` profile: a fixed fleet replayed from a one-class
device trace (log-normal device speeds and link bandwidths) with a
round deadline at 1.5x the fastest client's finish time.  Local compute
is simulated as a virtual 1 s base times each device's speed, so the
straggler set is a pure function of the trace and the seed.  Clients
that miss the deadline train locally but their uploads are dropped from
aggregation; the per-round participation and the virtual-clock round
times show the accuracy/wall-clock trade-off the deadline buys.

The device layer is pluggable: pass any
:class:`repro.fl.systems.SystemModel` — ``make_system(name)``, or a
:class:`repro.traces.TraceSystem` over your own trace — or a profile
name via ``FLConfig.system``, without touching the learning code.  Every run
executes serially in-process and its History is bit-identical across
reruns; to spread many runs over cores, run them as a sweep with
``python -m repro.experiments.cli sweep ... --shards N``.
"""

from __future__ import annotations

from repro.core import FedBIAD
from repro.data import make_task
from repro.fl import FLConfig, make_system, run_simulation


def main() -> None:
    task = make_task("mnist", scale="small", seed=1)
    config = FLConfig(
        rounds=12,
        kappa=0.2,
        local_iterations=10,
        batch_size=20,
        lr=0.3,
        dropout_rate=0.5,
        tau=3,
        seed=7,
    )

    print(f"task: {task.name} with {task.n_clients} non-IID clients")
    print("\n--- ideal fleet (no system heterogeneity) ---")
    ideal = run_simulation(task, FedBIAD(), config)

    print("--- straggler fleet (deadline at 1.5x the fastest client) ---")
    straggled = run_simulation(task, FedBIAD(), config, system=make_system("straggler"))

    print(f"\n{'round':>5} {'on-time':>8} {'stragglers':>10} {'t_round (sim)':>14}")
    for r in straggled.records:
        print(
            f"{r.round_index:>5} {r.n_selected:>5}/{r.n_scheduled}"
            f" {r.n_stragglers:>10} {r.sim_round_seconds:>13.3f}s"
        )

    print()
    print(f"ideal fleet     : acc {ideal.final_accuracy:.3f}, "
          f"sim clock {ideal.total_sim_seconds:.2f}s, participation 100%")
    print(f"straggler fleet : acc {straggled.final_accuracy:.3f}, "
          f"sim clock {straggled.total_sim_seconds:.2f}s, "
          f"participation {100 * straggled.participation().mean():.0f}%")


if __name__ == "__main__":
    main()
