"""Trace-driven device heterogeneity and Fig. 7 LTTR calibration.

Run with::

    python examples/trace_driven.py                     # registered trace
    python examples/trace_driven.py --trace my.json     # a saved trace
    python examples/trace_driven.py --clients 1000000   # fleet-scale replay

The script (1) builds a FLASH-style synthetic device trace (Zipf device
classes, diurnal availability), saves it to strict JSON and prints its
class composition; (2) replays it through ``TraceSystem`` on a small
federated run; (3) fits a one-class log-normal trace — the shape of
every built-in device profile — back to it (method of moments) and
reports the Fig. 7 round-trip: the fitted trace's mean LTTR against the
original's, which must agree within 10%.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

from repro.baselines.registry import make_method
from repro.data import make_fleet_task, task_summary
from repro.fl import FLConfig
from repro.fl.simulation import run_simulation
from repro.traces import (
    TraceSystem,
    diurnal_availability,
    fit,
    load_trace,
    lttr_round_trip_error,
    make_synthetic_trace,
    save_trace,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", default=None,
                        help="path to a saved trace (default: generate one)")
    parser.add_argument("--clients", type=int, default=5000, help="fleet size K")
    parser.add_argument("--rounds", type=int, default=4)
    parser.add_argument("--cohort", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    # --- 1. a trace is a first-class, replayable artifact ---------------
    if args.trace is not None:
        trace = load_trace(args.trace)
        print(f"loaded trace {trace.name!r} from {args.trace}")
    else:
        trace = make_synthetic_trace(
            "flash-demo", seed=7, availability=diurnal_availability(period=8)
        )
        path = Path(tempfile.gettempdir()) / "flash_demo_trace.json"
        save_trace(trace, path)
        print(f"generated trace {trace.name!r} -> {path} "
              f"({path.stat().st_size} bytes at any fleet size)")

    task = make_fleet_task(n_clients=args.clients, seed=1, size_spread=2.0)
    system = TraceSystem(trace)
    system.bind(task, FLConfig(seed=args.seed))
    print(task_summary(task, system=system))
    rates = ", ".join(f"{r:.2f}" for r in trace.availability[:8])
    print(f"availability cycle (first periods): {rates}")

    # --- 2. replay the trace through the simulation ---------------------
    config = FLConfig(
        rounds=args.rounds, kappa=args.cohort / task.n_clients,
        local_iterations=5, batch_size=16, lr=0.3, dropout_rate=0.2,
        eval_every=args.rounds, seed=args.seed,
    )
    history = run_simulation(task, make_method("fedavg"), config, system=system)
    for r in history.records:
        print(f"round {r.round_index}: cohort={r.n_selected} "
              f"loss={r.train_loss:.4f} sim_lttr={r.sim_compute_seconds_mean:.2f}s "
              f"sim_clock={r.sim_clock_seconds:.1f}s")

    # --- 3. fit a one-class trace back to it --------------------------
    result = fit(trace, n_clients=task.n_clients)
    device = result.device
    print(f"fitted class: speed median={device.speed_median:.2f} "
          f"sigma={device.speed_sigma:.2f}, "
          f"bandwidth median={device.bandwidth_median:.2f} "
          f"sigma={device.bandwidth_sigma:.2f}, "
          f"availability={result.availability:.2f}, "
          f"mean LTTR={result.expected_lttr():.2f}s")
    error = lttr_round_trip_error(trace, n_clients=task.n_clients)
    print(f"Fig. 7 round-trip: fitted trace mean-LTTR error "
          f"{100 * error:.1f}% (bound 10%)")
    return 0 if error < 0.10 else 1


if __name__ == "__main__":
    sys.exit(main())
