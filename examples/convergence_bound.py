"""Theorem 1 in practice: bound curves next to a measured training run.

Trains FedBIAD on the MNIST-like task and prints, per round, the
measured test loss alongside the generalization-error bound of Eq. (14)
evaluated at ``m_r = r * V * min_k |D_k|`` — showing both decrease with
rounds, the qualitative content of the convergence analysis.

Run with::

    python examples/convergence_bound.py
"""

from __future__ import annotations

from repro.core import FedBIAD
from repro.data import make_task
from repro.fl import FLConfig, run_simulation
from repro.fl.rows import RowSpace
from repro.nn.models import build_model
from repro.core.spike_slab import structure_from_spec
from repro.theory import client_data_floor, generalization_bound

import numpy as np


def main() -> None:
    task = make_task("mnist", scale="small", seed=1)
    config = FLConfig(
        rounds=20, kappa=0.1, local_iterations=10, batch_size=20,
        lr=0.3, weight_decay=1e-4, dropout_rate=0.2, tau=3, seed=7,
    )
    history = run_simulation(task, FedBIAD(), config)

    model = build_model(task.model_spec, np.random.default_rng(0))
    space = RowSpace.from_module(model)
    structure = structure_from_spec(task.model_spec, space.unsparse_number(0.2))
    min_size = task.min_client_size()

    print(f"{'round':>5s} {'test loss':>10s} {'bound (Eq.14)':>14s}")
    for record in history.records:
        if not np.isfinite(record.test_loss):
            continue
        m_r = client_data_floor(record.round_index, config.local_iterations, min_size)
        bound = generalization_bound(structure, m_r)
        print(f"{record.round_index:5d} {record.test_loss:10.4f} {bound:14.4f}")


if __name__ == "__main__":
    main()
