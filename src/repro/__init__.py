"""FedBIAD reproduction: communication-efficient federated learning with
Bayesian inference-based adaptive dropout (IPDPS 2023).

Quickstart::

    from repro.data import make_task
    from repro.core import FedBIAD
    from repro.fl import FLConfig, run_simulation

    task = make_task("fmnist", scale="small", seed=1)
    history = run_simulation(task, FedBIAD(), FLConfig(rounds=30, dropout_rate=0.5))
    print(history.final_accuracy, history.mean_upload_bits() / 8, "bytes/round")

Subpackages
-----------
``repro.nn``           NumPy autodiff, layers, models, optimizers
``repro.data``         synthetic datasets, partitioning, batching
``repro.fl``           federated simulation substrate
``repro.core``         FedBIAD (the paper's contribution)
``repro.baselines``    FedAvg, FedDrop, AFD, FedMP, FjORD, HeteroFL
``repro.compression``  DGC, SignSGD, FedPAQ, STC and their composition
``repro.comm``         5G link model (the virtual clock's base link)
``repro.traces``       trace-driven device & availability subsystem
``repro.theory``       Theorem 1's generalization bounds
``repro.experiments``  harness regenerating every table and figure
"""

from . import baselines, comm, compression, core, data, experiments, fl, nn, theory, traces

__version__ = "1.0.0"

__all__ = [
    "nn",
    "data",
    "fl",
    "core",
    "baselines",
    "compression",
    "comm",
    "traces",
    "theory",
    "experiments",
    "__version__",
]
