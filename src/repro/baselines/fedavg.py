"""FedAvg (McMahan et al., 2017) — the uncompressed baseline.

Every selected client trains the full model for ``V`` local iterations
and uploads all weights; the server computes the data-weighted average.
Table I's "Save Ratio" column is defined relative to this method's
upload size.  Training is the shared cohort loop of
:class:`~repro.fl.client.FederatedMethod` (stacks of clients on an MLP,
one client at a time otherwise) with no masks.
"""

from __future__ import annotations

from ..fl.client import ClientUpdate, FederatedMethod, LocalRun

__all__ = ["FedAvg"]


class FedAvg(FederatedMethod):
    """Dense federated averaging."""

    name = "fedavg"

    def upload(self, run: LocalRun) -> ClientUpdate:
        return run.kept_update()
