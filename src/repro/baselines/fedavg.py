"""FedAvg (McMahan et al., 2017) — the uncompressed baseline.

Every selected client trains the full model for ``V`` local iterations
and uploads all weights; the server computes the data-weighted average.
Table I's "Save Ratio" column is defined relative to this method's
upload size.  Training is the shared cohort loop of
:class:`~repro.fl.client.FederatedMethod` with no masks: every model
(MLP, LSTM, CNN) trains its clients in stacks, a lone client being a
stack of one.
"""

from __future__ import annotations

from ..fl.client import ClientUpdate, FederatedMethod, LocalRun

__all__ = ["FedAvg"]


class FedAvg(FederatedMethod):
    """Dense federated averaging."""

    name = "fedavg"

    def upload(self, run: LocalRun) -> ClientUpdate:
        return run.kept_update()
