"""FedBIAD: the client update of Algorithm 1 and the method class.

Round ``r`` on client ``k`` (ClientUpdate, Algorithm 1 lines 9-28), as
the three per-client parts of the shared cohort loop
(:class:`repro.fl.client.FederatedMethod`):

1. :meth:`FedBIAD.local_start` initializes the local model ``theta ~
   N(U_{r-1}, s2 I)`` with the closed-form posterior variance of Eq.
   (13) and chooses a dropping pattern: random from ``Z_S^N`` in stage
   one (``r <= R_b``), score-driven in stage two.
2. The loop trains ``V`` masked SGD iterations (Eq. 7).  After each,
   :meth:`FedBIAD.local_step` records the loss; every ``tau`` iterations
   in stage one it computes the loss gap of Eq. (8), resamples the
   pattern if the trend worsened (swapping the client's masks inside
   its slice of the stack), and updates the weight score vector by Eq.
   (9).
3. :meth:`FedBIAD.upload` sends only the kept rows plus the binary
   pattern (the payload is round-tripped through :mod:`repro.core.wire`
   so the measured bits are exactly what travels).

The Bayesian init, the pattern draws and the wire round-trip go through
this module's names ``sample_model_init``, ``pack_upload`` and
``reconstruct_upload``.  Aggregation is the masked weighted average
(Eq. 10 with the per-row normalization discussed in DESIGN.md §1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..fl.aggregation import ClientPayload
from ..fl.client import ClientContext, ClientUpdate, FederatedMethod, LocalRun
from .adaptive import LossTrendTracker
from .scores import WeightScores
from .spike_slab import (
    ModelStructure,
    posterior_variance,
    sample_model_init,
    structure_from_spec,
)
from .wire import pack_upload, reconstruct_upload

__all__ = ["FedBIAD"]


class FedBIAD(FederatedMethod):
    """Federated learning with Bayesian inference-based adaptive dropout.

    Parameters
    ----------
    adaptive:
        When False, patterns are resampled every ``tau`` iterations
        unconditionally and scores are not used — the "pure random"
        ablation of the loss-trend rule.
    use_stage2:
        When False, the score-driven stage two is disabled and every
        round samples patterns (ablation of Section IV-D).
    bayesian_init:
        When False, clients start from ``U_{r-1}`` exactly instead of
        sampling from the spike-and-slab posterior (ablation of the
        Bayesian initialization).
    rescale:
        Inverted-dropout rescaling: kept rows train scaled by
        ``1/(1-p)`` and are divided back before upload, preserving
        ``E[beta ∘ W] = (1-p) W`` signal magnitudes through depth.  The
        standard implementation of row/unit dropout; disable to ablate.
    weight_bound:
        ``B`` of Assumption 2 (the paper requires ``B >= 2``).
    """

    name = "fedbiad"

    def __init__(
        self,
        adaptive: bool = True,
        use_stage2: bool = True,
        bayesian_init: bool = True,
        rescale: bool = True,
        weight_bound: float = 2.0,
    ) -> None:
        super().__init__()
        self.adaptive = adaptive
        self.use_stage2 = use_stage2
        self.bayesian_init = bayesian_init
        self.rescale = rescale
        self.weight_bound = weight_bound
        self.structure: ModelStructure | None = None
        self._min_client_size: int = 1

    # ------------------------------------------------------------------
    def setup(self, model, task, config, rng) -> None:
        super().setup(model, task, config, rng)
        unsparse = self.rowspace.unsparse_number(config.dropout_rate)
        self.structure = structure_from_spec(task.model_spec, unsparse)
        # min_k |D_k| without forcing a fleet walk: the task's source
        # answers in O(1)
        self._min_client_size = task.min_client_size()

    def posterior_std(self, round_index: int) -> float:
        """``sqrt(s2)`` for round ``r`` (Eq. 13 with ``m_r`` of Thm. 1)."""
        if self.config.posterior_std_override is not None:
            return self.config.posterior_std_override
        if not self.bayesian_init:
            return 0.0
        m_r = round_index * self.config.local_iterations * self._min_client_size
        return float(np.sqrt(posterior_variance(self.structure, m_r, self.weight_bound)))

    def _sync_kept_rows(self, run: "_PatternRun") -> None:
        """Fold trained values back into the variational parameters U.

        Kept rows and dense parameters take the client's current values
        (un-scaled); dropped rows keep their U entries so a later
        pattern can revive them (Eq. 4: dropped rows still have
        variational parameters).
        """
        u = run.params
        for name, w in run.weights.items():
            mask = run.masks.get(name)
            if mask is None:
                u[name][...] = w
            else:
                u[name][mask] = w[mask] / run.scale

    # ------------------------------------------------------------------
    def local_start(self, ctx: ClientContext) -> LocalRun:
        """Line 9's Bayesian init and the round's first pattern (random
        in stage one, score-driven in stage two); the loop loads ``beta
        ∘ U``, scaled for training, into the client's slot."""
        cfg = ctx.config
        p = cfg.dropout_rate
        std = self.posterior_std(ctx.round_index)
        u = sample_model_init(ctx.global_params, std, ctx.rng)
        scores: WeightScores = ctx.state.get("scores") or WeightScores(self.rowspace.total_rows)
        in_stage_one = (
            not self.use_stage2
            or not self.adaptive
            or ctx.round_index <= cfg.resolved_stage_boundary
        )
        if in_stage_one:
            beta = self.rowspace.sample_pattern(p, ctx.rng)
        else:
            beta = self.rowspace.pattern_from_scores(scores.values, p)
        return _PatternRun(
            ctx=ctx,
            params=u,
            masks=self.rowspace.split(beta),
            scale=1.0 / (1.0 - p) if (self.rescale and p > 0.0) else 1.0,
            beta=beta,
            scores=scores,
            tracker=LossTrendTracker(cfg.tau),
            std=std,
            in_stage_one=in_stage_one,
        )

    def local_step(self, run: "_PatternRun", v: int, loss: float) -> dict | None:
        """Lines 18-26: the loss-trend judgment every ``tau`` iterations."""
        cfg = run.ctx.config
        tracker = run.tracker
        tracker.record(loss)
        last_iteration = v == cfg.local_iterations - 1
        if not (run.in_stage_one and tracker.is_judgment_point() and not last_iteration):
            return None
        delta = tracker.delta()
        if self.adaptive and delta <= 0.0:
            new_beta = run.beta
        else:
            new_beta = self.rowspace.sample_pattern(cfg.dropout_rate, run.ctx.rng)
        run.scores.update(run.beta, delta, new_beta)
        if new_beta is run.beta:
            return None
        run.n_resamples += 1
        self._sync_kept_rows(run)
        run.beta = new_beta
        return self.rowspace.split(new_beta)

    def upload(self, run: "_PatternRun") -> ClientUpdate:
        """Line 28 and overview steps 3-4: the wire round-trip."""
        rowspace = self.rowspace
        run.ctx.state["scores"] = run.scores
        self._sync_kept_rows(run)
        final_params = rowspace.apply_pattern(run.params, run.beta)
        upload = pack_upload(final_params, rowspace, run.beta)
        reconstructed = reconstruct_upload(upload, rowspace, final_params)
        payload = ClientPayload(
            params=reconstructed,
            weight=float(run.ctx.n_samples),
            masks=run.masks,
        )
        return ClientUpdate(
            payload=payload,
            upload_bits=upload.bits(final_params, rowspace),
            train_losses=run.tracker.losses,
            aux={"pattern": run.beta, "n_resamples": run.n_resamples, "posterior_std": run.std},
        )


@dataclass
class _PatternRun(LocalRun):
    """A FedBIAD client's round: ``params`` holds its variational
    parameters U, ``beta`` the active pattern."""

    beta: np.ndarray | None = None
    scores: WeightScores | None = None
    tracker: LossTrendTracker | None = None
    std: float = 0.0
    in_stage_one: bool = True
    n_resamples: int = 0
