"""Buffered asynchronous (FedBuff-style) server aggregation.

Synchronous FedBIAD closes every round at a barrier, so simulated
time-to-accuracy is bounded by the slowest on-time client.
:class:`AsyncFederatedSimulation` removes the barrier: the server keeps
up to ``max_concurrency`` clients training concurrently, client uploads
are scheduled on the :class:`~repro.fl.systems.VirtualClock` at their
simulated arrival times, and the server pops them *in arrival order*,
folding the buffer into the global model every ``buffer_size`` arrivals
(one :class:`~repro.fl.metrics.RoundRecord` per flush).

Staleness-weighted mixing
-------------------------
An update that trained on a global model ``s`` flushes old is weighted
down by ``alpha / (1 + s)**beta`` (``beta = FLConfig.staleness_exponent``;
a uniform ``alpha`` cancels under the weight normalization inside
:func:`~repro.fl.aggregation.aggregate`, so it is fixed at 1).  The
factor scales each buffered payload's data weight ``|D_k|`` and the
buffer is then aggregated with the *existing* per-row/paper-literal
rules — in particular, rows dropped by every buffered client keep the
previous global value, exactly as at the sync barrier.

Launch discipline
-----------------
Clients are (re)launched in *waves*: wave ``w`` starts when flush
``w - 1`` closes (wave 1 at time zero) and refills the concurrency
target from the then-available, not-currently-training fleet (the
in-flight clients are excluded inside
:meth:`~repro.fl.systems.Availability.sample`, whether availability
lists ids or only counts them).  Wave
``w`` draws from the same ``(seed, w)`` selection stream and the same
``(seed, w, client)`` client streams the sync loop uses for round ``w``
— so with ``buffer_size >= cohort`` and ``max_concurrency == cohort``
under a no-deadline profile, every flush contains exactly one wave with
zero staleness and the async trajectory *reduces to the sync one*
bit-for-bit, sim-clock columns included.

The system model's round deadline is ignored in async mode: there is no
round to be late for.  Slow devices are not dropped as stragglers —
their updates land eventually and are merely down-weighted by
staleness.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .client import ClientUpdate
from .metrics import RoundRecord
from .simulation import FederatedSimulation

__all__ = ["AsyncFederatedSimulation"]


@dataclass
class _InFlight:
    """Bookkeeping for one launched, not-yet-folded client update."""

    wave: int  # launch wave == global-model version at launch + 1
    slot: int  # position within the wave's selection (sort key)
    result: object  # ClientResult
    arrival: object  # ClientArrival


class AsyncFederatedSimulation(FederatedSimulation):
    """FedBuff-style buffered asynchronous federated training.

    One ``run_round(flush_index)`` call advances the virtual clock to
    the next buffer flush; :meth:`run` (inherited) performs
    ``config.rounds`` flushes.  All orchestration primitives — RNG
    streams, cohort execution, arrival simulation, evaluation cadence,
    checkpointing — are shared with the sync loop in
    :class:`~repro.fl.simulation.FederatedSimulation`.
    """

    mode = "async"

    def __init__(self, task, method, config, system=None) -> None:
        super().__init__(task, method, config, system=system)
        # client_id -> launch bookkeeping for everyone still training or
        # in transit; mirrors the events pending on the virtual clock
        self._in_flight: dict[int, _InFlight] = {}
        #: normalized effective aggregation weights of the latest flush
        #: (the staleness-scaled ``|D_k|`` over their sum) — observability
        #: for tests and diagnostics; ``None`` before the first flush.
        self.flush_weights: np.ndarray | None = None

    # ------------------------------------------------------------------
    def _refill(self, wave: int) -> None:
        """Launch new clients up to the concurrency target.

        Wave ``w`` uses the sync loop's round-``w`` selection and client
        RNG streams, drawing only from available clients not currently
        in flight (a device cannot train two updates at once).
        """
        n = self.task.n_clients
        target = self.config.resolved_max_concurrency(n)
        free = target - len(self._in_flight)
        if free <= 0:
            return
        available = self.system.available_clients(wave, self._system_rng(wave))
        selected = self._select_clients(wave, available, cap=free, exclude=self._in_flight)
        if selected.size == 0:
            return

        launch_time = self.clock.now
        results = self._execute_cohort(wave, selected)
        arrivals = self._simulate_arrivals(wave, results)
        for slot, (res, arrival) in enumerate(zip(results, arrivals)):
            entry = _InFlight(wave=wave, slot=slot, result=res, arrival=arrival)
            self._in_flight[res.client_id] = entry
            self.clock.schedule(entry, at=launch_time + arrival.total_seconds)

    # ------------------------------------------------------------------
    def run_round(self, flush_index: int) -> RoundRecord:
        """Advance to the next buffer flush and fold it into the model."""
        flush_start = self.clock.now
        self._refill(flush_index)

        # --- pop arrivals one at a time until the buffer fills; an
        # emptied event queue also flushes (the boundary case where the
        # buffer threshold exceeds what is in flight)
        threshold = self.config.resolved_buffer_size(self.task.n_clients)
        buffer: list[_InFlight] = []
        while len(buffer) < threshold and len(self.clock):
            at, entry = self.clock.pop_next()
            self.clock.advance_to(at)
            del self._in_flight[entry.result.client_id]
            buffer.append(entry)
        if not buffer:
            raise RuntimeError(
                "async flush with nothing in flight — no client is available "
                "to launch and no upload is pending"
            )

        # --- staleness-weighted mixing layered on the existing rules.
        # Aggregate in launch order (wave, slot), not arrival order:
        # launch order equals sync selection order, which is what makes
        # buffer_size >= cohort reduce to the sync loop.
        buffer.sort(key=lambda e: (e.wave, e.slot))
        staleness = np.array(
            [(flush_index - 1) - (e.wave - 1) for e in buffer], dtype=np.int64
        )
        factors = 1.0 / (1.0 + staleness.astype(np.float64)) ** self.config.staleness_exponent
        updates = [e.result.update for e in buffer]
        scaled: list[ClientUpdate] = [
            replace(u, payload=replace(u.payload, weight=u.payload.weight * f))
            for u, f in zip(updates, factors)
        ]
        effective = np.array([u.payload.weight for u in scaled], dtype=np.float64)
        self.flush_weights = effective / effective.sum()

        self.global_params = self.method.aggregate(flush_index, self.global_params, scaled)

        train_loss = self._weighted_train_loss(scaled, effective)
        test_loss, test_acc = self._evaluate_if_due(flush_index)

        upload_bits = np.array([u.upload_bits for u in updates], dtype=np.float64)
        self._next_round = flush_index + 1
        return RoundRecord(
            round_index=flush_index,
            train_loss=train_loss,
            test_loss=test_loss,
            test_accuracy=test_acc,
            upload_bits_mean=float(upload_bits.mean()),
            upload_bits_total=int(upload_bits.sum()),
            download_bits_per_client=self.method.download_bits(self.global_params),
            n_selected=len(buffer),
            lttr_seconds_mean=float(np.mean([e.result.lttr_seconds for e in buffer])),
            n_scheduled=len(buffer),
            n_stragglers=0,
            sim_round_seconds=self.clock.now - flush_start,
            sim_clock_seconds=self.clock.now,
            sim_compute_seconds_mean=float(
                np.mean([e.arrival.compute_seconds for e in buffer])
            ),
            flush_index=flush_index,
            staleness_mean=float(staleness.mean()),
            staleness_max=int(staleness.max()),
        )

    # ------------------------------------------------------------------
    def _checkpoint_payload(self) -> dict:
        # extending the payload (not the copied snapshot) keeps the
        # base class's single deepcopy covering the in-flight table, so
        # clock events and in-flight entries stay the *same* objects
        # inside one snapshot
        state = super()._checkpoint_payload()
        state["in_flight"] = dict(self._in_flight)
        return state

    def _adopt_state(self, state: dict) -> None:
        super()._adopt_state(state)
        self._in_flight = dict(state["in_flight"])
