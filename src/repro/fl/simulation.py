"""Federated server orchestration (sync barrier rounds + shared core).

The server side of Algorithm 1 runs the selected cohort's local
updates in-process through one :func:`repro.fl.engine.execute_client`
call per cohort (or async wave), which hands the whole cohort to the
method's ``cohort_update`` hook, and is layered over one
pluggable part: a :class:`~repro.fl.systems.SystemModel` decides how
the *devices* behave (availability, compute speed, link bandwidth,
round deadline) and a :class:`~repro.fl.systems.VirtualClock` turns
that into simulated wall-clock per round — see :mod:`repro.fl.systems`.
Independent runs are parallelized by sweep sharding
(:mod:`repro.experiments.sweep`), never inside a run.

Availability reaches the server as one
:class:`~repro.fl.systems.Availability` value, whether it lists the up
clients or only counts them (million-client fleets), and
:meth:`FederatedSimulation._select_clients` draws every sync cohort and
every async refill through its single ``sample`` call.

Two server disciplines share this module's orchestration core
(selection streams, client execution, arrival simulation, evaluation,
checkpoint state):

* :class:`FederatedSimulation` (here) closes every round at a
  synchronous barrier: select ``c = max(floor(kappa * K), 1)`` clients,
  execute them, schedule each upload on the virtual clock, drop clients
  that miss the system model's deadline (stragglers), aggregate the
  on-time updates, evaluate.
* :class:`~repro.fl.async_aggregation.AsyncFederatedSimulation`
  (FedBuff-style) keeps a pool of clients training concurrently and
  folds uploads into the global model every ``buffer_size`` arrivals,
  weighting stale updates down — no barrier at all.

Pick one via ``FLConfig.mode`` (``"sync"``/``"async"``) or construct
the class directly; :func:`run_simulation` dispatches on the config.

Every stochastic choice is drawn from an RNG stream derived from
``(seed, round[, client])`` — never from shared-generator call order —
and simulated compute runs on the system model's virtual LTTR base, so
a run's trajectory (losses, accuracies, selection, upload/download bits,
stragglers and every ``sim_*`` clock column) is bit-identical across
reruns and sweep shard counts.  Only the host-measured
``lttr_seconds_mean`` varies run to run.
"""

from __future__ import annotations

import copy
from collections import defaultdict
from dataclasses import fields

import numpy as np

from ..nn.models import build_model
from .client import ClientUpdate, FederatedMethod
from .config import FLConfig
from . import engine
from .engine import ClientResult
from .metrics import History, RoundRecord, evaluate
from .parameters import ParamSet
from .systems import Availability, ClientArrival, SystemModel, VirtualClock, make_system

__all__ = ["FederatedSimulation", "run_simulation", "CHECKPOINT_FORMAT"]

#: Layout version of :meth:`FederatedSimulation.checkpoint_state`
#: snapshots; a snapshot of any other version is refused on restore.
CHECKPOINT_FORMAT = 2


class FederatedSimulation:
    """One (task, method, config) federated training run — sync barrier.

    Also serves as the orchestration core shared with
    :class:`~repro.fl.async_aggregation.AsyncFederatedSimulation`:
    construction, per-``(seed, round[, client])`` RNG streams, cohort
    execution, arrival simulation on the virtual clock, evaluation
    cadence, and checkpoint state all live here.

    Parameters
    ----------
    task, method, config:
        The federated task, the method under test, and its
        hyper-parameters.
    system:
        Device-behaviour model; defaults to
        ``make_system(config.system)``.
    """

    mode = "sync"

    def __init__(
        self,
        task,
        method: FederatedMethod,
        config: FLConfig,
        system: SystemModel | None = None,
    ) -> None:
        self.task = task
        self.method = method
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        model_rng = np.random.default_rng([config.seed, 0xBEEF])
        self.model = build_model(task.model_spec, model_rng)
        method.setup(self.model, task, config, self.rng)
        self.global_params = ParamSet.from_module(self.model)
        self.client_states: dict[int, dict] = defaultdict(dict)
        self.system = system if system is not None else make_system(config.system)
        self.system.bind(task, config)
        self.clock = VirtualClock()
        self.history = History(method=method.name, task=task.name)
        self._next_round = 1

    # ------------------------------------------------------------------
    def close(self) -> None:
        """No-op: a simulation holds no processes or other resources to
        release.  Kept so callers may close every run uniformly."""

    # ------------------------------------------------------------------
    # shared orchestration core
    # ------------------------------------------------------------------
    def _system_rng(self, round_index: int) -> np.random.Generator:
        """Per-round stream for stochastic device behaviour.

        The 4-element key cannot collide with any client stream's
        3-element ``[seed, round, client]`` key, whatever the fleet
        size.
        """
        return np.random.default_rng([self.config.seed, round_index, 0x5C1, 0])

    def _select_clients(
        self,
        round_index: int,
        available: Availability,
        cap: int | None = None,
        exclude=None,
    ) -> np.ndarray:
        """Uniform sample of ``c`` clients from the available fleet.

        The draw comes from a stream keyed by ``(seed, round)`` — not
        from a shared generator — so selection is independent of how
        many times any other RNG was consumed before this round.

        ``cap`` further limits the sample size and ``exclude`` removes
        ids from consideration (async refills pass their free
        concurrency slots and their in-flight clients).  Sync and async
        *must* share this helper: the async buffer>=cohort reduction to
        the sync trajectory rests on both drawing identically from the
        same ``(seed, round)`` stream.
        """
        rng = np.random.default_rng([self.config.seed, round_index])
        c = self.config.clients_per_round(self.task.n_clients)
        if cap is not None:
            c = min(c, cap)
        return available.sample(rng, c, exclude)

    def _execute_cohort(self, round_index: int, selected: np.ndarray) -> list[ClientResult]:
        """Run a cohort; results come back in selection order.

        Each client updates its entry of ``client_states`` in place, so
        state persists for every executed client — in sync mode
        stragglers trained locally even if their upload later misses the
        deadline.  ``execute_client`` is called once for the whole
        cohort and looked up on the module at call time, so a wrapper
        installed there (a tracing span) sees every client.
        """
        ids = [int(cid) for cid in selected]
        return engine.execute_client(
            self.task, self.method, self.model, self.config, self.global_params,
            round_index, ids, [self.client_states[cid] for cid in ids],
        )

    def _simulate_arrivals(
        self, round_index: int, results: list[ClientResult]
    ) -> list[ClientArrival]:
        """Model each executed client's simulated round duration."""
        download_bits = self.method.download_bits(self.global_params)
        arrivals = []
        for res in results:
            network = self.system.network(round_index, res.client_id)
            arrivals.append(
                ClientArrival(
                    client_id=res.client_id,
                    download_seconds=network.download_seconds(download_bits),
                    compute_seconds=self.system.compute_seconds(round_index, res.client_id),
                    upload_seconds=network.upload_seconds(res.update.upload_bits),
                )
            )
        return arrivals

    def _weighted_train_loss(self, updates: list[ClientUpdate], weights: np.ndarray) -> float:
        losses = np.array([u.mean_loss for u in updates], dtype=np.float64)
        return float((weights * losses).sum() / weights.sum())

    def _evaluate_if_due(self, round_index: int) -> tuple[float, float]:
        """Global test loss/accuracy on eval rounds, NaN otherwise."""
        if round_index % self.config.eval_every == 0 or round_index == self.config.rounds:
            self.global_params.to_module(self.model)
            return evaluate(self.model, self.task, self.config.eval_batch_size)
        return float("nan"), float("nan")

    # ------------------------------------------------------------------
    # checkpoint / resume
    # ------------------------------------------------------------------
    def _fingerprint(self) -> dict:
        """What a snapshot must match to restore into this simulation,
        in the order :meth:`restore_state` checks it."""
        return {
            "mode": self.mode,
            "task": self.task.name,
            "n_clients": self.task.n_clients,
            "method": self.method.name,
            **{f"config.{f.name}": getattr(self.config, f.name) for f in fields(self.config)},
        }

    def _checkpoint_payload(self) -> dict:
        """Live references to everything a snapshot must capture;
        subclasses extend it (async adds its in-flight table, which
        shares objects with the clock's pending events)."""
        return {
            "format": CHECKPOINT_FORMAT,
            "fingerprint": self._fingerprint(),
            "next_round": self._next_round,
            "global_params": self.global_params,
            "client_states": dict(self.client_states),
            "clock": self.clock,
            "history": self.history,
        }

    def checkpoint_state(self) -> dict:
        """Everything needed to resume this run mid-stream.

        RNG streams are all derived from ``(seed, round[, client])``
        keys, so no generator state needs saving — a resumed run
        replays the exact trajectory of an uninterrupted one.

        The snapshot is a *deep copy*: an in-memory snapshot taken at
        round N stays frozen at round N however far the live run
        continues (live references would be silently mutated by
        subsequent rounds and replay corrupted state on restore).  One
        ``deepcopy`` over the whole payload preserves shared identity
        between the clock's pending events and the async in-flight
        table.
        """
        return copy.deepcopy(self._checkpoint_payload())

    def _adopt_state(self, state: dict) -> None:
        """Install an already-copied snapshot; subclasses extend."""
        self._next_round = state["next_round"]
        self.global_params = state["global_params"]
        self.client_states = defaultdict(dict, state["client_states"])
        self.clock = state["clock"]
        self.history = state["history"]

    def restore_state(self, state: dict, *, copy_state: bool = True) -> None:
        """Adopt a :meth:`checkpoint_state` snapshot.

        The snapshot must have this module's :data:`CHECKPOINT_FORMAT`
        and come from a run of the same mode, task (name and client
        count), method name and full ``FLConfig``; otherwise a
        ``ValueError`` names the first field that differs.  With ``copy_state`` (the default) the snapshot is deep-copied on
        the way in, so the same in-memory snapshot can seed several
        restores and is never mutated by the runs it seeds.  Callers
        adopting a freshly-deserialized object graph nobody else holds
        (:func:`~repro.fl.checkpoints.restore_checkpoint`) pass
        ``copy_state=False`` to skip the redundant copy.
        """
        if state.get("format") != CHECKPOINT_FORMAT:
            raise ValueError(
                f"checkpoint format {state.get('format')!r} is not "
                f"{CHECKPOINT_FORMAT}; it was written by another version"
            )
        theirs = state["fingerprint"]
        for key, ours in self._fingerprint().items():
            if theirs.get(key) != ours:
                raise ValueError(
                    f"checkpoint does not match this simulation: checkpoint "
                    f"{key}={theirs.get(key)!r}, simulation {key}={ours!r}"
                )
        self._adopt_state(copy.deepcopy(state) if copy_state else state)

    # ------------------------------------------------------------------
    # the sync barrier round
    # ------------------------------------------------------------------
    def run_round(self, round_index: int) -> RoundRecord:
        """Execute one global barrier round and return its measurements."""
        round_start = self.clock.now
        available = self.system.available_clients(round_index, self._system_rng(round_index))
        if available.size == 0:
            raise ValueError(
                f"system model {self.system.name!r} returned no available "
                f"clients in round {round_index}; a server cannot run an "
                f"empty round (availability hooks must never return empty)"
            )
        selected = self._select_clients(round_index, available)
        results = self._execute_cohort(round_index, selected)

        # --- virtual clock: schedule uploads, apply the round deadline
        arrivals = self._simulate_arrivals(round_index, results)
        totals = np.array([a.total_seconds for a in arrivals], dtype=np.float64)
        for res, arrival in zip(results, arrivals):
            self.clock.schedule((res, arrival), at=round_start + arrival.total_seconds)
        deadline = self.system.round_deadline(totals)
        if deadline is None:
            on_time = self.clock.pop_until(round_start + float(totals.max()))
        else:
            on_time = self.clock.pop_until(round_start + deadline)
        if not on_time and len(self.clock):
            # a server cannot close a round with zero reports: an
            # over-tight (or even negative) deadline falls back to the
            # earliest scheduled upload — including every client tied
            # at exactly that instant.  pop_until at the peeked event
            # time is non-empty by construction, so the wait below
            # never reduces over an empty sequence.
            on_time = self.clock.pop_until(self.clock.next_time())
        stragglers = self.clock.drop_pending()
        # Aggregate in *selection* order, not arrival order: the golden
        # trajectories pin it, and the async buffer>=cohort reduction
        # relies on launch order matching it.
        position = {res.client_id: i for i, res in enumerate(results)}
        included = sorted((res for res, _ in on_time), key=lambda r: position[r.client_id])
        wait = max((a.total_seconds for _, a in on_time), default=0.0)
        if stragglers and deadline is not None:
            wait = max(wait, deadline)
        updates = [res.update for res in included]

        self.global_params = self.method.aggregate(round_index, self.global_params, updates)
        # the virtual clock stays purely virtual (download + compute +
        # upload): host-measured time would make sim columns, and so
        # every TTA, nondeterministic
        self.clock.advance_to(round_start + wait)

        weights = np.array([u.payload.weight for u in updates], dtype=np.float64)
        train_loss = self._weighted_train_loss(updates, weights)
        test_loss, test_acc = self._evaluate_if_due(round_index)

        upload_bits = np.array([u.upload_bits for u in updates], dtype=np.float64)
        self._next_round = round_index + 1
        return RoundRecord(
            round_index=round_index,
            train_loss=train_loss,
            test_loss=test_loss,
            test_accuracy=test_acc,
            upload_bits_mean=float(upload_bits.mean()),
            upload_bits_total=int(upload_bits.sum()),
            download_bits_per_client=self.method.download_bits(self.global_params),
            n_selected=len(updates),
            lttr_seconds_mean=float(np.mean([res.lttr_seconds for res in included])),
            n_scheduled=len(results),
            n_stragglers=len(stragglers),
            sim_round_seconds=self.clock.now - round_start,
            sim_clock_seconds=self.clock.now,
            sim_compute_seconds_mean=float(
                np.mean([a.compute_seconds for a in arrivals])
            ),
        )

    def run(self, progress: bool = False) -> History:
        """Run all remaining rounds; returns the per-round history.

        A freshly-constructed simulation runs rounds ``1..rounds``; one
        restored from :meth:`checkpoint_state` continues where the
        snapshot left off, appending to the restored history.
        """
        while self._next_round <= self.config.rounds:
            record = self.run_round(self._next_round)
            self.history.append(record)
            if progress:  # pragma: no cover - console convenience
                print(
                    f"[{self.method.name}/{self.task.name}] round {record.round_index:3d} "
                    f"loss={record.train_loss:.4f} acc={record.test_accuracy:.4f} "
                    f"clients={record.n_selected}/{record.n_scheduled} "
                    f"t_sim={record.sim_clock_seconds:.1f}s"
                )
        return self.history


def run_simulation(
    task,
    method: FederatedMethod,
    config: FLConfig,
    progress: bool = False,
    system: SystemModel | None = None,
) -> History:
    """Convenience wrapper: construct and run a simulation.

    Dispatches on ``config.mode``: ``"sync"`` builds a
    :class:`FederatedSimulation`, ``"async"`` a
    :class:`~repro.fl.async_aggregation.AsyncFederatedSimulation`.
    """
    if config.mode == "async":
        from .async_aggregation import AsyncFederatedSimulation

        sim_cls = AsyncFederatedSimulation
    else:
        sim_cls = FederatedSimulation
    sim = sim_cls(task, method, config, system=system)
    return sim.run(progress=progress)
