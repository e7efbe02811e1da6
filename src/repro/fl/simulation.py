"""Federated server orchestration: one round loop for sync and async.

The server side of Algorithm 1 runs the selected cohort's local
updates in-process through one :func:`repro.fl.engine.execute_client`
call per launch wave, which hands the whole wave to the method's
``cohort_update`` hook, and is layered over one pluggable part: a
:class:`~repro.fl.systems.SystemModel` decides how the *devices* behave
(availability, compute speed, link bandwidth, round deadline) and a
:class:`~repro.fl.systems.VirtualClock` turns that into simulated
wall-clock per round — see :mod:`repro.fl.systems`.  Independent runs
are parallelized by sweep sharding (:mod:`repro.experiments.sweep`),
never inside a run.

Availability reaches the server as one
:class:`~repro.fl.systems.Availability` value, whether it lists the up
clients or only counts them (million-client fleets), and
:meth:`FederatedSimulation._select_clients` draws every wave through its
single ``sample`` call.

One round loop
--------------
:meth:`FederatedSimulation.run_round` is the only round loop.  Each
round (an async *flush*) launches a wave up to the concurrency target,
pops uploads off the virtual clock in arrival order until the buffer
fills or the round closes, folds the buffer into the global model and
writes one :class:`~repro.fl.metrics.RoundRecord`.  ``FLConfig.mode``
sets the two knobs:

* ``"sync"`` (Algorithm 1's barrier): buffer = concurrency = the
  cohort ``c = max(floor(kappa * K), 1)``, plus the deadline rule — the
  round closes at ``start + deadline`` (the system model's
  ``round_deadline``), or at the first upload if the deadline is
  over-tight, since a server cannot close a round with zero reports.
  Uploads still pending then are dropped as stragglers and the clock
  moves to the close.
* ``"async"`` (FedBuff-style): up to ``max_concurrency`` clients train
  at once and every ``buffer_size`` arrivals are folded in.  There is
  no deadline: slow devices are never dropped, their updates land
  eventually and are merely down-weighted by staleness.

Launch discipline
-----------------
Wave ``w`` starts when round ``w - 1`` closes (wave 1 at time zero) and
refills the concurrency target from the then-available fleet, minus the
clients still in flight (the clock's pending uploads; a device cannot
train two updates at once).  Wave ``w`` draws from the ``(seed, w)``
selection stream and the ``(seed, w, client)`` client streams whatever
the mode, so with ``buffer_size >= cohort`` and ``max_concurrency ==
cohort`` under a no-deadline profile every async flush holds exactly
one wave with zero staleness and reproduces the sync trajectory
bit-for-bit, clock columns included.

Staleness-weighted mixing
-------------------------
The buffer is folded in launch order ``(wave, slot)``, not arrival
order; in sync mode that is selection order, which the golden
trajectories pin.  An update that trained on a global model ``s``
rounds old is weighted down by ``alpha / (1 + s)**beta`` (``beta =
FLConfig.staleness_exponent``; a uniform ``alpha`` cancels under the
weight normalization inside :func:`~repro.fl.aggregation.aggregate`, so
it is fixed at 1).  The factor scales each payload's data weight
``|D_k|`` and the buffer is then aggregated with the existing
per-row/paper-literal rules — rows dropped by every buffered client
keep the previous global value.  Sync buffers are never stale, so their
factors are exactly 1.

Every stochastic choice is drawn from an RNG stream derived from
``(seed, round[, client])`` through the table of :mod:`repro.streams`,
where no two streams alias — never from shared-generator call order —
and simulated compute runs on the system model's virtual LTTR base, so
a run's trajectory (losses, accuracies, selection, upload/download bits,
stragglers and every ``sim_*`` clock column) is bit-identical across
reruns and sweep shard counts.  Only the host-measured
``lttr_seconds_mean`` varies run to run.
"""

from __future__ import annotations

import copy
import math
from collections import defaultdict
from dataclasses import fields, replace

import numpy as np

from ..nn.models import build_model
from ..streams import stream
from .client import FederatedMethod
from .config import FLConfig
from . import engine
from .engine import ClientResult
from .metrics import History, RoundRecord, evaluate
from .parameters import ParamSet
from .systems import Availability, ClientArrival, SystemModel, VirtualClock, make_system

__all__ = ["FederatedSimulation", "run_simulation", "CHECKPOINT_FORMAT"]

#: Layout version of :meth:`FederatedSimulation.checkpoint_state`
#: snapshots; a snapshot of any other version is refused on restore.
CHECKPOINT_FORMAT = 4


class FederatedSimulation:
    """One (task, method, config) federated training run, sync or async.

    Parameters
    ----------
    task, method, config:
        The federated task, the method under test, and its
        hyper-parameters; ``config.mode`` picks the server discipline.
    system:
        Device-behaviour model; defaults to
        ``make_system(config.system)``.
    """

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
        self.rng = stream("setup", config.seed)
        self.model = build_model(task.model_spec, stream("model_init", config.seed))
        method.setup(self.model, task, config, self.rng)
        self.global_params = ParamSet.from_module(self.model)
        self.client_states: dict[int, dict] = defaultdict(dict)
        self.system = system if system is not None else make_system(config.system)
        self.system.bind(task, config)
        self.clock = VirtualClock()
        self.history = History(method=method.name, task=task.name)
        self._next_round = 1
        #: normalized effective aggregation weights of the latest round
        #: (the staleness-scaled ``|D_k|`` over their sum) — observability
        #: for tests and diagnostics; ``None`` before the first round.
        self.flush_weights: np.ndarray | None = None

    @property
    def mode(self) -> str:
        """The server discipline, ``"sync"`` or ``"async"``."""
        return self.config.mode

    # ------------------------------------------------------------------
    def close(self) -> None:
        """No-op: a simulation holds no processes or other resources to
        release.  Kept so callers may close every run uniformly."""

    # ------------------------------------------------------------------
    # launching a wave
    # ------------------------------------------------------------------
    def _system_rng(self, round_index: int) -> np.random.Generator:
        """Per-round stream for stochastic device behaviour (the
        ``"system"`` purpose of :mod:`repro.streams`)."""
        return stream("system", self.config.seed, round_index)

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
        ``cap`` further limits the sample size (the wave's free
        concurrency slots) and ``exclude`` removes ids from
        consideration (the clients still in flight).
        """
        rng = stream("selection", self.config.seed, round_index)
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
        self.system.prepare_cohort([res.client_id for res in results])
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

    def _targets(self) -> tuple[int, int]:
        """``(concurrency, buffer size)``: both the cohort in sync mode."""
        n = self.task.n_clients
        if self.mode == "sync":
            cohort = self.config.clients_per_round(n)
            return cohort, cohort
        return self.config.resolved_max_concurrency(n), self.config.resolved_buffer_size(n)

    def _launch(self, wave: int, concurrency: int) -> np.ndarray:
        """Launch wave ``wave`` up to ``concurrency`` clients in flight.

        Every launched upload is scheduled on the clock as a ``(wave,
        slot, result, arrival)`` event at its simulated arrival time.
        Returns the launched clients' simulated durations in selection
        order (empty when no slot is free or nobody is left to launch).
        """
        in_flight = {res.client_id for _, _, res, _ in self.clock.pending()}
        free = concurrency - len(in_flight)
        if free <= 0:
            return np.empty(0)
        available = self.system.available_clients(wave, self._system_rng(wave))
        if available.size == 0:
            raise ValueError(
                f"system model {self.system.name!r} returned no available "
                f"clients in round {wave}; a server cannot run an "
                f"empty round (availability hooks must never return empty)"
            )
        selected = self._select_clients(wave, available, cap=free, exclude=in_flight)
        if selected.size == 0:
            return np.empty(0)
        launch_time = self.clock.now
        results = self._execute_cohort(wave, selected)
        arrivals = self._simulate_arrivals(wave, results)
        for slot, (res, arrival) in enumerate(zip(results, arrivals)):
            self.clock.schedule((wave, slot, res, arrival), at=launch_time + arrival.total_seconds)
        return np.array([a.total_seconds for a in arrivals], dtype=np.float64)

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
        """Live references to everything a snapshot must capture; the
        clock carries the uploads still in flight."""
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
        subsequent rounds and replay corrupted state on restore).
        """
        return copy.deepcopy(self._checkpoint_payload())

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
        if copy_state:
            state = copy.deepcopy(state)
        self._next_round = state["next_round"]
        self.global_params = state["global_params"]
        self.client_states = defaultdict(dict, state["client_states"])
        self.clock = state["clock"]
        self.history = state["history"]

    # ------------------------------------------------------------------
    # the round loop
    # ------------------------------------------------------------------
    def run_round(self, round_index: int) -> RoundRecord:
        """Launch a wave, fold the next buffer of uploads into the
        global model, and return the round's measurements."""
        start = self.clock.now
        concurrency, buffer_size = self._targets()
        durations = self._launch(round_index, concurrency)
        close = math.inf
        if self.mode == "sync":
            deadline = self.system.round_deadline(durations)
            if deadline is not None:
                close = start + deadline

        # --- pop arrivals until the buffer fills or the round closes;
        # an emptied event queue also closes it
        buffer = []
        while len(buffer) < buffer_size and len(self.clock) and self.clock.next_time() <= close:
            at, event = self.clock.pop_next()
            self.clock.advance_to(at)
            buffer.append(event)
        if not buffer:
            # an over-tight (or even negative) deadline closes the round
            # at the earliest upload instead, taking every client tied
            # at exactly that instant
            at = self.clock.next_time()
            buffer = self.clock.pop_until(at)
            self.clock.advance_to(at)
        stragglers = self.clock.drop_pending() if self.mode == "sync" else []
        if stragglers:
            self.clock.advance_to(close)

        # --- staleness-weighted mixing, in launch order (wave, slot)
        buffer.sort(key=lambda event: event[:2])
        staleness = np.array([round_index - wave for wave, *_ in buffer], dtype=np.int64)
        factors = 1.0 / (1.0 + staleness.astype(np.float64)) ** self.config.staleness_exponent
        arrived = [res.update for _, _, res, _ in buffer]
        # a factor of exactly 1 (every sync round) leaves ``w * 1.0 == w``
        updates = [
            u if f == 1.0 else replace(u, payload=replace(u.payload, weight=u.payload.weight * f))
            for u, f in zip(arrived, factors.tolist())
        ]
        weights = np.array([u.payload.weight for u in updates], dtype=np.float64)
        self.flush_weights = weights / weights.sum()
        self.global_params = self.method.aggregate(round_index, self.global_params, updates)

        # the arrived updates already hold their mean loss (the engine read it)
        losses = np.array([u.mean_loss for u in arrived], dtype=np.float64)
        train_loss = float((weights * losses).sum() / weights.sum())
        test_loss, test_acc = self._evaluate_if_due(round_index)

        launched = sorted(buffer + stragglers, key=lambda event: event[:2])
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
            n_selected=len(buffer),
            lttr_seconds_mean=float(np.mean([res.lttr_seconds for _, _, res, _ in buffer])),
            n_scheduled=len(launched),
            n_stragglers=len(stragglers),
            sim_round_seconds=self.clock.now - start,
            sim_clock_seconds=self.clock.now,
            sim_compute_seconds_mean=float(
                np.mean([arrival.compute_seconds for *_, arrival in launched])
            ),
            flush_index=round_index if self.mode == "async" else 0,
            staleness_mean=float(staleness.mean()),
            staleness_max=int(staleness.max()),
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
    """Convenience wrapper: construct and run a simulation."""
    return FederatedSimulation(task, method, config, system=system).run(progress=progress)
