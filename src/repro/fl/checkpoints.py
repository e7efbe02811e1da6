"""Persistence for global models, run histories, and live simulations.

A production FL deployment checkpoints the global model every few rounds
and archives per-round metrics; this module provides both as plain
``.npz``/``.json`` files with no extra dependencies, plus mid-stream
simulation snapshots (:func:`save_checkpoint`/:func:`restore_checkpoint`)
that let an interrupted sync *or* async run resume and replay the exact
trajectory of an uninterrupted one — RNG streams are keyed by
``(seed, round[, client])``, so no generator state is involved.
"""

from __future__ import annotations

import json
import math
import pickle
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .metrics import History, RoundRecord
from .parameters import ParamSet

__all__ = [
    "save_params",
    "load_params",
    "history_to_payload",
    "history_from_payload",
    "dumps_nan_safe",
    "save_history",
    "load_history",
    "save_checkpoint",
    "restore_checkpoint",
]


def save_params(params: ParamSet, path: str | Path) -> None:
    """Write a parameter set to an ``.npz`` archive."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, **{name: value for name, value in params.items()})


def load_params(path: str | Path) -> ParamSet:
    """Read a parameter set written by :func:`save_params`."""
    with np.load(Path(path)) as archive:
        return ParamSet({name: archive[name].copy() for name in archive.files})


def history_to_payload(history: History) -> dict:
    """A run history as a JSON-ready payload (shared by
    :func:`save_history` and the experiments
    :class:`~repro.experiments.store.RunStore`)."""
    return {
        "method": history.method,
        "task": history.task,
        "records": [asdict(r) for r in history.records],
    }


#: Every float-typed :class:`RoundRecord` field.  JSON has no NaN, so
#: :func:`dumps_nan_safe` writes them as null and the loader must turn
#: *any* of them — not just the loss/accuracy columns — back into NaN,
#: or numeric ops downstream choke on ``None``.
_FLOAT_RECORD_FIELDS = tuple(
    f.name
    for f in fields(RoundRecord)
    # annotations are strings under `from __future__ import annotations`;
    # the substring match also catches future "float | None" /
    # "np.float64"-style fields so they cannot silently escape restoration
    if f.type is float or (isinstance(f.type, str) and "float" in f.type)
)


def history_from_payload(payload: dict) -> History:
    """Rebuild a :class:`History` from :func:`history_to_payload` output
    (restoring the NaNs that JSON encoded as null, for every float
    field of :class:`RoundRecord`)."""
    history = History(method=payload["method"], task=payload["task"])
    for raw in payload["records"]:
        raw = dict(raw)
        for key in _FLOAT_RECORD_FIELDS:
            if raw.get(key, 0.0) is None:
                raw[key] = float("nan")
        history.append(RoundRecord(**raw))
    return history


def _jsonable(obj):
    """Recursively convert ``obj`` into strictly-valid JSON values:
    numpy scalars downcast, non-finite floats (NaN/Infinity) become
    null *structurally* — string values are never touched."""
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        return value if math.isfinite(value) else None
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {key: _jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def dumps_nan_safe(payload) -> str:
    """JSON-encode ``payload``, downcasting numpy scalars and writing
    non-finite floats (which strict JSON lacks) as null.

    The substitution walks the payload structure rather than the encoded
    text, so string values containing "NaN" survive verbatim and
    ``Infinity``/``-Infinity`` never reach the output (``allow_nan=False``
    guarantees a strict-parser-safe document).
    """
    return json.dumps(_jsonable(payload), allow_nan=False)


def save_history(history: History, path: str | Path) -> None:
    """Write a run history to JSON (NaN-safe)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dumps_nan_safe(history_to_payload(history)))


def save_checkpoint(sim, path: str | Path) -> None:
    """Snapshot a live simulation (sync or async) mid-stream.

    Serializes global parameters, client states, the virtual clock
    (whose pending events are the uploads still in flight), the run
    cursor and the history so far in one pickle.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # pickling is itself a point-in-time snapshot, so serialize the live
    # payload directly — paying checkpoint_state()'s deepcopy here would
    # copy every client state twice per save
    with path.open("wb") as fh:
        pickle.dump(sim._checkpoint_payload(), fh, protocol=pickle.HIGHEST_PROTOCOL)


def restore_checkpoint(sim, path: str | Path) -> None:
    """Restore a :func:`save_checkpoint` snapshot into a fresh simulation.

    ``sim`` must be constructed with the same task, method, config and
    mode as the checkpointed run (a mismatch raises ``ValueError``
    naming the field); ``sim.run()`` then continues from the snapshot
    and reproduces the uninterrupted trajectory exactly.  A file that
    does not unpickle — empty, truncated, or naming a class this
    version no longer has — raises ``ValueError`` naming the path.
    """
    with Path(path).open("rb") as fh:
        try:
            state = pickle.load(fh)
        except Exception as exc:
            raise ValueError(f"cannot read checkpoint {str(path)!r}: {exc!r}") from exc
    # the unpickled graph is exclusively ours — skip the defensive copy
    sim.restore_state(state, copy_state=False)


def load_history(path: str | Path) -> History:
    """Read a history written by :func:`save_history`."""
    return history_from_payload(json.loads(Path(path).read_text()))
