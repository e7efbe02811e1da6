"""Run stores: content-addressed caches of finished experiment cells.

Both stores map an :class:`~repro.experiments.spec.ExperimentSpec` cell
(via its structural :meth:`~repro.experiments.spec.ExperimentSpec.cell_hash`)
to a finished :class:`~repro.experiments.results.RunResult`:

* :class:`MemoryRunStore` — an in-process dict; the runner's default
  memo (what the old module-global ``_CACHE`` was), shared by every
  table/figure regenerated in one session.
* :class:`RunStore` — the persistent on-disk form, one JSON file per
  cell under ``root/<hash[:2]>/<hash>.json``.  Writes are atomic
  (tempfile + ``os.replace``), so shard workers of one sweep can share
  a store directory, an interrupted sweep leaves only whole cells
  behind, and :meth:`RunStore.get` treats truncated/corrupt files as
  misses rather than crashing a resume.

Both keep ``hits``/``misses`` counters so schedulers and tests can
verify that a resume recomputed exactly the incomplete cells.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from ..fl.checkpoints import dumps_nan_safe, history_from_payload, history_to_payload
from .results import RunResult
from .spec import SPEC_FORMAT_VERSION, ExperimentSpec

__all__ = [
    "MemoryRunStore",
    "RunStore",
    "result_to_payload",
    "result_from_payload",
]


def result_to_payload(result: RunResult) -> dict:
    """A :class:`RunResult` as a JSON-ready payload."""
    return {
        "task_name": result.task_name,
        "method_spec": result.method_spec,
        "dense_bits": result.dense_bits,
        "history": history_to_payload(result.history),
    }


def result_from_payload(payload: dict) -> RunResult:
    """Rebuild a :class:`RunResult` from :func:`result_to_payload` output."""
    return RunResult(
        task_name=payload["task_name"],
        method_spec=payload["method_spec"],
        history=history_from_payload(payload["history"]),
        dense_bits=payload["dense_bits"],
    )


class MemoryRunStore:
    """In-process run store: a dict with hit/miss accounting.

    ``get`` returns the *same object* that was ``put``, preserving the
    old ``_CACHE`` identity semantics the runner tests rely on.
    """

    def __init__(self) -> None:
        self._results: dict[str, RunResult] = {}
        self.hits = 0
        self.misses = 0

    def get(self, spec: ExperimentSpec) -> RunResult | None:
        result = self._results.get(spec.cell_hash())
        if result is None:
            self.misses += 1
        else:
            self.hits += 1
        return result

    def put(self, spec: ExperimentSpec, result: RunResult) -> None:
        self._results[spec.cell_hash()] = result

    def __contains__(self, spec: ExperimentSpec) -> bool:
        return spec.cell_hash() in self._results

    def __len__(self) -> int:
        return len(self._results)

    def clear(self) -> None:
        self._results.clear()


class RunStore:
    """Persistent on-disk run store keyed by the structural cell hash.

    Parameters
    ----------
    root:
        Store directory; created on first write.  Multiple processes
        may share it — files are written atomically and content
        addressing makes concurrent double-writes of the same cell
        idempotent.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0

    def path_for(self, spec: ExperimentSpec) -> Path:
        key = spec.cell_hash()
        return self.root / key[:2] / f"{key}.json"

    def get(self, spec: ExperimentSpec) -> RunResult | None:
        """Load one cell; any unreadable/corrupt/foreign-format file is
        a miss (the sweep recomputes and overwrites it)."""
        path = self.path_for(spec)
        try:
            payload = json.loads(path.read_text())
            if payload["format"] != SPEC_FORMAT_VERSION:
                raise ValueError(f"store format {payload['format']}")
            if payload["cell"] != spec.cell_hash():
                raise ValueError("cell hash mismatch")
            result = result_from_payload(payload["result"])
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, spec: ExperimentSpec, result: RunResult) -> None:
        """Write one cell atomically (tempfile in the final directory,
        then ``os.replace``)."""
        path = self.path_for(spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "format": SPEC_FORMAT_VERSION,
            "cell": spec.cell_hash(),
            "spec": spec.key_payload(),
            "result": result_to_payload(result),
        }
        fd, tmp_name = tempfile.mkstemp(
            prefix=f".{spec.cell_hash()}.", suffix=".tmp", dir=path.parent
        )
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(dumps_nan_safe(payload))
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def __contains__(self, spec: ExperimentSpec) -> bool:
        return self.path_for(spec).exists()

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))

    def clear(self) -> None:
        """Delete every stored cell (leaves the directory tree)."""
        if not self.root.exists():
            return
        for path in self.root.glob("*/*.json"):
            path.unlink()
