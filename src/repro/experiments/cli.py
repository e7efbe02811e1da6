"""Command-line interface for regenerating the paper's tables and figures.

Usage::

    python -m repro.experiments.cli table1 --datasets mnist,fmnist
    python -m repro.experiments.cli fig7
    python -m repro.experiments.cli run mnist fedbiad --rounds 20
    python -m repro.experiments.cli run mnist fedbiad --mode async --buffer-size 2

    # subsampled fleet simulation (K=5000 small / K=1,000,000 paper;
    # per-round cost and memory follow the selected cohort, not K)
    python -m repro.experiments.cli run fleet fedavg --rounds 3
    python -m repro.experiments.cli run fleet fedavg --rounds 3 --scale paper

    # trace-driven device heterogeneity (repro.traces): a registered
    # trace name, a trace-file path, or bare --trace for the scale's
    # fig7-traced preset
    python -m repro.experiments.cli run mnist fedbiad --trace flash
    python -m repro.experiments.cli fig7 --trace
    python -m repro.experiments.cli sweep fig7 --trace my_fleet.json

    # sharded, resumable sweeps against an on-disk store
    python -m repro.experiments.cli sweep table1 --shards 4 --store runs/
    python -m repro.experiments.cli sweep table1 --shards 4 --store runs/   # resume
    python -m repro.experiments.cli sweep table1 --seeds 0,1,2   # multi-seed +/- columns
    python -m repro.experiments.cli sweep fig7 --datasets mnist,fmnist

The ``run`` subcommand executes a single (task, method) simulation and
prints its summary — handy for interactive exploration.  The ``sweep``
subcommand expands an artifact's (task x method x seed) grid into
content-addressed cells, shards them across ``--shards`` worker
processes, and persists every finished cell to ``--store``; re-running
the same sweep recomputes only the cells the store is missing
(``--no-resume`` forces a full recompute), so a killed Table-I
regeneration picks up where it left off.  A bare artifact command
(``table1``, ``fig7``, ...) is the same sweep with no default store:
its cells live in the in-process memo (``store=memory`` in the summary
line) unless ``--store`` names a directory.  ``--max-cells`` bounds one
invocation's work (smoke tests, budgeted runs).  ``--shards`` is the
CLI's only parallelism: every run executes serially in-process, and a
sweep spreads whole runs across processes.

Every subcommand accepts ``--device-profile`` to run under a system
model (``ideal``, ``heterogeneous``, ``flaky``, ``straggler``), and
``--mode sync|async`` (with ``--buffer-size N``) to choose between
barrier rounds and FedBuff-style buffered async aggregation.  The flags
become an explicit :class:`~repro.experiments.context.ExecutionContext`
that the scheduler folds into every cell; see :mod:`repro.fl.systems`
and :mod:`repro.fl.simulation`.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial

from ..baselines.registry import METHOD_NAMES
from ..compression.registry import COMPRESSOR_NAMES
from ..data.registry import ALL_TASK_NAMES, TASK_NAMES
from ..fl.systems import SYSTEM_NAMES
from ..traces import trace_system_spec
from .ablations import ablation_rows, ablations_spec, format_ablations
from .configs import resolve_fig7_trace
from .context import ExecutionContext
from .fig2 import fig2_result, fig2_spec, format_fig2
from .fig6 import fig6_panels, fig6_spec, format_fig6
from .fig7 import fig7_rows, fig7_spec, format_fig7
from .fig8 import fig8_rows, fig8_spec, format_fig8
from .runner import run_experiment
from .store import RunStore
from .sweep import run_sweep
from .table1 import format_table1, table1_rows, table1_spec
from .table2 import format_table2, table2_rows, table2_spec

__all__ = ["main", "build_parser", "context_from_args"]

ARTIFACT_NAMES = ("table1", "table2", "fig2", "fig6", "fig7", "fig8", "ablations")


def _nonnegative_int(raw: str) -> int:
    value = int(raw)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _add_execution_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--device-profile", default=None, choices=SYSTEM_NAMES,
                   help="system model for device heterogeneity")
    p.add_argument("--mode", default=None, choices=("sync", "async"),
                   help="server discipline: barrier rounds or FedBuff-style "
                        "buffered async aggregation")
    p.add_argument("--buffer-size", type=_nonnegative_int, default=None,
                   help="async uploads per flush (0 = cohort size); "
                        "implies --mode async")


def context_from_args(args: argparse.Namespace) -> ExecutionContext:
    """Build the run's :class:`ExecutionContext` from parsed CLI flags
    (applying the ``--buffer-size`` -> async implication)."""
    mode = getattr(args, "mode", None)
    buffer_size = getattr(args, "buffer_size", None)
    if buffer_size is not None and mode is None:
        mode = "async"  # --buffer-size only means anything to the buffer
    return ExecutionContext(
        system=getattr(args, "device_profile", None),
        mode=mode,
        buffer_size=buffer_size,
    )


def _add_trace_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trace", nargs="?", const="preset", default=None,
                   help="run under a device trace: a registered trace name, "
                        "a trace-file path, or no value for the scale's "
                        "fig7-traced preset (see repro.traces)")


def _check_trace_conflict(args) -> None:
    """A trace *is* the device model; combining it with a profile would
    silently discard one of them."""
    if getattr(args, "trace", None) and getattr(args, "device_profile", None):
        raise SystemExit("--trace and --device-profile are mutually exclusive")


def _dataset_list(raw: str | None, default: tuple[str, ...]) -> tuple[str, ...]:
    if not raw:
        return default
    chosen = tuple(d.strip() for d in raw.split(",") if d.strip())
    unknown = set(chosen) - set(TASK_NAMES)
    if unknown:
        raise SystemExit(f"unknown datasets: {sorted(unknown)}; choose from {TASK_NAMES}")
    return chosen


def _seed_list(raw: str | None) -> tuple[int, ...]:
    if not raw:
        return (0,)
    try:
        seeds = tuple(int(s.strip()) for s in raw.split(",") if s.strip())
    except ValueError:
        raise SystemExit(f"--seeds must be comma-separated integers, got {raw!r}")
    if not seeds:
        raise SystemExit(f"--seeds must name at least one seed, got {raw!r}")
    return seeds


def _method_list(raw: str | None) -> tuple[str, ...] | None:
    """Validate --methods up front (like --datasets) so a typo fails
    before any cells run rather than mid-sweep inside a worker."""
    if not raw:
        return None
    chosen = tuple(m.strip() for m in raw.split(",") if m.strip())
    if not chosen:
        raise SystemExit(f"--methods must name at least one method, got {raw!r}")
    valid = set(METHOD_NAMES) | set(COMPRESSOR_NAMES)
    for spec in chosen:
        base, _, comp = spec.partition("+")
        known = spec in valid or (comp and base in METHOD_NAMES and comp in COMPRESSOR_NAMES)
        if not known:
            raise SystemExit(
                f"unknown method spec {spec!r}; choose baseline names "
                f"{METHOD_NAMES}, compressors {COMPRESSOR_NAMES}, or "
                f"base+compressor combinations"
            )
    return chosen


def _add_sweep_flags(p: argparse.ArgumentParser, store: str | None) -> None:
    p.add_argument("--datasets", default=None,
                   help="comma-separated subset (grid artifacts) or single "
                        "dataset (fig8/ablations)")
    p.add_argument("--methods", default=None,
                   help="comma-separated method specs overriding the "
                        "artifact's line-up")
    p.add_argument("--seeds", default=None,
                   help="comma-separated seeds (default 0; multi-seed is a "
                        "table1/table2 feature — figures are single-seed)")
    p.add_argument("--scale", default=None, choices=("small", "paper"))
    p.add_argument("--shards", type=_positive_int, default=1,
                   help="worker processes the pending cells are split across "
                        "(needs --store)")
    p.add_argument("--store", default=store,
                   help="on-disk run store directory (cells persist here; "
                        "without one they live in the in-process memo)")
    p.add_argument("--resume", action=argparse.BooleanOptionalAction, default=True,
                   help="reuse cells the store already holds "
                        "(--no-resume recomputes everything)")
    p.add_argument("--rounds", type=_positive_int, default=None,
                   help="override every cell's round count (smoke sweeps)")
    p.add_argument("--max-cells", type=_nonnegative_int, default=None,
                   help="compute at most N cells this invocation, leaving "
                        "the rest pending")
    _add_execution_flags(p)
    _add_trace_flag(p)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.experiments.cli",
        description="Regenerate FedBIAD paper tables and figures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # `run` also accepts the fleet task (million-client scenario);
    # artifact sweeps stay pinned to the paper's five datasets
    p = sub.add_parser("run", help="run one (task, method) simulation")
    p.add_argument("task", choices=ALL_TASK_NAMES)
    p.add_argument("method", help="e.g. fedavg, fedbiad, fedbiad+dgc")
    p.add_argument("--rounds", type=int, default=None)
    p.add_argument("--dropout-rate", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", default=None, choices=("small", "paper"))
    _add_execution_flags(p)
    _add_trace_flag(p)

    # every artifact is a sweep: `sweep <artifact>` persists its cells
    # to --store, the bare `<artifact>` command keeps them in the
    # in-process memo unless given a --store
    for name in ARTIFACT_NAMES:
        p = sub.add_parser(
            name, help=f"regenerate {name} (a sweep; cells stay in memory without --store)"
        )
        _add_sweep_flags(p, store=None)
        p.set_defaults(artifact=name)
    p = sub.add_parser(
        "sweep",
        help="run an artifact's grid as a sharded, resumable sweep",
    )
    p.add_argument("artifact", choices=ARTIFACT_NAMES)
    _add_sweep_flags(p, store=".repro_store")
    return parser


def _single_dataset(args, default: str) -> str:
    """Single-dataset artifacts (fig8, ablations) must not silently
    drop extra --datasets entries."""
    chosen = _dataset_list(args.datasets, (default,))
    if len(chosen) > 1:
        raise SystemExit(
            f"{args.artifact} sweeps run one dataset at a time; "
            f"got --datasets {args.datasets!r}"
        )
    return chosen[0]


def _build_sweep(args):
    """The chosen artifact's sweep plus its results->text renderer."""
    if args.trace is not None and args.artifact != "fig7":
        raise SystemExit(
            f"--trace is a fig7 feature (the traced LTTR variant); "
            f"{args.artifact} sweeps do not accept it"
        )
    overrides = {"rounds": args.rounds} if args.rounds is not None else None
    seeds = _seed_list(args.seeds)
    if args.artifact not in ("table1", "table2") and len(seeds) > 1:
        raise SystemExit(
            f"{args.artifact} sweeps are single-seed (only table1/table2 "
            f"aggregate +/- columns over seeds); pass exactly one seed"
        )
    seed = seeds[0]
    methods = _method_list(args.methods)
    scale = args.scale

    def grid(spec_fn, rows_fn, fmt, default_datasets, per_seed=False):
        kwargs = {"scale": scale, "overrides": overrides}
        if methods:
            kwargs["methods"] = methods
        if default_datasets is not None:
            kwargs["datasets"] = _dataset_list(args.datasets, default_datasets)
        kwargs.update({"seeds": seeds} if not per_seed else {"seed": seed})
        return spec_fn(**kwargs), (lambda results: fmt(rows_fn(results)))

    if args.artifact == "table1":
        return grid(table1_spec, table1_rows, format_table1, TASK_NAMES)
    if args.artifact == "table2":
        return grid(table2_spec, table2_rows, format_table2, TASK_NAMES)
    if args.artifact == "fig2":
        if args.datasets:
            raise SystemExit("fig2 is fixed to the ptb task; --datasets does not apply")
        return grid(fig2_spec, fig2_result, format_fig2, None, per_seed=True)
    if args.artifact == "fig6":
        return grid(fig6_spec, fig6_panels, format_fig6,
                    ("mnist", "wikitext2"), per_seed=True)
    if args.artifact == "fig7":
        spec_fn = fig7_spec
        if args.trace is not None:
            _check_trace_conflict(args)
            spec_fn = partial(fig7_spec, trace=args.trace)
        return grid(spec_fn, fig7_rows, format_fig7,
                    ("mnist", "fmnist", "wikitext2", "reddit"), per_seed=True)
    if args.artifact == "fig8":
        dataset = _single_dataset(args, default="reddit")
        return grid(partial(fig8_spec, dataset=dataset), fig8_rows,
                    partial(format_fig8, dataset=dataset), None, per_seed=True)
    if methods:
        raise SystemExit("ablations sweeps are fixed to fedbiad variants; "
                         "--methods does not apply")
    dataset = _single_dataset(args, default="fmnist")
    spec = ablations_spec(dataset=dataset, scale=scale, seed=seed, overrides=overrides)
    return spec, (lambda results: format_ablations(ablation_rows(results), dataset))


def _cmd_sweep(args, context: ExecutionContext) -> int:
    spec, render = _build_sweep(args)
    if args.shards > 1 and args.store is None:
        raise SystemExit(
            f"--shards {args.shards} needs a persistent store the shard "
            f"processes can share: pass --store DIR"
        )
    store = RunStore(args.store) if args.store is not None else None
    results = run_sweep(
        spec,
        store=store,
        context=context,
        shards=args.shards,
        max_cells=args.max_cells,
        reuse=args.resume,
        progress=True,
    )
    print(
        f"sweep {spec.name}: cells={len(results)} computed={results.computed} "
        f"reused={results.reused} pending={results.pending} "
        f"shards={args.shards} store={args.store or 'memory'}"
    )
    if results.complete:
        print(render(results))
    elif args.resume:
        print(f"sweep incomplete: re-run the same command to resume the "
              f"{results.pending} pending cell(s)")
    else:
        # --no-resume never consults the store, so re-running the same
        # command would recompute the same prefix forever
        print(f"sweep incomplete: {results.pending} cell(s) pending; re-run "
              f"without --no-resume to keep this invocation's cells and "
              f"compute the rest")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    context = context_from_args(args)

    if args.command != "run":
        return _cmd_sweep(args, context)
    _check_trace_conflict(args)
    overrides = {}
    if args.rounds is not None:
        overrides["rounds"] = args.rounds
    if args.dropout_rate is not None:
        overrides["dropout_rate"] = args.dropout_rate
    if args.trace is not None:
        trace = resolve_fig7_trace(args.trace, args.scale)
        overrides["system"] = trace_system_spec(trace)
    result = run_experiment(
        args.task, args.method, scale=args.scale, seed=args.seed,
        config_overrides=overrides or None, context=context,
    )
    line = (
        f"{args.method} on {args.task}: best acc {result.best_accuracy:.4f}, "
        f"upload {result.upload_bits / 8 / 1024:.1f}KB/round "
        f"(save {result.save_ratio:.2f}x), LTTR {result.lttr * 1e3:.1f}ms"
    )
    line += (
        f", sim clock {result.sim_seconds:.3g}s"
        f", participation {100 * result.participation:.0f}%"
    )
    if context.mode == "async":
        line += f", mean staleness {result.history.mean_staleness():.2f}"
    print(line)
    system = overrides.get("system", context.system)
    if system not in (None, "ideal"):
        per_round = ", ".join(
            f"r{r.round_index}:{r.n_selected}/{r.n_scheduled}"
            for r in result.history.records
        )
        print(f"  per-round participation [{system}]: {per_round}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
