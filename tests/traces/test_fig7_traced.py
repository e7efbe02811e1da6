"""Fig. 7 traced variant: spec wiring, sim-basis rows, CLI flags."""

from __future__ import annotations

import pytest

from repro.experiments import FIG7_TRACED, fig7_rows, fig7_spec, format_fig7
from repro.experiments.cli import build_parser, main
from repro.experiments.runner import clear_cache
from repro.experiments.sweep import run_sweep


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()


def _tiny_traced_sweep(trace="flash"):
    spec = fig7_spec(
        datasets=("mnist",), methods=("fedavg",), scale="small",
        overrides={"rounds": 2}, trace=trace,
    )
    return spec, run_sweep(spec)


class TestSpec:
    def test_trace_becomes_system_override(self):
        spec = fig7_spec(datasets=("mnist",), methods=("fedavg",),
                         scale="small", trace="flash")
        assert spec.name == "fig7-traced"
        cell = spec.cells[0]
        assert cell.overrides_dict()["system"] == "trace:flash"

    def test_preset_trace_resolves_per_scale(self):
        spec = fig7_spec(datasets=("mnist",), methods=("fedavg",),
                         scale="paper", trace="preset")
        expected = f"trace:{FIG7_TRACED['paper']}"
        assert spec.cells[0].overrides_dict()["system"] == expected

    def test_untraced_spec_unchanged(self):
        spec = fig7_spec(datasets=("mnist",), methods=("fedavg",), scale="small")
        assert spec.name == "fig7"
        assert "system" not in spec.cells[0].overrides_dict()

    def test_traced_and_untraced_cells_differ(self):
        plain = fig7_spec(datasets=("mnist",), methods=("fedavg",), scale="small")
        traced = fig7_spec(datasets=("mnist",), methods=("fedavg",),
                           scale="small", trace="flash")
        assert plain.cells[0].cell_hash() != traced.cells[0].cell_hash()


class TestRows:
    def test_traced_rows_use_virtual_time_base(self):
        spec, results = _tiny_traced_sweep()
        rows = fig7_rows(results)
        assert len(rows) == 1
        row = rows[0]
        assert row.system == "trace:flash"
        result = results[spec.cells[0]]
        # LTTR is the trace-scaled simulated compute, not host wall-clock
        sim = result.history.series("sim_compute_seconds_mean")
        assert row.lttr_seconds == float(sim.mean()) > 0
        # traced rows are a pure function of the seed: regenerating the
        # sweep reproduces them bit-for-bit
        clear_cache()
        _, again = _tiny_traced_sweep()
        assert fig7_rows(again)[0] == row

    def test_format_gains_system_column_only_when_traced(self):
        _, results = _tiny_traced_sweep()
        rows = fig7_rows(results)
        text = format_fig7(rows)
        assert "System" in text and "trace:flash" in text
        plain_rows = [r for r in rows]
        for r in plain_rows:
            r.system = "ideal"
        assert "System" not in format_fig7(plain_rows)


class TestCLI:
    def test_trace_flag_parses(self):
        parser = build_parser()
        args = parser.parse_args(["fig7", "--trace"])
        assert args.trace == "preset"
        args = parser.parse_args(["sweep", "fig7", "--trace", "flash"])
        assert args.trace == "flash"
        args = parser.parse_args(["run", "mnist", "fedavg", "--trace", "flash"])
        assert args.trace == "flash"

    def test_trace_conflicts_with_device_profile(self):
        with pytest.raises(SystemExit):
            main(["run", "mnist", "fedavg", "--trace", "flash",
                  "--device-profile", "straggler"])

    def test_trace_rejected_on_non_fig7_sweeps(self):
        with pytest.raises(SystemExit, match="fig7"):
            main(["sweep", "table1", "--trace", "flash"])

    def test_run_with_trace(self, capsys):
        assert main(["run", "mnist", "fedavg", "--rounds", "2",
                     "--trace", "flash"]) == 0
        out = capsys.readouterr().out
        assert "per-round participation [trace:flash]" in out

    def test_sweep_fig7_trace(self, tmp_path, capsys):
        assert main([
            "sweep", "fig7", "--datasets", "mnist", "--methods", "fedavg",
            "--rounds", "2", "--trace", "flash",
            "--store", str(tmp_path / "store"),
        ]) == 0
        out = capsys.readouterr().out
        assert "fig7-traced" in out
        assert "trace:flash" in out
