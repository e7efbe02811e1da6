"""Tests for the experiments CLI."""

from __future__ import annotations

import pytest

from repro.experiments import ExecutionContext, clear_cache, sweep
from repro.experiments.cli import ARTIFACT_NAMES, build_parser, context_from_args, main

#: overrides that keep a CLI-driven simulation at smoke-test size
FAST = ["--rounds", "2"]


class TestParser:
    def test_all_subcommands_exist(self):
        parser = build_parser()
        for cmd in ("table1", "table2", "fig2", "fig6", "fig7", "fig8", "ablations"):
            assert parser.parse_args([cmd]).command == cmd
        assert parser.parse_args(["run", "mnist", "fedavg"]).command == "run"
        assert parser.parse_args(["sweep", "table1"]).command == "sweep"

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_validates_task(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "cifar", "fedavg"])

    def test_sweep_validates_artifact(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "table9"])

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep", "table1"])
        assert args.shards == 1
        assert args.resume is True
        assert args.max_cells is None

    def test_sweep_no_resume(self):
        args = build_parser().parse_args(["sweep", "table1", "--no-resume"])
        assert args.resume is False

    def test_sweep_rejects_nonpositive_shards(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "table1", "--shards", "0"])

    def test_sweep_rejects_nonpositive_rounds(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "table1", "--rounds", "0"])


class TestContextFromArgs:
    def test_buffer_size_implies_async_mode(self):
        args = build_parser().parse_args(["run", "mnist", "fedavg", "--buffer-size", "2"])
        context = context_from_args(args)
        assert context.mode == "async"
        assert context.buffer_size == 2

    def test_empty_flags_make_empty_context(self):
        args = build_parser().parse_args(["run", "mnist", "fedavg"])
        assert context_from_args(args) == ExecutionContext()


class TestMain:
    def test_run_subcommand_smoke(self, capsys):
        code = main(["run", "mnist", "fedavg", *FAST])
        assert code == 0
        out = capsys.readouterr().out
        assert "fedavg on mnist" in out
        assert "save" in out

    def test_run_with_dropout_override(self, capsys):
        code = main(["run", "mnist", "fedbiad", *FAST, "--dropout-rate", "0.5"])
        assert code == 0
        assert "fedbiad on mnist" in capsys.readouterr().out

    def test_unknown_dataset_list_rejected(self):
        with pytest.raises(SystemExit):
            main(["table1", "--datasets", "imagenet"])

    def test_run_with_device_profile(self, capsys):
        code = main(["run", "mnist", "fedavg", *FAST, "--device-profile", "straggler"])
        assert code == 0
        out = capsys.readouterr().out
        assert "sim clock" in out and "participation" in out
        assert "per-round participation [straggler]" in out

    def test_run_async_mode(self, capsys):
        code = main(
            ["run", "mnist", "fedavg", *FAST, "--mode", "async",
             "--device-profile", "straggler", "--buffer-size", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mean staleness" in out

    def test_invalid_mode_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "mnist", "fedavg", "--mode", "semi"])


class TestSweepCommand:
    ARGS = ["sweep", "table1", "--datasets", "mnist", "--methods", "fedavg",
            "--seeds", "0", "--rounds", "2"]

    def test_sweep_smoke_and_resume(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main([*self.ARGS, "--store", store]) == 0
        out = capsys.readouterr().out
        assert "computed=1 reused=0 pending=0" in out
        assert "Table I" in out

        # second invocation resumes from the store: nothing recomputed
        assert main([*self.ARGS, "--store", store]) == 0
        out = capsys.readouterr().out
        assert "computed=0 reused=1 pending=0" in out
        assert "Table I" in out

    def test_sweep_max_cells_leaves_pending(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        args = ["sweep", "table1", "--datasets", "mnist",
                "--methods", "fedavg,fedbiad", "--seeds", "0",
                "--rounds", "2", "--store", store]
        assert main([*args, "--max-cells", "1"]) == 0
        out = capsys.readouterr().out
        assert "computed=1 reused=0 pending=1" in out
        assert "sweep incomplete" in out
        assert "Table I" not in out

        assert main(args) == 0
        out = capsys.readouterr().out
        assert "computed=1 reused=1 pending=0" in out
        assert "Table I" in out

    def test_sweep_no_resume_recomputes(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main([*self.ARGS, "--store", store]) == 0
        capsys.readouterr()
        assert main([*self.ARGS, "--store", store, "--no-resume"]) == 0
        assert "computed=1 reused=0 pending=0" in capsys.readouterr().out

    def test_sweep_bad_seeds_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["sweep", "table1", "--datasets", "mnist", "--seeds", "zero",
                  "--store", str(tmp_path / "s")])

    @pytest.mark.parametrize("artifact", ["fig2", "fig6", "fig7", "fig8", "ablations"])
    def test_sweep_multi_seed_rejected_for_single_seed_artifacts(self, artifact, tmp_path):
        with pytest.raises(SystemExit, match="single-seed"):
            main(["sweep", artifact, "--seeds", "0,1", "--store", str(tmp_path / "s")])

    def test_sweep_empty_seeds_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="at least one seed"):
            main(["sweep", "fig7", "--seeds", ",", "--store", str(tmp_path / "s")])

    @pytest.mark.parametrize("bad", ["typo", "fedavg+typo", "typo+dgc", ","])
    def test_sweep_bad_methods_rejected_before_any_work(self, bad, tmp_path):
        with pytest.raises(SystemExit):
            main(["sweep", "table1", "--datasets", "mnist", "--methods", bad,
                  "--store", str(tmp_path / "s")])

    def test_sweep_inapplicable_flags_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="does not apply"):
            main(["sweep", "fig2", "--datasets", "mnist", "--store", str(tmp_path / "s")])
        with pytest.raises(SystemExit, match="does not apply"):
            main(["sweep", "ablations", "--methods", "fedavg",
                  "--store", str(tmp_path / "s")])

    @pytest.mark.parametrize("artifact", ["fig8", "ablations"])
    def test_sweep_multi_dataset_rejected_for_single_dataset_artifacts(
        self, artifact, tmp_path
    ):
        with pytest.raises(SystemExit, match="one dataset"):
            main(["sweep", artifact, "--datasets", "mnist,fmnist",
                  "--store", str(tmp_path / "s")])

    def test_fig8_title_names_the_swept_dataset(self, capsys):
        args = ["fig8", "--datasets", "mnist", "--methods", "fedavg", "--rounds", "2"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "Fig. 8: accuracy and TTA versus dropout rate (mnist)" in out
        assert "Reddit" not in out

    def test_bare_single_dataset_artifact_rejects_dataset_list(self):
        with pytest.raises(SystemExit, match="one dataset"):
            main(["ablations", "--datasets", "fmnist,mnist"])

    def test_bare_command_shards_need_a_store(self):
        with pytest.raises(SystemExit, match="needs a persistent store"):
            main(["table1", "--shards", "2"])

    def test_sweep_no_resume_incomplete_message_warns_about_flag(self, tmp_path, capsys):
        args = ["sweep", "table1", "--datasets", "mnist",
                "--methods", "fedavg,fedbiad", "--seeds", "0", "--rounds", "2",
                "--store", str(tmp_path / "s")]
        assert main(args) == 0
        capsys.readouterr()
        assert main([*args, "--no-resume", "--max-cells", "1"]) == 0
        out = capsys.readouterr().out
        assert "without --no-resume" in out
        assert "re-run the same command" not in out

    def test_sweep_accepts_compressor_and_combined_specs(self):
        args = build_parser().parse_args(
            ["sweep", "table2", "--methods", "dgc,afd+dgc,fedbiad"]
        )
        from repro.experiments.cli import _method_list

        assert _method_list(args.methods) == ("dgc", "afd+dgc", "fedbiad")


class TestSweepAllArtifacts:
    """Every artifact's sweep spec expands, runs and renders end to end
    (cell execution stubbed — only the declarative plumbing is under
    test here; real-numbers regeneration lives in benchmarks/)."""

    @pytest.fixture(autouse=True)
    def stub_executor(self, monkeypatch, make_result):
        def fake_execute_cell(spec, store):
            result = make_result(task=spec.task, method=spec.method)
            store.put(spec, result)
            return result

        monkeypatch.setattr(sweep, "_execute_cell", fake_execute_cell)
        clear_cache()
        yield
        clear_cache()

    @pytest.mark.parametrize("artifact", ARTIFACT_NAMES)
    def test_sweep_runs_and_renders(self, artifact, tmp_path, capsys):
        assert main(["sweep", artifact, "--store", str(tmp_path / "store")]) == 0
        out = capsys.readouterr().out
        assert f"sweep {artifact}:" in out
        assert "pending=0" in out

    @pytest.mark.parametrize("artifact", ARTIFACT_NAMES)
    def test_bare_command_is_an_in_memory_sweep(self, artifact, tmp_path, capsys):
        assert main([artifact]) == 0
        bare = capsys.readouterr().out
        assert f"sweep {artifact}:" in bare
        store = str(tmp_path / "store")
        assert main(["sweep", artifact, "--store", store]) == 0
        swept = capsys.readouterr().out
        # the artifact rendered after the summary line is the same
        assert bare.split(" store=memory\n")[1] == swept.split(f" store={store}\n")[1]
