import argparse
import concurrent.futures
import shutil
from dataclasses import fields
from pathlib import Path

import pytest

from confdive import init_model, pipeline, save_model
from confdive.cli import _build_parser, _config_from_args, main
from confdive.pipeline import PipelineConfig, build_dataset, load_config, parse_config_text

MICRO = """\
family=covering
n_train=4
n_valid=2
n_test=2
n_vars=12
n_rows=7
seed=5
collect_step_limit=60
step_limit=60
pool_size=3
hidden_dim=8
epochs=3
lr=0.2
grid=0.8,1.0
"""

#: Equality rows whose root dive fails: the first incumbent comes at step 5.
LATE_FIRST = """\
NAME late_first
VAR x0 binary 0 1 2
VAR x1 binary 0 1 1
VAR x2 binary 0 1 9
VAR x3 binary 0 1 9
VAR x4 binary 0 1 4
VAR x5 binary 0 1 5
VAR x6 binary 0 1 3
VAR x7 binary 0 1 8
CON r0 eq 2 0:1 1:1 6:1 7:1
CON r1 eq 1 0:1 3:1 5:1
CON r2 eq 2 0:1 1:1 4:1 5:1
CON r3 eq 2 0:1 2:1 3:1 4:1 6:1 7:1
"""


@pytest.fixture()
def workdir(tmp_path):
    cfg = tmp_path / "micro.cfg"
    cfg.write_text(MICRO + f"outdir={tmp_path / 'out'}\n")
    return tmp_path, cfg


def override(cfg: Path, settings: str) -> None:
    """Rewrite ``cfg`` with the ``key=value`` lines of ``settings`` in place of
    its own lines for the same keys (a config file names each key once)."""
    keys = {line.partition("=")[0] for line in settings.splitlines()}
    kept = [line for line in cfg.read_text().splitlines(keepends=True)
            if line.partition("=")[0] not in keys]
    cfg.write_text("".join(kept) + settings)


def read_tree(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestGenerate:
    def test_writes_expected_files(self, workdir):
        tmp, cfg = workdir
        assert main(["generate", "--config", str(cfg)]) == 0
        files = list((tmp / "out" / "instances").rglob("*.milp"))
        assert len(files) == 8

    def test_idempotent_bytes(self, workdir):
        tmp, cfg = workdir
        main(["generate", "--config", str(cfg)])
        first = read_tree(tmp / "out")
        main(["generate", "--config", str(cfg)])
        assert read_tree(tmp / "out") == first

    def test_empty_dataset_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("n_train=0\nn_valid=0\nn_test=0\n")
        assert main(["generate", "--config", str(cfg)]) == 1
        assert "empty dataset" in capsys.readouterr().err


class TestPipelineChain:
    def test_full_chain_and_outputs(self, workdir):
        tmp, cfg = workdir
        out = tmp / "out"
        for command in ("generate", "collect", "train", "gridsearch"):
            assert main([command, "--config", str(cfg)]) == 0, command
        assert (out / "pools" / "skipped.txt").exists()
        assert (out / "model.txt").exists()
        loss_lines = (out / "loss_curve.csv").read_text().splitlines()
        assert loss_lines[0] == "epoch,mean_loss" and len(loss_lines) == 4
        report = (out / "gridsearch.csv").read_text()
        assert report.splitlines()[0] == "t,coverage,feasibility_rate,mean_primal_integral"
        assert "BEST t=" in report
        assert main(["evaluate", "--config", str(cfg), "--svg"]) == 0
        assert (out / "eval.csv").exists() and (out / "summary.csv").exists()
        header, *rows = [line.split(",") for line in (out / "eval.csv").read_text().splitlines()]
        assert header[-2:] == ["fell_back", "coverage"] and len(rows) == 4
        for plain, diving in zip(rows[::2], rows[1::2]):
            assert plain[1] == "plain" and plain[-2:] == ["", ""]
            assert diving[1].startswith("diving@t=") and diving[-2] in ("true", "false")
            assert 0.0 <= float(diving[-1]) <= 1.0
        assert len(list((out / "plots").glob("*.svg"))) == 2

    def test_explicit_threshold_skips_gridsearch(self, workdir):
        tmp, cfg = workdir
        main(["generate", "--config", str(cfg)])
        main(["collect", "--config", str(cfg)])
        main(["train", "--config", str(cfg)])
        assert main(["evaluate", "--config", str(cfg), "--threshold", "0.9"]) == 0
        assert "diving@t=0.9" in (tmp / "out" / "eval.csv").read_text()

    def test_jobs_flag_preserves_bytes(self, workdir):
        """Every output of the five stages is the same at --jobs 1 and 2.

        Six epochs give a model whose fixings differ between thresholds, so
        the grid rows differ. A generated instance finds its first incumbent
        at step 1, and with integer costs the mean primal integral is then
        the same whichever instance each cell is charged to. The plain solve of
        the hand-written validation instance finds its first one at step 5, so
        a grid map that returned its cells out of instance order would change
        the report.
        """
        tmp, cfg = workdir
        override(cfg, "epochs=6\ngrid=0.55,0.65,0.75,0.85,0.95\n")
        trees = []
        for jobs in ("1", "2"):
            for command in ("generate", "collect", "train", "gridsearch", "evaluate"):
                args = [command, "--config", str(cfg), "--jobs", jobs]
                assert main(args + ["--svg"] * (command == "evaluate")) == 0, (command, jobs)
                if command == "generate":
                    (tmp / "out" / "instances" / "valid" / "valid_0001.milp").write_text(LATE_FIRST)
            trees.append(read_tree(tmp / "out"))
            shutil.rmtree(tmp / "out")
        assert {"model.txt", "gridsearch.csv", "eval.csv", "summary.csv"} <= trees[0].keys()
        assert len([name for name in trees[0] if name.startswith("plots/")]) == 2
        rows = trees[0]["gridsearch.csv"].decode().splitlines()[1:-1]
        assert len({row.split(",", 1)[1] for row in rows}) >= 2  # the thresholds differ
        assert trees[1] == trees[0]

    @pytest.mark.parametrize("jobs, sizes", [("1", ""), ("2", "n_train=1\nn_valid=1\nn_test=1\n")],
                             ids=["jobs-1", "jobs-2-one-instance-per-split"])
    def test_no_process_pool_without_two_jobs_and_two_instances(self, workdir, monkeypatch,
                                                                jobs, sizes):
        """At --jobs 1, or with one instance to map, every stage maps in the
        calling process, so no pool's workers add to a run's memory."""

        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was built")

        # pipeline._mapper imports the pool class from its module when it builds one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        tmp, cfg = workdir
        override(cfg, sizes)
        outputs = {"generate": "instances/test/test_0000.milp", "collect": "pools/skipped.txt",
                   "train": "model.txt", "gridsearch": "gridsearch.csv", "evaluate": "eval.csv"}
        for command, output in outputs.items():
            assert main([command, "--config", str(cfg), "--jobs", jobs]) == 0, command
            assert (tmp / "out" / output).exists(), command

    def test_infeasible_train_instance_is_skipped(self, workdir):
        # a pool collected before the instance changed must not outlive it
        tmp, cfg = workdir
        main(["generate", "--config", str(cfg)])
        assert main(["collect", "--config", str(cfg)]) == 0
        bad = tmp / "out" / "instances" / "train" / "train_0001.milp"
        assert (tmp / "out" / "pools" / "train_0001.sol").exists()
        # the cover row needs three of its two variables
        bad.write_text("NAME overcover\nVAR x0 binary 0 1 1\nVAR x1 binary 0 1 1\n"
                       "CON c ge 3 0:1 1:1\n")
        assert main(["collect", "--config", str(cfg)]) == 0
        pools = tmp / "out" / "pools"
        assert (pools / "skipped.txt").read_text() == "overcover infeasible\n"
        assert sorted(p.name for p in pools.glob("*.sol")) == [
            "train_0000.sol", "train_0002.sol", "train_0003.sol"
        ]
        dataset = build_dataset(load_config(cfg))
        assert [d.graph.n_vars for d in dataset] == [12, 12, 12]
        assert main(["train", "--config", str(cfg)]) == 0

    def test_unsafe_instance_name_writes_nothing(self, workdir):
        tmp, cfg = workdir
        for command in ("generate", "collect", "train"):
            assert main([command, "--config", str(cfg)]) == 0, command
        test_file = tmp / "out" / "instances" / "test" / "test_0000.milp"
        lines = test_file.read_text().splitlines()
        lines[0] = "NAME ../../escaped,name"  # would be written as out/plots/../../escaped,name.svg
        test_file.write_text("\n".join(lines) + "\n")
        before = read_tree(tmp)
        assert main(["evaluate", "--config", str(cfg), "--threshold", "0.9", "--svg"]) == 2
        assert read_tree(tmp) == before

    def test_knapsack_family_chain(self, tmp_path):
        cfg = tmp_path / "k.cfg"
        cfg.write_text(
            "family=knapsack\nn_train=4\nn_valid=2\nn_test=2\nn_items=8\nn_dims=2\n"
            "seed=2\ncollect_step_limit=60\nstep_limit=60\npool_size=3\nhidden_dim=8\n"
            f"epochs=3\nlr=0.2\ngrid=0.8,1.0\noutdir={tmp_path / 'out'}\n"
        )
        for command in ("generate", "collect", "train", "gridsearch", "evaluate"):
            assert main([command, "--config", str(cfg)]) == 0, command
        assert (tmp_path / "out" / "summary.csv").exists()


class TestExitCodes:
    def test_missing_subcommand(self, capsys):
        assert main([]) == 1
        assert "subcommand" in capsys.readouterr().err

    def test_unknown_flag(self, workdir, capsys):
        _, cfg = workdir
        assert main(["generate", "--config", str(cfg), "--bogus"]) == 1

    def test_unknown_config_key(self, tmp_path, capsys):
        # a deleted key is rejected, not ignored
        for key, value in (("nonsense_key", "1"), ("include_root_lp", "false"),
                           ("uniform_weights", "true")):
            cfg = tmp_path / "c.cfg"
            cfg.write_text(f"{key}={value}\n")
            assert main(["generate", "--config", str(cfg)]) == 1
            assert f"unknown config key {key!r}" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        assert main(["generate", "--config", str(tmp_path / "nope.cfg")]) == 1

    @pytest.mark.parametrize("value", ["0.3", "nan", "abc"])
    def test_bad_best_trailer_is_a_usage_error(self, workdir, capsys, value):
        tmp, cfg = workdir
        main(["generate", "--config", str(cfg)])
        (tmp / "out" / "model.txt").write_text(save_model(init_model(hidden_dim=8, seed=0)))
        report = tmp / "out" / "gridsearch.csv"
        report.write_text(f"threshold,mean_primal_integral\nBEST t={value}\n")
        assert main(["evaluate", "--config", str(cfg)]) == 1  # a runtime failure exits 2
        assert f"gridsearch report {report} has a bad BEST trailer" in capsys.readouterr().err
        assert not (tmp / "out" / "eval.csv").exists()

    def test_collect_before_generate(self, workdir, capsys):
        _, cfg = workdir
        assert main(["collect", "--config", str(cfg)]) == 1
        assert "generate" in capsys.readouterr().err

    def test_runtime_error_is_exit_two(self, workdir):
        tmp, cfg = workdir
        main(["generate", "--config", str(cfg)])
        main(["collect", "--config", str(cfg)])
        pool = next((tmp / "out" / "pools").glob("train_*.sol"))
        pool.write_text("SOL not-a-number\n")
        assert main(["train", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize(
        "command", ["generate", "collect", "train", "gridsearch", "evaluate"]
    )
    def test_help_lists_flags(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--config", "--outdir", "--seed", "--jobs", "--threshold",
                     "--loss-mode", "--emphasis"):
            assert flag in out, flag


#: The command-line value given to a flag that takes one, by argparse ``type``.
SAMPLE_ARGUMENT = {int: "3", float: "0.75", None: "elsewhere"}


def subcommand_parsers(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


class TestOverrides:
    @pytest.mark.parametrize("command", subcommand_parsers(_build_parser()))
    def test_each_flag_sets_the_config_key_its_dest_names(self, command):
        """Every optional flag of the parser but --config and --help, given a value
        other than the default, sets the PipelineConfig field named by its dest."""
        defaults = PipelineConfig()
        parser = _build_parser()
        assert _config_from_args(parser.parse_args([command])) == defaults
        for action in subcommand_parsers(parser)[command]._actions:
            flag = action.option_strings[-1] if action.option_strings else None
            if flag in (None, "--config", "--help"):
                continue
            default = getattr(defaults, action.dest, None)
            if action.nargs == 0:
                argv, value = [flag], action.const
            elif action.choices:
                value = next(choice for choice in action.choices if choice != default)
                argv = [flag, value]
            else:
                argv = [flag, SAMPLE_ARGUMENT[action.type]]
                value = (action.type or str)(argv[1])
            config = _config_from_args(parser.parse_args([command, *argv]))
            assert getattr(config, action.dest) == value != default, flag

    def test_seed_override_changes_instances(self, workdir):
        tmp, cfg = workdir
        main(["generate", "--config", str(cfg)])
        first = read_tree(tmp / "out" / "instances")
        main(["generate", "--config", str(cfg), "--seed", "99"])
        assert read_tree(tmp / "out" / "instances") != first

    def test_outdir_override(self, workdir):
        tmp, cfg = workdir
        other = tmp / "elsewhere"
        assert main(["generate", "--config", str(cfg), "--outdir", str(other)]) == 0
        assert (other / "instances").exists()


class TestConfigText:
    @pytest.mark.parametrize(
        "settings, message",
        [(dict(family="Covering"), "unknown family 'Covering'"), (dict(seed=-1), "seed must be >= 0")],
    )
    def test_config_is_checked_when_built(self, settings, message):
        with pytest.raises(pipeline.UsageError, match=message):
            PipelineConfig(**settings)

    def test_every_field_round_trips(self, tmp_path):
        expected = PipelineConfig(
            family="knapsack", n_train=3, n_valid=4, n_test=5, n_vars=30, n_rows=9,
            n_items=11, n_dims=3, seed=7, collect_step_limit=70, collect_emphasis="off",
            pool_size=4, hidden_dim=6, lr=0.25, momentum=0.5, epochs=2, batch_size=3,
            loss_mode="fullbatch", temperature=0.75,
            grid=(0.6, 0.95), step_limit=80, emphasis="aggressive",
            threshold=0.85, svg=True, jobs=2, outdir=str(tmp_path / "o"),
        )
        values = {f.name: getattr(expected, f.name) for f in fields(PipelineConfig)}
        defaults = PipelineConfig()
        assert all(value != getattr(defaults, key) for key, value in values.items())
        text = "".join(
            f"{key}={','.join(map(str, value)) if key == 'grid' else value}\n"
            for key, value in values.items()
        )
        cfg = tmp_path / "all.cfg"
        cfg.write_text(text)
        assert load_config(cfg) == expected

    @pytest.mark.parametrize(
        "extra, args, message",
        [
            ("", ["--threshold", "0.3"], "threshold must lie in (0.5, 1.0], got 0.3"),
            ("grid=0.3,0.8\n", [], "threshold must lie in (0.5, 1.0], got 0.3"),
            ("grid=\n", [], "threshold grid is empty"),
        ],
    )
    def test_bad_thresholds_rejected_before_any_work(self, workdir, capsys, extra, args, message):
        tmp, cfg = workdir
        override(cfg, extra)
        assert main(["generate", "--config", str(cfg), *args]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp / "out").exists()

    @pytest.mark.parametrize(
        "extra, message",
        [
            ("step_limit=0\n", "step_limit must be >= 1"),
            ("collect_step_limit=0\n", "collect_step_limit must be >= 1"),
            ("pool_size=0\n", "pool_size must be >= 1"),
            ("epochs=0\n", "epochs must be >= 1"),
            ("batch_size=0\n", "batch_size and epochs must be >= 1"),
            ("lr=-1\n", "lr must be >= 0"),
            ("lr=nan\n", "lr must be >= 0 and finite, got nan"),
            ("lr=inf\n", "lr must be >= 0 and finite, got inf"),
            ("momentum=nan\n", "momentum must lie in [0, 1), got nan"),
            ("momentum=-0.5\n", "momentum must lie in [0, 1), got -0.5"),
            ("momentum=1\n", "momentum must lie in [0, 1), got 1.0"),
            ("hidden_dim=0\n", "hidden_dim must be >= 1"),
            ("temperature=0\n", "temperature must be > 0"),
            ("temperature=-1\n", "temperature must be > 0"),
            ("collect_emphasis=loud\n", "collect_emphasis must be 'off' or 'aggressive', got 'loud'"),
            ("loss_mode=sum\n", "unknown loss_mode 'sum'"),
            ("emphasis=loud\n", "emphasis must be 'off' or 'aggressive', got 'loud'"),
            ("seed=-1\n", "seed must be >= 0"),
        ],
    )
    def test_bad_stage_settings_rejected_before_any_work(self, workdir, capsys, extra, message):
        tmp, cfg = workdir
        override(cfg, extra)
        assert main(["generate", "--config", str(cfg)]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp / "out").exists()

    @pytest.mark.parametrize(
        "extra, message",
        [
            ("n_vars=1\n", "need n_vars >= n_rows >= 1, got n_vars=1 and n_rows=7"),
            ("n_vars=0\n", "need n_vars >= n_rows >= 1, got n_vars=0 and n_rows=7"),
            ("n_rows=0\n", "need n_vars >= n_rows >= 1, got n_vars=12 and n_rows=0"),
            ("family=knapsack\nn_items=0\n", "n_items and n_dims must be >= 1, got 0 and 2"),
            ("family=knapsack\nn_dims=0\n", "n_items and n_dims must be >= 1, got 12 and 0"),
        ],
    )
    def test_bad_instance_sizes_rejected_before_any_work(self, workdir, capsys, extra, message):
        tmp, cfg = workdir
        override(cfg, extra)
        assert main(["generate", "--config", str(cfg)]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp / "out").exists()

    def test_sizes_of_the_other_family_are_not_checked(self, workdir):
        tmp, cfg = workdir
        override(cfg, "family=knapsack\nn_vars=0\nn_rows=0\n")
        assert main(["generate", "--config", str(cfg)]) == 0

    def test_hash_inside_a_value_is_kept(self):
        values = parse_config_text("outdir=/tmp/run#2\n# a comment line\n  # indented\n")
        assert values == {"outdir": "/tmp/run#2"}

    def test_trailing_comment_is_dropped(self):
        values = parse_config_text("outdir=/tmp/run # the second run\nseed=3\t# tab before\n")
        assert values == {"outdir": "/tmp/run", "seed": 3}

    def test_repeated_key_rejected(self):
        with pytest.raises(pipeline.UsageError, match="config line 2: repeated key 'seed'"):
            parse_config_text("seed=1\nseed=2\n")
