"""The pipeline's file memo: stages in one process share what an earlier stage
wrote or read, and still write the bytes of stages run in separate processes."""

import dataclasses
import hashlib
from pathlib import Path

import numpy as np
import pytest

from confdive import bnb, pipeline, simplex
from confdive.gcnn import load_model, save_model
from confdive.instances import generate_covering, generate_knapsack, parse_instance, serialize_instance
from confdive.pipeline import (
    PipelineConfig,
    instance_paths,
    load_trained_model,
    pool_paths,
    run_collect,
    run_evaluate,
    run_generate,
    run_gridsearch,
    run_train,
)

SMALL = dict(
    family="covering",
    n_train=4,
    n_valid=2,
    n_test=3,
    n_vars=16,
    n_rows=10,
    seed=4,
    collect_step_limit=40,
    step_limit=40,
    emphasis="aggressive",
    pool_size=3,
    hidden_dim=8,
    epochs=3,
    lr=0.2,
    grid=(0.7, 0.9),
    svg=True,
)
STAGES = (run_generate, run_collect, run_train, run_gridsearch, run_evaluate)


def small_config(outdir: Path, **overrides) -> PipelineConfig:
    return PipelineConfig(outdir=str(outdir), **{**SMALL, **overrides})


def digests(outdir: Path) -> dict[str, str]:
    return {
        str(p.relative_to(outdir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(outdir.rglob("*"))
        if p.is_file()
    }


def counted(monkeypatch, module, name) -> list:
    """Replace ``module.name`` with a wrapper that appends each call's first argument."""
    calls = []
    inner = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args[0])
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_shared_files_write_the_bytes_of_one_stage_per_process(tmp_path):
    shared = small_config(tmp_path / "shared")
    for stage in STAGES:
        stage(shared)
    separate = small_config(tmp_path / "separate")
    for stage in STAGES:
        pipeline._memo.entries.clear()  # as a fresh CLI process sees it
        stage(separate)
    assert len(digests(tmp_path / "shared")) > 15
    assert digests(tmp_path / "shared") == digests(tmp_path / "separate")


def test_each_file_is_parsed_and_each_root_lp_solved_once_per_process(tmp_path, monkeypatch):
    config = small_config(tmp_path / "out")
    cold_solves = counted(monkeypatch, simplex, "solve_lp")
    run_generate(config)
    parses = counted(monkeypatch, pipeline, "parse_instance")
    run_collect(config)
    run_train(config)
    model_loads = counted(monkeypatch, pipeline, "load_model")
    run_gridsearch(config)
    run_evaluate(config)

    names = [inst.name for inst in cold_solves]
    assert len(names) == config.n_train + config.n_valid + config.n_test
    assert len(set(names)) == len(names)
    assert parses == []
    assert model_loads == []


def test_generate_records_what_its_text_parses_to(tmp_path):
    config = small_config(tmp_path / "out", family="knapsack", n_items=12, n_dims=3)
    run_generate(config)
    paths = [p for split in pipeline.SPLITS for p in instance_paths(config, split)]
    assert sorted(pipeline._memo.entries) == sorted(paths)
    for path in paths:
        text, against, instance = pipeline._memo.entries[path]
        assert text == path.read_text() and against is None
        assert repr(instance) == repr(parse_instance(text))


@pytest.mark.parametrize(
    "generate",
    [
        lambda seed: generate_covering(seed, 40, 32),
        lambda seed: generate_covering(seed, 120, 80),
        lambda seed: generate_knapsack(seed, 40, 5),
    ],
    ids=["covering-40x32", "covering-120x80", "knapsack-40x5"],
)
def test_generated_instances_equal_their_parsed_text(generate):
    for seed in range(12):
        instance = generate(seed)
        assert repr(instance) == repr(parse_instance(serialize_instance(instance)))


def test_a_rewritten_instance_file_is_parsed_again(tmp_path, monkeypatch):
    config = small_config(tmp_path / "out")
    run_generate(config)
    run_collect(config)
    path = instance_paths(config, "train")[1]
    before = pipeline.load_split(config, "train")[1]
    path.write_text("# rewritten after collect\n" + path.read_text())
    parses = counted(monkeypatch, pipeline, "parse_instance")
    run_train(config)
    assert parses == [path.read_text()]
    after = pipeline.load_split(config, "train")[1]
    assert after is not before and repr(after) == repr(before)


def test_a_loaded_model_is_the_callers_own(tmp_path):
    config = small_config(tmp_path / "out")
    run_generate(config)
    run_collect(config)
    trained, _ = run_train(config)
    text = (tmp_path / "out" / "model.txt").read_text()
    trained.head.w += 1.0
    first = load_trained_model(config)
    assert save_model(first) == text
    first.head.w += 1.0
    first.var_embed.b[:] = 0.0
    assert save_model(load_trained_model(config)) == text
    assert np.array_equal(load_trained_model(config).head.w, load_model(text).head.w)


def test_a_model_file_rewritten_after_train_is_loaded_again(tmp_path, monkeypatch):
    config = small_config(tmp_path / "out")
    for stage in STAGES[:3]:
        stage(config)
    path = tmp_path / "out" / "model.txt"
    other = load_model(path.read_text())
    other.head.b[:] = 0.5
    path.write_text(save_model(other))
    loads = counted(monkeypatch, pipeline, "load_model")
    assert save_model(load_trained_model(config)) == save_model(other)
    assert len(loads) == 1


def test_a_rerun_over_a_process_pool_writes_the_same_pools(tmp_path):
    config = small_config(tmp_path / "out")
    run_generate(config)
    run_collect(config)
    first = digests(tmp_path / "out")
    # the shared instances now carry their root LP into the pool's workers
    assert all("root_lp" in vars(inst) for inst in pipeline.load_split(config, "train"))
    run_collect(dataclasses.replace(config, jobs=2))
    assert digests(tmp_path / "out") == first


def test_the_memo_holds_only_the_last_outdirs_files(tmp_path):
    first = small_config(tmp_path / "first")
    for stage in STAGES[:3]:
        stage(first)
    assert pipeline._memo.entries
    second = small_config(tmp_path / "second", n_train=2, n_valid=1, n_test=1)
    run_generate(second)
    assert pipeline._memo.outdir == second.out
    assert len(pipeline._memo.entries) == 4
    assert all(second.out in path.parents for path in pipeline._memo.entries)


@pytest.mark.parametrize(
    "overrides",
    [{}, dict(family="knapsack", n_items=12, n_dims=3), dict(jobs=2)],
    ids=["covering", "knapsack", "covering-jobs2"],
)
def test_collect_records_what_each_pool_text_parses_to(tmp_path, overrides):
    config = small_config(tmp_path / "out", **overrides)
    run_generate(config)
    run_collect(config)
    instances = pipeline.load_split(config, "train")
    assert any(path.exists() for path in pool_paths(config))
    for path, instance in zip(pool_paths(config), instances):
        if not path.exists():
            continue
        text, against, pool = pipeline._memo.entries[path]
        assert text == path.read_text() and against is instance
        parsed = bnb.parse_pool(text, instance)
        assert repr(pool) == repr(parsed)
        assert [e.values.tobytes() for e in pool.entries] == [e.values.tobytes() for e in parsed.entries]


def test_train_parses_no_pool_that_collect_wrote(tmp_path, monkeypatch):
    config = small_config(tmp_path / "out")
    run_generate(config)
    run_collect(config)
    parses = counted(monkeypatch, bnb, "parse_pool")
    run_train(config)
    assert parses == []


def test_a_rewritten_pool_file_is_parsed_again(tmp_path, monkeypatch):
    config = small_config(tmp_path / "out")
    run_generate(config)
    run_collect(config)
    path = pool_paths(config)[2]
    recorded = pipeline._memo.entries[path][2]
    path.write_text("# rewritten after collect\n" + path.read_text())
    parses = counted(monkeypatch, bnb, "parse_pool")
    pipeline.build_dataset(config)
    assert parses == [path.read_text()]
    reparsed = pipeline._memo.entries[path][2]
    assert reparsed is not recorded and repr(reparsed) == repr(recorded)


def test_a_pool_is_parsed_again_against_a_rewritten_instance(tmp_path, monkeypatch):
    config = small_config(tmp_path / "out")
    run_generate(config)
    run_collect(config)
    path = instance_paths(config, "train")[0]
    path.write_text("# rewritten after collect\n" + path.read_text())
    parses = counted(monkeypatch, bnb, "parse_pool")
    pipeline.build_dataset(config)
    assert parses == [pool_paths(config)[0].read_text()]
    assert pipeline._memo.entries[pool_paths(config)[0]][1] is pipeline.load_split(config, "train")[0]
