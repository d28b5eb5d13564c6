"""End-to-end pipeline stages behind the CLI: generate, collect, train, gridsearch, evaluate.

Configuration is a flat key=value file; every stage is a deterministic
function of it. All randomness flows from the explicit seed, file writes are
atomic (write-temp-then-rename), and instance-level work can fan out over a
process pool without changing any output byte.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Iterable

from . import bnb
from .bnb import IncumbentTrajectory, InfeasibleSubproblem, SolverConfig
from .diving import DEFAULT_GRID, dive_and_solve, grid_search, report_to_csv
from .encoder import encode
from .evaluation import (
    EvalConfig,
    compare,
    plot_primal_bound,
    rows_to_csv,
    summary_to_csv,
    worst_case_objective,
)
from .gcnn import (
    GcnnModel,
    GraphTargets,
    TargetSolution,
    TrainConfig,
    compute_solution_weights,
    init_model,
    load_model,
    save_model,
    train,
)
from .instances import (
    ORACLE_MAX_VARS,
    MilpInstance,
    brute_force_solve,
    generate_covering,
    generate_knapsack,
    parse_instance,
    serialize_instance,
)

SPLITS = ("train", "valid", "test")
_SPLIT_SEED_OFFSET = {"train": 0, "valid": 500_000, "test": 750_000}


class UsageError(ValueError):
    """Bad configuration or arguments; maps to exit code 1."""


@dataclass(frozen=True)
class PipelineConfig:
    # dataset
    family: str = "covering"
    n_train: int = 100
    n_valid: int = 30
    n_test: int = 30
    n_vars: int = 25
    n_rows: int = 10
    n_items: int = 12
    n_dims: int = 2
    seed: int = 0
    # solution collection
    collect_step_limit: int = 150
    collect_emphasis: str = "aggressive"
    pool_size: int = 8
    # training
    hidden_dim: int = 16
    lr: float = 0.1
    momentum: float = 0.9
    epochs: int = 40
    batch_size: int = 8
    loss_mode: str = "minibatch"
    temperature: float = 1.0
    uniform_weights: bool = False
    include_root_lp: bool = True
    # diving / evaluation
    grid: tuple[float, ...] = DEFAULT_GRID
    step_limit: int = 150
    emphasis: str = "off"
    threshold: float | None = None
    svg: bool = False
    jobs: int = 1
    outdir: str = "out"

    def validate(self) -> "PipelineConfig":
        if self.family not in ("covering", "knapsack"):
            raise UsageError(f"unknown family {self.family!r}")
        if min(self.n_train, self.n_valid, self.n_test) < 0:
            raise UsageError("split sizes must be nonnegative")
        if self.n_train + self.n_valid + self.n_test == 0:
            raise UsageError("empty dataset: all split sizes are zero")
        if self.jobs < 1:
            raise UsageError("jobs must be >= 1")
        if self.loss_mode not in ("minibatch", "fullbatch"):
            raise UsageError(f"unknown loss_mode {self.loss_mode!r}")
        if self.emphasis not in ("off", "aggressive") or self.collect_emphasis not in (
            "off",
            "aggressive",
        ):
            raise UsageError("emphasis must be 'off' or 'aggressive'")
        return self

    @property
    def out(self) -> Path:
        return Path(self.outdir)


_BOOL_KEYS = {"uniform_weights", "include_root_lp", "svg"}
_INT_KEYS = {
    "n_train", "n_valid", "n_test", "n_vars", "n_rows", "n_items", "n_dims",
    "seed", "collect_step_limit", "pool_size", "hidden_dim", "epochs",
    "batch_size", "step_limit", "jobs",
}
_FLOAT_KEYS = {"lr", "momentum", "temperature", "threshold"}
_STR_KEYS = {"family", "collect_emphasis", "loss_mode", "emphasis", "outdir"}


def _coerce(key: str, value: str):
    try:
        if key in _BOOL_KEYS:
            if value.lower() not in ("true", "false"):
                raise ValueError
            return value.lower() == "true"
        if key in _INT_KEYS:
            return int(value)
        if key in _FLOAT_KEYS:
            return float(value)
        if key == "grid":
            return tuple(float(tok) for tok in value.split(",") if tok.strip())
        if key in _STR_KEYS:
            return value
    except ValueError:
        raise UsageError(f"bad value {value!r} for config key {key!r}") from None
    raise UsageError(f"unknown config key {key!r}")


def parse_config_text(text: str) -> dict:
    values: dict = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise UsageError(f"config line {line_no}: expected key=value, got {raw!r}")
        key = key.strip()
        value = value.strip()
        values[key] = _coerce(key, value)
    return values


def load_config(path: str | Path | None, overrides: dict | None = None) -> PipelineConfig:
    values: dict = {}
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise UsageError(f"config file {p} does not exist")
        values.update(parse_config_text(p.read_text()))
    for key, value in (overrides or {}).items():
        if value is not None:
            values[key] = value
    known = {f.name for f in fields(PipelineConfig)}
    unknown = set(values) - known
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    return PipelineConfig(**values).validate()


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _pmap(fn: Callable, items: Iterable, jobs: int) -> list:
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def _make_instance(config: PipelineConfig, split: str, index: int) -> MilpInstance:
    seed = config.seed * 1_000_000 + _SPLIT_SEED_OFFSET[split] + index
    if config.family == "covering":
        return generate_covering(seed, config.n_vars, config.n_rows)
    return generate_knapsack(seed, config.n_items, config.n_dims)


def _split_count(config: PipelineConfig, split: str) -> int:
    return {"train": config.n_train, "valid": config.n_valid, "test": config.n_test}[split]


def instance_paths(config: PipelineConfig, split: str) -> list[Path]:
    base = config.out / "instances" / split
    return [base / f"{split}_{i:04d}.milp" for i in range(_split_count(config, split))]


def load_split(config: PipelineConfig, split: str) -> list[MilpInstance]:
    paths = instance_paths(config, split)
    missing = [p for p in paths if not p.exists()]
    if missing:
        raise UsageError(
            f"missing {len(missing)} instance file(s) under {config.out / 'instances' / split}; "
            "run `generate` first"
        )
    return [parse_instance(p.read_text()) for p in paths]


def run_generate(config: PipelineConfig) -> list[Path]:
    written = []
    for split in SPLITS:
        for i, path in enumerate(instance_paths(config, split)):
            _atomic_write(path, serialize_instance(_make_instance(config, split, i)))
            written.append(path)
    return written


# ---------------------------------------------------------------------------
# collect
# ---------------------------------------------------------------------------


def _collect_one(args: tuple[MilpInstance, SolverConfig]) -> tuple[str, str | None, str]:
    instance, solver_config = args
    try:
        _, pool = bnb.solve(instance, {}, solver_config)
    except InfeasibleSubproblem:
        return instance.name, None, "infeasible"
    if not pool.entries:
        return instance.name, None, "empty_pool"
    return instance.name, bnb.serialize_pool(pool, instance), "ok"


def collect_solver_config(config: PipelineConfig) -> SolverConfig:
    return SolverConfig(
        step_limit=config.collect_step_limit,
        heuristic_emphasis=config.collect_emphasis,
        collect_pool=True,
        pool_size=config.pool_size,
    )


def run_collect(config: PipelineConfig) -> list[str]:
    """Write one pool file per train instance plus a skip manifest; returns skips."""
    instances = load_split(config, "train")
    solver_config = collect_solver_config(config)
    results = _pmap(_collect_one, [(inst, solver_config) for inst in instances], config.jobs)
    pool_dir = config.out / "pools"
    skipped: list[str] = []
    for path, (name, text, reason) in zip(instance_paths(config, "train"), results):
        if text is None:
            skipped.append(f"{name} {reason}")
        else:
            _atomic_write(pool_dir / (path.stem + ".sol"), text)
    _atomic_write(pool_dir / "skipped.txt", "".join(line + "\n" for line in skipped))
    return skipped


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def build_dataset(config: PipelineConfig) -> list[GraphTargets]:
    instances = load_split(config, "train")
    pool_dir = config.out / "pools"
    if not pool_dir.exists():
        raise UsageError(f"pool directory {pool_dir} does not exist; run `collect` first")
    dataset: list[GraphTargets] = []
    for path, instance in zip(instance_paths(config, "train"), instances):
        pool_path = pool_dir / (path.stem + ".sol")
        if not pool_path.exists():
            continue  # listed in the skip manifest
        pool = bnb.parse_pool(pool_path.read_text(), instance)
        if not pool.entries:
            continue
        graph = encode(instance, include_root_lp=config.include_root_lp)
        weights = compute_solution_weights(
            pool, temperature=config.temperature, uniform=config.uniform_weights
        )
        mask = graph.binary_mask
        solutions = [
            TargetSolution(entry.values[mask].copy(), float(w))
            for entry, w in zip(pool.entries, weights)
        ]
        dataset.append(GraphTargets(graph, solutions))
    if not dataset:
        raise UsageError("no usable solution pools; nothing to train on")
    return dataset


def run_train(config: PipelineConfig) -> tuple[GcnnModel, list[float]]:
    dataset = build_dataset(config)
    model = init_model(hidden_dim=config.hidden_dim, seed=config.seed)
    train_config = TrainConfig(
        lr=config.lr,
        momentum=config.momentum,
        epochs=config.epochs,
        batch_size=config.batch_size,
        seed=config.seed,
        loss_mode=config.loss_mode,
    )
    model, curve = train(model, dataset, train_config)
    _atomic_write(config.out / "model.txt", save_model(model))
    lines = ["epoch,mean_loss"]
    lines += [f"{i},{repr(loss)}" for i, loss in enumerate(curve)]
    _atomic_write(config.out / "loss_curve.csv", "\n".join(lines) + "\n")
    return model, curve


def load_trained_model(config: PipelineConfig) -> GcnnModel:
    path = config.out / "model.txt"
    if not path.exists():
        raise UsageError(f"model file {path} does not exist; run `train` first")
    return load_model(path.read_text())


# ---------------------------------------------------------------------------
# gridsearch
# ---------------------------------------------------------------------------


def eval_solver_config(config: PipelineConfig) -> SolverConfig:
    return SolverConfig(
        step_limit=config.step_limit,
        heuristic_emphasis=config.emphasis,
        collect_pool=False,
    )


def run_gridsearch(config: PipelineConfig):
    instances = load_split(config, "valid")
    if not instances:
        raise UsageError("validation split is empty")
    model = load_trained_model(config)
    map_fn = map
    pool = None
    if config.jobs > 1:
        pool = ProcessPoolExecutor(max_workers=config.jobs)
        map_fn = pool.map
    try:
        report = grid_search(
            instances, model, config.grid, eval_solver_config(config), map_fn=map_fn
        )
    finally:
        if pool is not None:
            pool.shutdown()
    _atomic_write(config.out / "gridsearch.csv", report_to_csv(report))
    return report


def read_best_threshold(config: PipelineConfig) -> float:
    path = config.out / "gridsearch.csv"
    if not path.exists():
        raise UsageError(
            f"no gridsearch report at {path}; run `gridsearch` or pass --threshold"
        )
    for line in path.read_text().splitlines():
        if line.startswith("BEST t="):
            return float(line.split("=", 1)[1])
    raise UsageError(f"gridsearch report {path} has no BEST trailer")


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def _evaluate_one(
    args: tuple[MilpInstance, GcnnModel, float, SolverConfig],
) -> tuple[IncumbentTrajectory, IncumbentTrajectory, bool]:
    instance, model, threshold, solver_config = args
    plain_traj, _ = bnb.solve(instance, {}, solver_config)
    dive_traj, outcome = dive_and_solve(instance, model, threshold, solver_config)
    return plain_traj, dive_traj, outcome.fell_back


def run_evaluate(config: PipelineConfig):
    instances = load_split(config, "test")
    if not instances:
        raise UsageError("test split is empty")
    model = load_trained_model(config)
    threshold = config.threshold if config.threshold is not None else read_best_threshold(config)
    solver_config = eval_solver_config(config)

    runs = _pmap(
        _evaluate_one,
        [(inst, model, threshold, solver_config) for inst in instances],
        config.jobs,
    )
    plain_by_name = {inst.name: r[0] for inst, r in zip(instances, runs)}
    dive_by_name = {inst.name: r[1] for inst, r in zip(instances, runs)}

    cfgs = []
    for instance, (plain_traj, dive_traj, _) in zip(instances, runs):
        no_inc = worst_case_objective(instance)
        if instance.n <= ORACLE_MAX_VARS and bool(instance.binary_mask().all()):
            ref = brute_force_solve(instance).objective
        else:
            finals = [
                obj
                for obj in (plain_traj.final_objective(), dive_traj.final_objective())
                if obj is not None
            ]
            ref = min(finals) if finals else no_inc
        cfgs.append(EvalConfig(config.step_limit, ref, max(no_inc, ref)))

    dive_label = f"diving@t={threshold:g}"
    methods = [
        ("plain", lambda inst: plain_by_name[inst.name]),
        (dive_label, lambda inst: dive_by_name[inst.name]),
    ]
    rows, summary = compare(instances, methods, cfgs)
    _atomic_write(config.out / "eval.csv", rows_to_csv(rows))
    _atomic_write(config.out / "summary.csv", summary_to_csv(summary))
    if config.svg:
        for instance, cfg in zip(instances, cfgs):
            svg = plot_primal_bound(
                [("plain", plain_by_name[instance.name]), (dive_label, dive_by_name[instance.name])],
                cfg,
            )
            _atomic_write(config.out / "plots" / f"{instance.name}.svg", svg)
    return rows, summary
