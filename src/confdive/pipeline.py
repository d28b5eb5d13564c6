"""End-to-end pipeline stages behind the CLI: generate, collect, train, gridsearch, evaluate.

Configuration is a flat key=value file; every stage is a deterministic
function of it. All randomness flows from the explicit seed, file writes are
atomic (write-temp-then-rename), and instance-level work can fan out over a
process pool without changing any output byte.

Stages hand each other files. When several stages run in one process, a
stage reuses the instances, pools and model that an earlier stage wrote or
read, as long as the file's text is unchanged (and a pool's instance is the
one it was parsed against): every read still reads the file and skips only
the parse. Shared instances keep their cached ``root_lp``, so an instance's
cold root LP is solved once per process, not once per stage. The memo holds
the files of one outdir; a stage under another outdir empties it. The CLI
runs one stage per process and is unaffected.
"""

from __future__ import annotations

import os
import re
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from . import bnb
from .bnb import IncumbentTrajectory, InfeasibleSubproblem, SolutionPool, SolverConfig
from .diving import (
    DEFAULT_GRID,
    check_threshold,
    dive_and_solve,
    grid_search,
    report_to_csv,
)
from .encoder import encode
from .evaluation import compare, eval_configs, plot_primal_bound, rows_to_csv, summary_to_csv
from .gcnn import (
    GcnnModel,
    GraphTargets,
    TrainConfig,
    init_model,
    load_model,
    pool_targets,
    save_model,
    train,
)
from .instances import (
    MilpInstance,
    check_covering_sizes,
    check_knapsack_sizes,
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
    # diving / evaluation
    grid: tuple[float, ...] = DEFAULT_GRID
    step_limit: int = 150
    emphasis: str = "off"
    threshold: float | None = None
    svg: bool = False
    jobs: int = 1
    outdir: str = "out"

    def __post_init__(self):
        self.validate()

    def validate(self) -> "PipelineConfig":
        """Raise :class:`UsageError` on a bad setting; building a config already calls this."""
        if self.family not in ("covering", "knapsack"):
            raise UsageError(f"unknown family {self.family!r}")
        if min(self.n_train, self.n_valid, self.n_test) < 0:
            raise UsageError("split sizes must be nonnegative")
        if self.n_train + self.n_valid + self.n_test == 0:
            raise UsageError("empty dataset: all split sizes are zero")
        if self.seed < 0:
            raise UsageError("seed must be >= 0")
        if self.jobs < 1:
            raise UsageError("jobs must be >= 1")
        if self.hidden_dim < 1:
            raise UsageError("hidden_dim must be >= 1")
        if not self.temperature > 0:
            raise UsageError(f"temperature must be > 0, got {self.temperature}")
        if not self.grid:
            raise UsageError("threshold grid is empty")
        try:
            if self.family == "covering":
                check_covering_sizes(self.n_vars, self.n_rows)
            else:
                check_knapsack_sizes(self.n_items, self.n_dims)
            collect_solver_config(self)
            eval_solver_config(self)
            train_config(self)
            for t in self.grid:
                check_threshold(t)
            if self.threshold is not None:
                check_threshold(self.threshold)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        return self

    @property
    def out(self) -> Path:
        return Path(self.outdir)


def _parse_bool(value: str) -> bool:
    if value.lower() not in ("true", "false"):
        raise ValueError
    return value.lower() == "true"


def _parse_floats(value: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in value.split(",") if tok.strip())


#: Config-text parser per PipelineConfig annotation (a string under PEP 563).
_PARSE_BY_TYPE = {
    "bool": _parse_bool,
    "int": int,
    "float": float,
    "float | None": float,
    "str": str,
    "tuple[float, ...]": _parse_floats,
}
_PARSERS = {f.name: _PARSE_BY_TYPE[f.type] for f in fields(PipelineConfig)}


def _coerce(key: str, value: str):
    if key not in _PARSERS:
        raise UsageError(f"unknown config key {key!r}")
    try:
        return _PARSERS[key](value)
    except ValueError:
        raise UsageError(f"bad value {value!r} for config key {key!r}") from None


#: A comment starts with ``#`` at the start of a line or after whitespace.
_COMMENT = re.compile(r"(^|\s)#.*")


def parse_config_text(text: str) -> dict:
    values: dict = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.sub("", raw).strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise UsageError(f"config line {line_no}: expected key=value, got {raw!r}")
        key = key.strip()
        if key in values:
            raise UsageError(f"config line {line_no}: repeated key {key!r}")
        values[key] = _coerce(key, value.strip())
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
    return PipelineConfig(**values)


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


class _FileMemo:
    """Path -> (the text last read or written there, what it was parsed against,
    its parsed value), for the files of one outdir.

    ``read`` always reads the file and parses it unless the text is the one
    recorded and it is parsed against the same object (a pool file against
    its instance; nothing for an instance or a model file). Values are shared
    between readers, so only immutable values or values that readers copy
    belong here. Entering another outdir empties it.
    """

    def __init__(self) -> None:
        self.outdir: Path | None = None
        self.entries: dict[Path, tuple[str, Any, Any]] = {}

    def _enter(self, config: PipelineConfig) -> None:
        if config.out != self.outdir:
            self.entries.clear()
            self.outdir = config.out

    def record(self, config: PipelineConfig, path: Path, text: str, value: Any,
               against: Any = None) -> None:
        self._enter(config)
        self.entries[path] = (text, against, value)

    def read(self, config: PipelineConfig, path: Path, parse: Callable[[str], Any],
             against: Any = None) -> Any:
        self._enter(config)
        text = path.read_text()
        entry = self.entries.get(path)
        if entry is None or entry[0] != text or entry[1] is not against:
            entry = self.entries[path] = (text, against, parse(text))
        return entry[2]


_memo = _FileMemo()


@contextmanager
def _mapper(jobs: int) -> Iterator[Callable]:
    """``map``, or the map of a pool of ``jobs`` processes when ``jobs`` > 1."""
    if jobs <= 1:
        yield map
    else:  # the pool's modules load only here, so a serial run never imports them
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            yield pool.map


def _pmap(fn: Callable, items: Iterable, jobs: int) -> list:
    items = list(items)
    with _mapper(min(jobs, len(items))) as map_fn:
        return list(map_fn(fn, items))


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


def pool_paths(config: PipelineConfig) -> list[Path]:
    """The pool file of each train instance, in ``instance_paths`` order."""
    return [config.out / "pools" / (path.stem + ".sol") for path in instance_paths(config, "train")]


def load_split(config: PipelineConfig, split: str) -> list[MilpInstance]:
    paths = instance_paths(config, split)
    missing = [p for p in paths if not p.exists()]
    if missing:
        raise UsageError(
            f"missing {len(missing)} instance file(s) under {config.out / 'instances' / split}; "
            "run `generate` first"
        )
    return [_memo.read(config, p, parse_instance) for p in paths]


def run_generate(config: PipelineConfig) -> list[Path]:
    written = []
    for split in SPLITS:
        for i, path in enumerate(instance_paths(config, split)):
            instance = _make_instance(config, split, i)
            text = serialize_instance(instance)
            _atomic_write(path, text)
            _memo.record(config, path, text, instance)
            written.append(path)
    return written


# ---------------------------------------------------------------------------
# collect
# ---------------------------------------------------------------------------


def _collect_one(
    args: tuple[MilpInstance, SolverConfig],
) -> tuple[str, tuple[str, SolutionPool] | None, str]:
    """An instance's name, its pool file's text with the pool, or None, and why."""
    instance, solver_config = args
    try:
        _, pool = bnb.solve(instance, {}, solver_config)
    except InfeasibleSubproblem:
        return instance.name, None, "infeasible"
    if not pool.entries:
        return instance.name, None, "empty_pool"
    return instance.name, (bnb.serialize_pool(pool, instance), pool), "ok"


def _solver_config(config: PipelineConfig, keys: dict[str, str], **fixed) -> SolverConfig:
    """SolverConfig with each field of ``keys`` read from the config key it maps to.

    SolverConfig's messages start with the rejected field; it is renamed to its config key.
    """
    try:
        return SolverConfig(**{field: getattr(config, key) for field, key in keys.items()}, **fixed)
    except ValueError as exc:
        field, _, rest = str(exc).partition(" ")
        raise ValueError(f"{keys.get(field, field)} {rest}") from None


def collect_solver_config(config: PipelineConfig) -> SolverConfig:
    keys = {
        "step_limit": "collect_step_limit",
        "heuristic_emphasis": "collect_emphasis",
        "pool_size": "pool_size",
    }
    return _solver_config(config, keys, collect_pool=True)


def run_collect(config: PipelineConfig) -> list[str]:
    """Write one pool file per train instance plus a skip manifest; returns skips.

    A skipped instance's pool file from an earlier run is deleted, so that
    ``train`` reads only pools that this run collected. Each pool is recorded
    with its text: ``bnb.solve`` and ``bnb.parse_pool`` sort by one key,
    and its floats are written as ``repr``, so it is what the text parses to.
    """
    instances = load_split(config, "train")
    solver_config = collect_solver_config(config)
    results = _pmap(_collect_one, [(inst, solver_config) for inst in instances], config.jobs)
    skipped: list[str] = []
    for pool_path, instance, (name, written, reason) in zip(pool_paths(config), instances, results):
        if written is None:
            skipped.append(f"{name} {reason}")
            pool_path.unlink(missing_ok=True)
        else:
            text, pool = written
            _atomic_write(pool_path, text)
            _memo.record(config, pool_path, text, pool, against=instance)
    _atomic_write(config.out / "pools" / "skipped.txt", "".join(line + "\n" for line in skipped))
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
    for pool_path, instance in zip(pool_paths(config), instances):
        if not pool_path.exists():
            continue  # listed in the skip manifest
        pool = _memo.read(config, pool_path, lambda text: bnb.parse_pool(text, instance), instance)
        if pool.entries:
            dataset.append(pool_targets(encode(instance), pool, config.temperature))
    if not dataset:
        raise UsageError("no usable solution pools; nothing to train on")
    return dataset


def train_config(config: PipelineConfig) -> TrainConfig:
    return TrainConfig(
        lr=config.lr,
        momentum=config.momentum,
        epochs=config.epochs,
        batch_size=config.batch_size,
        seed=config.seed,
        loss_mode=config.loss_mode,
    )


def run_train(config: PipelineConfig) -> tuple[GcnnModel, list[float]]:
    dataset = build_dataset(config)
    model = init_model(hidden_dim=config.hidden_dim, seed=config.seed)
    model, curve = train(model, dataset, train_config(config))
    model_text = save_model(model)
    _atomic_write(config.out / "model.txt", model_text)
    _memo.record(config, config.out / "model.txt", model_text, model.copy())
    lines = ["epoch,mean_loss"]
    lines += [f"{i},{repr(loss)}" for i, loss in enumerate(curve)]
    _atomic_write(config.out / "loss_curve.csv", "\n".join(lines) + "\n")
    return model, curve


def load_trained_model(config: PipelineConfig) -> GcnnModel:
    path = config.out / "model.txt"
    if not path.exists():
        raise UsageError(f"model file {path} does not exist; run `train` first")
    return _memo.read(config, path, load_model).copy()


# ---------------------------------------------------------------------------
# gridsearch
# ---------------------------------------------------------------------------


def eval_solver_config(config: PipelineConfig) -> SolverConfig:
    keys = {"step_limit": "step_limit", "heuristic_emphasis": "emphasis"}
    return _solver_config(config, keys, collect_pool=False)


def run_gridsearch(config: PipelineConfig):
    instances = load_split(config, "valid")
    if not instances:
        raise UsageError("validation split is empty")
    model = load_trained_model(config)
    with _mapper(min(config.jobs, len(instances))) as map_fn:
        report = grid_search(instances, model, config.grid, eval_solver_config(config), map_fn=map_fn)
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
            try:
                return check_threshold(line.split("=", 1)[1])
            except ValueError as exc:
                raise UsageError(f"gridsearch report {path} has a bad BEST trailer: {exc}") from None
    raise UsageError(f"gridsearch report {path} has no BEST trailer")


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def _evaluate_one(
    args: tuple[MilpInstance, GcnnModel, float, SolverConfig],
) -> tuple[IncumbentTrajectory, IncumbentTrajectory, tuple[bool, float]]:
    instance, model, threshold, solver_config = args
    plain_traj, _ = bnb.solve(instance, {}, solver_config)
    dive_traj, outcome = dive_and_solve(instance, model, threshold, solver_config)
    return plain_traj, dive_traj, (outcome.fell_back, outcome.partial.coverage)


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
    plain, dive, dive_facts = zip(*runs)
    cfgs = eval_configs(instances, list(zip(plain, dive)), config.step_limit)
    methods = [("plain", plain), (f"diving@t={threshold:g}", dive)]
    rows, summary = compare(instances, methods, cfgs)
    for row, (fell_back, coverage) in zip(rows[1::2], dive_facts):  # each instance's diving row
        row.fell_back, row.coverage = fell_back, coverage
    _atomic_write(config.out / "eval.csv", rows_to_csv(rows))
    _atomic_write(config.out / "summary.csv", summary_to_csv(summary))
    if config.svg:
        for i, (instance, cfg) in enumerate(zip(instances, cfgs)):
            svg = plot_primal_bound([(label, trajs[i]) for label, trajs in methods], cfg)
            _atomic_write(config.out / "plots" / f"{instance.name}.svg", svg)
    return rows, summary
