"""Symmetric confidence-threshold fixing, the fix/solve/fallback pipeline, and grid search.

A threshold t in (0.5, 1] fixes a binary variable to 1 when its predicted
probability is >= t and to 0 when it is <= 1 - t; everything else stays free.
The fixed subproblem goes to branch and bound; if it proves infeasible, the
variables are unfixed and the solver reruns with the same full step budget.
Grid search scores each threshold by mean primal integral over a validation
set and keeps the best (ties to the larger threshold).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import bnb
from .bnb import IncumbentTrajectory, InfeasibleSubproblem, SolverConfig
from .encoder import encode
from .evaluation import eval_configs, primal_integral
from .gcnn import GcnnModel, forward
from .instances import MilpInstance

#: Default threshold grid; brackets both conservative and aggressive fixing.
DEFAULT_GRID = (0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95, 0.99, 1.0)


class InvalidThreshold(ValueError):
    """Threshold outside (0.5, 1.0]."""


@dataclass(eq=False)
class PartialAssignment:
    """Fixings keyed by position in the probability vector (binary variables only)."""

    fixings: dict[int, int]
    coverage: float


@dataclass(eq=False)
class DiveOutcome:
    """``fell_back``: the fixing proved infeasible, so the unfixed rerun was returned."""

    fell_back: bool
    partial: PartialAssignment


@dataclass(eq=False)
class ThresholdRow:
    threshold: float
    mean_coverage: float
    feasibility_rate: float
    mean_primal_integral: float


@dataclass(eq=False)
class ThresholdReport:
    rows: list[ThresholdRow]
    best_t: float


def check_threshold(t: float) -> float:
    t = float(t)
    if not 0.5 < t <= 1.0:
        raise InvalidThreshold(f"threshold must lie in (0.5, 1.0], got {t}")
    return t


def fix_by_threshold(probs: np.ndarray, t: float) -> PartialAssignment:
    """Fix positions with p >= t to 1 and p <= 1 - t to 0."""
    t = check_threshold(t)
    probs = np.asarray(probs, dtype=np.float64)
    if not ((probs > 0.0) & (probs < 1.0)).all():  # NaN fails both comparisons
        raise ValueError("probabilities must lie strictly inside (0, 1)")
    fixings: dict[int, int] = {}
    for j, p in enumerate(probs):
        if p >= t:
            fixings[j] = 1
        elif p <= 1.0 - t:
            fixings[j] = 0
    coverage = len(fixings) / probs.size if probs.size else 0.0
    return PartialAssignment(fixings, coverage)


def to_instance_fixings(partial: PartialAssignment, binary_mask: np.ndarray) -> dict[int, int]:
    """Translate probability-vector positions into instance variable indices."""
    positions = np.flatnonzero(binary_mask)
    return {int(positions[k]): v for k, v in partial.fixings.items()}


def dive_and_solve(
    instance: MilpInstance,
    model: GcnnModel,
    t: float,
    config: SolverConfig,
    *,
    probs: np.ndarray | None = None,
) -> tuple[IncumbentTrajectory, DiveOutcome]:
    """Fix by threshold, solve, and rerun unfixed on infeasibility.

    The returned trajectory is the executed run's: the fixed run when it is
    feasible, otherwise the fallback run alone (with the full step budget).
    ``probs``, one per binary variable, can be passed to reuse a forward pass.
    """
    if probs is None:
        probs = forward(model, encode(instance))
    partial = fix_by_threshold(probs, t)
    fixings = to_instance_fixings(partial, instance.binary_mask())
    try:
        trajectory, _ = bnb.solve(instance, fixings, config)
        return trajectory, DiveOutcome(False, partial)
    except InfeasibleSubproblem:
        trajectory, _ = bnb.solve(instance, {}, config)
        return trajectory, DiveOutcome(True, partial)


def _instance_cells(
    args: tuple[MilpInstance, GcnnModel, tuple[float, ...], SolverConfig],
) -> list[tuple[IncumbentTrajectory, DiveOutcome]]:
    """All thresholds for one instance; top-level so process pools can pick it up."""
    instance, model, ts, config = args
    probs = forward(model, encode(instance))
    return [dive_and_solve(instance, model, t, config, probs=probs) for t in ts]


def grid_search(
    instances: Sequence[MilpInstance],
    model: GcnnModel,
    grid: Sequence[float],
    config: SolverConfig,
    *,
    map_fn=map,
) -> ThresholdReport:
    """Evaluate every (instance, threshold) cell and rank thresholds.

    Each instance's reference objective comes from
    :func:`~confdive.evaluation.eval_configs` over all of its cells.
    ``map_fn`` may be a parallel map; aggregation stays an ordered fold.
    """
    if not grid:
        raise ValueError("threshold grid is empty")
    ts = tuple(sorted({check_threshold(t) for t in grid}))

    per_instance = list(
        map_fn(_instance_cells, [(inst, model, ts, config) for inst in instances])
    )
    cfgs = eval_configs(
        instances, [[traj for traj, _ in cells] for cells in per_instance], config.step_limit
    )

    rows: list[ThresholdRow] = []
    for k, t in enumerate(ts):
        cells = [per_instance[i][k] for i in range(len(instances))]
        coverages = [outcome.partial.coverage for _, outcome in cells]
        feasible = [not outcome.fell_back for _, outcome in cells]
        pis = [primal_integral(traj, cfg) for (traj, _), cfg in zip(cells, cfgs)]
        rows.append(
            ThresholdRow(
                threshold=t,
                mean_coverage=float(np.mean(coverages)),
                feasibility_rate=float(np.mean(feasible)),
                mean_primal_integral=float(np.mean(pis)),
            )
        )
    best = rows[0]
    for row in rows[1:]:
        if row.mean_primal_integral <= best.mean_primal_integral:
            best = row  # ascending scan: equal scores resolve to the larger t
    return ThresholdReport(rows, best.threshold)


def report_to_csv(report: ThresholdReport) -> str:
    lines = ["t,coverage,feasibility_rate,mean_primal_integral"]
    for row in report.rows:
        lines.append(
            f"{repr(row.threshold)},{repr(row.mean_coverage)},"
            f"{repr(row.feasibility_rate)},{repr(row.mean_primal_integral)}"
        )
    lines.append(f"BEST t={repr(report.best_t)}")
    return "\n".join(lines) + "\n"
