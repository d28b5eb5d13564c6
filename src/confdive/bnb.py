"""Exact branch and bound over the simplex relaxation.

The time axis is a deterministic step clock: one step per processed node
(a node is processed when its relaxation is solved). Incumbents are logged
against that clock so downstream metrics are machine-independent. A
rounding dive runs at the root, or at every node under aggressive
heuristic emphasis, and feeds the optional solution pool. Each child
node's LP starts dual pivoting from its parent's final tableau
(``simplex.DualTableau``), so a node factorizes no basis (the simplex
refactorizes one only every REFACTOR_PIVOTS inherited pivots).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .instances import (
    FEAS_TOL,
    Assignment,
    MilpInstance,
    parse_solution,
    serialize_solution,
)
from .simplex import DualTableau, _solve_lp_arrays, fixed_bounds

INT_TOL = 1e-6
PRUNE_TOL = 1e-9


class InfeasibleSubproblem(Exception):
    """The instance (under the given fixings) has no integer-feasible point."""


@dataclass(frozen=True)
class SolverConfig:
    """Budget and behavior knobs; the solver is deterministic."""

    step_limit: int
    heuristic_emphasis: str = "off"
    collect_pool: bool = False
    pool_size: int = 1

    def __post_init__(self):  # every message starts with the rejected field's name
        if self.step_limit < 1:
            raise ValueError("step_limit must be >= 1")
        if self.heuristic_emphasis not in ("off", "aggressive"):
            raise ValueError(
                f"heuristic_emphasis must be 'off' or 'aggressive', got {self.heuristic_emphasis!r}"
            )
        if self.collect_pool and self.pool_size < 1:
            raise ValueError("pool_size must be >= 1 when collect_pool is set")


@dataclass(frozen=True, eq=False)
class TrajectoryEvent:
    step: int
    objective: float
    values: np.ndarray


@dataclass(eq=False)
class IncumbentTrajectory:
    """Improving incumbents ordered by step; objectives strictly decrease."""

    events: tuple[TrajectoryEvent, ...]
    terminal_step: int
    proved_optimal: bool

    def final_objective(self) -> float | None:
        return self.events[-1].objective if self.events else None

    def first_step(self) -> int | None:
        return self.events[0].step if self.events else None


@dataclass(eq=False)
class SolutionPool:
    """Distinct feasible solutions, ascending objective."""

    instance_name: str
    entries: tuple[Assignment, ...]


def solve(
    instance: MilpInstance,
    fixings: Mapping[int, int] | None,
    config: SolverConfig,
) -> tuple[IncumbentTrajectory, SolutionPool]:
    """Best-bound branch and bound under ``fixings`` (binary variables only).

    Raises :class:`InfeasibleSubproblem` when the root relaxation is
    infeasible or the tree is exhausted without an integer-feasible point.
    """
    binary = instance.binary_mask()
    lo, hi = fixed_bounds(instance, fixings)
    for j, v in (fixings or {}).items():
        if not binary[j]:
            raise ValueError(f"fixings apply only to binary variables, got index {j}")
        v = float(v)
        if abs(v) > INT_TOL and abs(v - 1.0) > INT_TOL:
            raise ValueError(f"binary fixing for variable {j} must be 0 or 1, got {v}")
        lo[j] = hi[j] = round(v)

    c = instance.objective_vector()
    A, b = instance.dense_matrix()
    int_mask = instance.integer_mask()

    incumbent_obj = math.inf
    incumbent_vals: np.ndarray | None = None
    events: list[TrajectoryEvent] = []
    pool: dict[tuple, tuple[float, np.ndarray]] = {}

    def pool_add(values: np.ndarray, objective: float) -> None:
        if not config.collect_pool:
            return
        key = tuple(np.round(values, 9))
        if key not in pool:
            pool[key] = (objective, values.copy())

    # heap entries: (parent LP bound, insertion counter, lo, hi, parent's final
    # tableau); the two children of a node share one read-only tableau
    counter = 0
    heap: list[tuple[float, int, np.ndarray, np.ndarray, DualTableau | None]] = [
        (-math.inf, counter, lo, hi, None)
    ]
    step = 0

    while heap and step < config.step_limit:
        bound_est, _, lo_n, hi_n, tableau = heapq.heappop(heap)
        if bound_est >= incumbent_obj - PRUNE_TOL:
            continue  # stale: no strictly better solution under this node
        step += 1
        res = _solve_lp_arrays(c, A, b, lo_n, hi_n, tableau=tableau)
        if res.status == "infeasible":
            continue
        node_bound = res.objective if res.status == "optimal" else -math.inf
        if node_bound >= incumbent_obj - PRUNE_TOL:
            continue
        values = res.primal_values
        candidates: list[tuple[float, np.ndarray]] = []

        order = _fractional_order(values, int_mask)
        if not order:
            snapped = values.copy()
            snapped[int_mask] = np.round(snapped[int_mask])
            if _rows_ok(A, b, snapped):
                candidates.append((float(c @ snapped), snapped))
        else:
            if config.heuristic_emphasis == "aggressive" or step == 1:
                dived = _dive_arrays(c, A, b, int_mask, lo_n, hi_n, values)
                if dived is not None:
                    candidates.append((float(c @ dived), dived))
            j = order[0]
            v = values[j]
            hi_dn = hi_n.copy()
            hi_dn[j] = math.floor(v)
            lo_up = lo_n.copy()
            lo_up[j] = math.ceil(v)
            counter += 1
            heapq.heappush(heap, (node_bound, counter, lo_n, hi_dn, res.tableau))
            counter += 1
            heapq.heappush(heap, (node_bound, counter, lo_up, hi_n, res.tableau))

        for obj, vals in candidates:
            pool_add(vals, obj)
        if candidates:
            best_obj, best_vals = min(candidates, key=lambda t: t[0])
            if best_obj < incumbent_obj - PRUNE_TOL:
                incumbent_obj = best_obj
                incumbent_vals = best_vals
                events.append(TrajectoryEvent(step, best_obj, best_vals.copy()))

    if incumbent_vals is None and not heap:
        raise InfeasibleSubproblem(
            f"instance {instance.name!r} has no integer-feasible point under the given fixings"
        )
    proved = not heap or all(e[0] >= incumbent_obj - PRUNE_TOL for e in heap)
    trajectory = IncumbentTrajectory(tuple(events), step, bool(proved))
    entries = tuple(
        Assignment(vals, obj)
        for obj, vals in sorted(pool.values(), key=lambda t: (t[0], tuple(t[1])))
    )[: config.pool_size if config.collect_pool else 0]
    return trajectory, SolutionPool(instance.name, entries)


def _rows_ok(A: np.ndarray, b: np.ndarray, values: np.ndarray) -> bool:
    return not A.shape[0] or bool(np.all(A @ values <= b + FEAS_TOL))


def _fractional_order(values: np.ndarray, int_mask: np.ndarray) -> list[int]:
    """Fractional integer variables, most fractional first, ties to the lowest index.

    Empty when every integer variable is within ``INT_TOL`` of an integer.
    """
    frac = np.abs(values - np.round(values))
    idx = np.flatnonzero(int_mask & (frac > INT_TOL))
    score = np.minimum(frac[idx], 1.0 - frac[idx])  # distance to the nearest integer
    return idx[np.argsort(-score, kind="stable")].tolist()


def _dive_arrays(
    c: np.ndarray,
    A: np.ndarray,
    b: np.ndarray,
    int_mask: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    values: np.ndarray,
) -> np.ndarray | None:
    """Round fractional integer variables of ``values`` one at a time, most fractional first.

    Committing a rounding changes only that variable, so the order is computed
    once per LP point and recomputed only after an LP repair. Each variable
    taken from the order (rounded or repaired) and the final snap is one step
    against the cap of one step per integer variable plus one.
    """
    lo = lo.copy()
    hi = hi.copy()
    vals = values.copy()
    has_continuous = bool((~int_mask).any())
    slack = (b - A @ vals) if A.shape[0] else np.zeros(0)
    order = _fractional_order(vals, int_mask)
    pos = 0
    for _ in range(int(int_mask.sum()) + 1):
        if pos == len(order):
            snapped = vals.copy()
            snapped[int_mask] = np.round(snapped[int_mask])
            if np.all(snapped >= lo - FEAS_TOL) and np.all(snapped <= hi + FEAS_TOL) and _rows_ok(A, b, snapped):
                return snapped
            if has_continuous:
                lo2, hi2 = lo.copy(), hi.copy()
                lo2[int_mask] = hi2[int_mask] = snapped[int_mask]
                res = _solve_lp_arrays(c, A, b, lo2, hi2)
                if res.status == "optimal":
                    return res.primal_values
            return None
        j = order[pos]
        pos += 1
        v = float(vals[j])
        fpart = v - math.floor(v)
        if fpart > 0.5 + 1e-12:
            preferred = math.floor(v) + 1
        elif fpart < 0.5 - 1e-12:
            preferred = math.floor(v)
        else:
            preferred = math.floor(v) + (0 if c[j] >= 0 else 1)
        j_lo, j_hi = math.ceil(lo[j] - FEAS_TOL), math.floor(hi[j] + FEAS_TOL)
        preferred = min(max(preferred, j_lo), j_hi)
        other = preferred + 1 if preferred <= v else preferred - 1
        committed = False
        for r in (preferred, other):
            if not j_lo <= r <= j_hi:
                continue
            new_slack = slack - A[:, j] * (float(r) - v) if A.shape[0] else slack
            if not A.shape[0] or new_slack.min() >= -FEAS_TOL:
                vals[j] = float(r)
                lo[j] = hi[j] = float(r)
                slack = new_slack
                committed = True
                break
        if committed:
            continue
        # neither direction keeps the rows satisfied: one LP repair attempt
        lo[j] = hi[j] = float(preferred)
        res = _solve_lp_arrays(c, A, b, lo, hi)
        if res.status != "optimal":
            return None
        vals = res.primal_values
        slack = (b - A @ vals) if A.shape[0] else slack
        order = _fractional_order(vals, int_mask)
        pos = 0
    return None


def serialize_pool(pool: SolutionPool, instance: MilpInstance) -> str:
    blocks = [serialize_solution(instance, entry) for entry in pool.entries]
    return "---\n".join(blocks)


def parse_pool(text: str, instance: MilpInstance) -> SolutionPool:
    entries = []
    for block in text.split("---\n"):
        if block.strip():
            entries.append(parse_solution(block, instance))
    entries.sort(key=lambda a: (a.objective, tuple(a.values)))
    return SolutionPool(instance.name, tuple(entries))
