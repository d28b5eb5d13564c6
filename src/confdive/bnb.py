"""Exact branch and bound over the simplex relaxation.

The time axis is a deterministic step clock: one step per processed node
(a node is processed when its relaxation is solved). Incumbents are logged
against that clock so downstream metrics are machine-independent. A node
yields at most one integer point: its LP point when that is within INT_TOL
of integral and keeps the rows once snapped, else the point of a rounding
dive, which runs at the root, or at every node under aggressive heuristic
emphasis. That point may improve the incumbent and, with ``collect_pool``,
enters the solution pool. A fractional node branches on its most
fractional integer variable; a node whose snap broke a row, on its most
fractional value that is not exactly integral. Each child node's LP starts
dual pivoting from its parent's final tableau (``simplex.DualTableau``), so
a node factorizes no basis (the simplex refactorizes one only every
REFACTOR_PIVOTS inherited pivots).

The rounding dive computes its roundings as arrays once per LP point, but
takes the same roundings, in the same order and with the same slack
arithmetic, as its reference in ``tests/oracles.py`` (``rescan_dive_arrays``).
"""

from __future__ import annotations

import heapq
import itertools
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
from .simplex import DualTableau, _solve_lp_arrays

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
    """Best-bound branch and bound under ``fixings``, instance index to 0 or 1.

    The one check and application of a fixing: each index must be in range
    and name a binary variable, and each value lie within INT_TOL of 0 or 1
    (else ``ValueError``); the variable's bounds are fixed at the rounded
    value. Without fixings, the root node's LP is ``instance.root_lp``, which
    the instance solves once and the encoder and every other unfixed run read.

    Raises :class:`InfeasibleSubproblem` when the root relaxation is
    infeasible or the tree is exhausted without an integer-feasible point.
    """
    binary = instance.binary_mask()
    lo, hi = instance.bounds_arrays()
    for j, v in (fixings or {}).items():
        if not 0 <= j < instance.n:  # before the mask lookup, so -1 cannot wrap
            raise ValueError(f"fixing index {j} out of range")
        if not binary[j]:
            raise ValueError(f"fixings apply only to binary variables, got index {j}")
        v = float(v)
        if not (abs(v) <= INT_TOL or abs(v - 1.0) <= INT_TOL):  # NaN and +-inf fail too
            raise ValueError(f"binary fixing for variable {j} must be 0 or 1, got {v}")
        lo[j] = hi[j] = round(v)

    c = instance.objective_vector()
    A, b = instance.dense_matrix()
    int_mask = instance.integer_mask()

    incumbent_obj = math.inf
    events: list[TrajectoryEvent] = []
    pool: dict[tuple, Assignment] = {}
    # heap entries: (parent LP bound, insertion number, lo, hi, parent's final
    # tableau); the two children of a node share one read-only tableau
    heap: list[tuple[float, int, np.ndarray, np.ndarray, DualTableau | None]] = [
        (-math.inf, 0, lo, hi, None)
    ]
    insertion = itertools.count(1)
    step = 0

    while heap and step < config.step_limit:
        bound_est, _, lo_n, hi_n, tableau = heapq.heappop(heap)
        if bound_est >= incumbent_obj - PRUNE_TOL:
            continue  # stale: no strictly better solution under this node
        step += 1
        if step == 1 and not fixings:
            res = instance.root_lp
        else:
            res = _solve_lp_arrays(c, A, b, lo_n, hi_n, tableau=tableau)
        if res.status == "infeasible":
            continue
        node_bound = res.objective if res.status == "optimal" else -math.inf
        if node_bound >= incumbent_obj - PRUNE_TOL:
            continue
        values = res.primal_values
        found = None  # the node's one integer point: its snapped LP point, or its dive's
        order = _fractional_order(values, int_mask)
        if not order:
            snapped = values.copy()
            snapped[int_mask] = np.round(snapped[int_mask])
            if _rows_ok(A, b, snapped):
                found = snapped
            else:  # the snap breaks a row: branch on the values that are not exactly integral
                order = _fractional_order(values, int_mask, tol=0.0)
        elif config.heuristic_emphasis == "aggressive" or step == 1:
            found = _dive_arrays(c, A, b, int_mask, lo_n, hi_n, values, order)
        if order:
            j = order[0]
            hi_dn = hi_n.copy()
            hi_dn[j] = math.floor(values[j])
            lo_up = lo_n.copy()
            lo_up[j] = math.ceil(values[j])
            heapq.heappush(heap, (node_bound, next(insertion), lo_n, hi_dn, res.tableau))
            heapq.heappush(heap, (node_bound, next(insertion), lo_up, hi_n, res.tableau))
        if found is None:
            continue
        objective = float(c @ found)
        if config.collect_pool:  # the first point seen under a key keeps it
            pool.setdefault(tuple(np.round(found, 9).tolist()), Assignment(found, objective))
        if objective < incumbent_obj - PRUNE_TOL:
            incumbent_obj = objective
            events.append(TrajectoryEvent(step, objective, found.copy()))

    if not events and not heap:
        raise InfeasibleSubproblem(
            f"instance {instance.name!r} has no integer-feasible point under the given fixings"
        )
    proved = not heap or all(e[0] >= incumbent_obj - PRUNE_TOL for e in heap)
    trajectory = IncumbentTrajectory(tuple(events), step, bool(proved))
    entries = sorted(pool.values(), key=_pool_order)[: config.pool_size]
    return trajectory, SolutionPool(instance.name, tuple(entries))


def _pool_order(entry: Assignment) -> tuple:
    """The order of a pool's entries, as ``solve`` writes them and ``parse_pool``
    reads them back: ascending objective, ties by values."""
    return entry.objective, tuple(entry.values)


def _rows_ok(A: np.ndarray, b: np.ndarray, values: np.ndarray) -> bool:
    return bool(np.all(A @ values <= b + FEAS_TOL))


def _fractional_order(values: np.ndarray, int_mask: np.ndarray, tol: float = INT_TOL) -> list[int]:
    """Fractional integer variables, most fractional first, ties to the lowest index.

    Empty when every integer variable is within ``tol`` of an integer.
    """
    # |v - round(v)| <= 0.5 is already the distance to the nearest integer
    frac = np.abs(values - np.rint(values))
    idx = (int_mask & (frac > tol)).nonzero()[0]
    return idx[np.argsort(-frac[idx], kind="stable")].tolist()


def _dive_arrays(
    c: np.ndarray,
    A: np.ndarray,
    b: np.ndarray,
    int_mask: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    values: np.ndarray,
    order: list[int],
) -> np.ndarray | None:
    """Round fractional integer variables of ``values`` one at a time, most fractional first.

    ``order`` is ``_fractional_order(values, int_mask)``, which the caller
    has already computed. Committing a rounding changes only that variable,
    so the order, each variable's preferred and other rounding, and the row
    slack change of the preferred one are computed once per LP point, and
    recomputed only after an LP repair. Each variable taken from the order
    (rounded or repaired) and the final snap is one step against the cap of
    one step per integer variable plus one.
    """
    lo = lo.copy()
    hi = hi.copy()
    vals = values.copy()
    slack = b - A @ vals
    steps = int(int_mask.sum()) + 1
    while True:
        if order:
            pref, other, pref_ok, other_ok, shift = _roundings(c, A, lo, hi, vals, order)
        for i, j in enumerate(order):
            if not steps:
                return None
            steps -= 1
            if pref_ok[i]:
                new_slack = slack - shift[i]
                if np.minimum.reduce(new_slack, initial=np.inf) >= -FEAS_TOL:
                    vals[j] = lo[j] = hi[j] = pref[i]
                    slack = new_slack
                    continue
            if other_ok[i]:
                r = other[i]
                new_slack = slack - A[:, j] * (r - float(vals[j]))
                if new_slack.min(initial=np.inf) >= -FEAS_TOL:
                    vals[j] = lo[j] = hi[j] = r
                    slack = new_slack
                    continue
            # neither direction keeps the rows satisfied: one LP repair attempt
            lo[j] = hi[j] = pref[i]
            res = _solve_lp_arrays(c, A, b, lo, hi)
            if res.status != "optimal":
                return None
            vals = res.primal_values.copy()
            slack = b - A @ vals
            order = _fractional_order(vals, int_mask)
            break  # round the new LP point
        else:
            break  # every fractional variable is rounded
    if not steps:
        return None
    snapped = np.where(int_mask, np.rint(vals), vals)
    if (snapped >= lo - FEAS_TOL).all() and (snapped <= hi + FEAS_TOL).all() and _rows_ok(A, b, snapped):
        return snapped
    if (~int_mask).any():
        lo[int_mask] = hi[int_mask] = snapped[int_mask]
        res = _solve_lp_arrays(c, A, b, lo, hi)
        if res.status == "optimal":
            return res.primal_values
    return None


def _roundings(
    c: np.ndarray, A: np.ndarray, lo: np.ndarray, hi: np.ndarray, vals: np.ndarray, order: list[int]
) -> tuple[list[float], list[float], list[bool], list[bool], np.ndarray]:
    """Each ordered variable's preferred and other rounding, whether each lies
    within the variable's integer range, and the row slack change of the
    preferred one (one row per variable).

    The preferred rounding is the nearest integer, a tie going the way that
    lowers the cost, clamped to the range. Both are exact integers in float,
    never -0.0.
    """
    idx = np.array(order)
    v = vals[idx]
    floor = np.floor(v)
    fpart = v - floor
    # above one half: round up; below: down; a tie goes up only at a negative cost
    up = (fpart > 0.5 + 1e-12) | ((fpart >= 0.5 - 1e-12) & ~(c[idx] >= 0))
    j_lo, j_hi = np.ceil(lo[idx] - FEAS_TOL), np.floor(hi[idx] + FEAS_TOL)
    pref = np.minimum(np.maximum(floor + up, j_lo), j_hi) + 0.0  # + 0.0 turns -0.0 into 0.0
    other = pref + np.where(pref <= v, 1.0, -1.0)
    pref_ok = j_lo <= j_hi  # pref is clamped into the range unless it is empty
    other_ok = (j_lo <= other) & (other <= j_hi)
    shift = A.T[idx] * (pref - v)[:, None]
    return pref.tolist(), other.tolist(), pref_ok.tolist(), other_ok.tolist(), shift


def serialize_pool(pool: SolutionPool, instance: MilpInstance) -> str:
    blocks = [serialize_solution(instance, entry) for entry in pool.entries]
    return "---\n".join(blocks)


def parse_pool(text: str, instance: MilpInstance) -> SolutionPool:
    entries = []
    for block in text.split("---\n"):
        if block.strip():
            entries.append(parse_solution(block, instance))
    entries.sort(key=_pool_order)
    return SolutionPool(instance.name, tuple(entries))
