"""Dense simplex for the LP relaxation of a (possibly fixed) instance.

Two paths share one tableau pivot, ``_pivot``:

- A bounded dual simplex, used when every variable has a finite lower bound
  and no cost pushes a variable toward an infinite upper bound (every binary
  instance qualifies). Upper bounds are implicit: a nonbasic variable sits at
  the bound that the sign of its reduced cost selects, so the tableau has one
  row per constraint and one column per variable and slack, with no cap rows
  and no artificials. The slack basis is then dual feasible, so there is no
  phase 1, and the optimal basis of an LP over the same rows is a valid warm
  start after any bound change: branch and bound hands each child its
  parent's basis. The leaving row is the one with the largest bound
  violation.
- A two-phase primal simplex with Dantzig pricing for the rest (free
  variables, or a cost that pushes a variable toward an infinite bound).
  Finite ranges become cap rows.

Both switch to smallest-index rules after DEGENERATE_PIVOT_LIMIT consecutive
degenerate pivots, and raise NumericalBreakdown at the iteration limit.
Feasibility tolerance 1e-7, optimality tolerance 1e-9. Instances at desk
scale (a few hundred variables) need no sparse machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Mapping

import numpy as np

from .instances import MilpInstance

LpStatus = Literal["optimal", "infeasible", "unbounded"]

FEASIBILITY_TOL = 1e-7
OPTIMALITY_TOL = 1e-9
PIVOT_TOL = 1e-10
DEGENERATE_PIVOT_LIMIT = 1000
#: A warm-start tableau with a larger entry comes from a near-singular basis.
WARM_START_GROWTH_LIMIT = 1e9


class NumericalBreakdown(RuntimeError):
    """Pivoting could not make progress even under Bland's rule."""


@dataclass(frozen=True, eq=False)
class LpResult:
    status: LpStatus
    objective: float
    primal_values: np.ndarray
    #: Optimal basis of the dual path: m column indices into ``[A | I]``.
    basis: np.ndarray | None = None


def solve_lp(instance: MilpInstance, fixings: Mapping[int, float] | None = None) -> LpResult:
    """Solve the LP relaxation with ``fixings`` applied as equality bounds."""
    lo, hi = instance.bounds_arrays()
    if fixings:
        for j, v in fixings.items():
            if not 0 <= j < instance.n:
                raise ValueError(f"fixing index {j} out of range")
            v = float(v)
            if v < lo[j] - 1e-9 or v > hi[j] + 1e-9:
                raise ValueError(
                    f"fixing {v} for variable {j} lies outside its bounds [{lo[j]}, {hi[j]}]"
                )
            lo[j] = hi[j] = v
    c = instance.objective_vector()
    A, b = instance.dense_matrix()
    return _solve_lp_arrays(c, A, b, lo, hi)


def _solve_lp_arrays(
    c: np.ndarray,
    A: np.ndarray,
    b: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    basis: np.ndarray | None = None,
) -> LpResult:
    """min c.x s.t. A x <= b, lo <= x <= hi.

    ``basis`` (m column indices into ``[A | I]``, as returned in
    ``LpResult.basis``) warm-starts the dual path; a singular or stale one is
    replaced by the slack basis. The primal path ignores it.
    """
    if _dual_applies(c, lo, hi):
        return _solve_dual(c, A, b, lo, hi, basis)
    return _solve_primal(c, A, b, lo, hi)


def _dual_applies(c: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> bool:
    """The slack basis is dual feasible: no variable is pushed toward an infinite bound."""
    return bool(np.all(np.isfinite(lo)) and np.all(np.isfinite(hi) | (c >= -OPTIMALITY_TOL)))


def _solve_dual(
    c: np.ndarray,
    A: np.ndarray,
    b: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    basis: np.ndarray | None,
) -> LpResult:
    m, n = A.shape
    if np.any(lo > hi + FEASIBILITY_TOL):
        return LpResult("infeasible", float("inf"), np.full(n, np.nan))
    # columns: n structural variables, then m slacks s = b - A x >= 0
    lo_f = np.concatenate([lo, np.zeros(m)])
    hi_f = np.concatenate([hi, np.full(m, np.inf)])
    c_f = np.concatenate([c, np.zeros(m)])
    K = np.empty((m, n + m + 1))
    K[:, :n] = A
    K[:, n:-1] = np.eye(m)
    K[:, -1] = b

    start = None if basis is None else _warm_start(K, c_f, lo_f, hi_f, basis)
    if start is None:
        slack = np.arange(n, n + m)
        start = K, np.append(c_f, 0.0), slack, _at_upper(c_f, lo_f, hi_f)
    M, costrow, basis, at_upper = start
    nonbasic = np.ones(n + m, dtype=bool)
    nonbasic[basis] = False
    # the last column holds the basic values once the nonbasic ones are moved out
    M[:, -1] -= M[:, :-1] @ np.where(at_upper, hi_f, lo_f * nonbasic)

    p = _dual_pivot_until_feasible(M, costrow, basis, at_upper, nonbasic, lo_f, hi_f)
    if p is not None:
        if _proves_infeasible(M[p, n:-1], A, b, lo_f, hi_f):
            return LpResult("infeasible", float("inf"), np.full(n, np.nan))
        return _solve_primal(c, A, b, lo, hi)  # the certificate did not survive recomputation
    x = np.where(at_upper, hi_f, lo_f)[:n]
    structural = basis < n
    x[basis[structural]] = M[structural, -1]
    np.clip(x, lo, hi, out=x)
    _check_rows(A, b, x)
    return LpResult("optimal", float(c @ x), x, basis.copy())


def _at_upper(d: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray | None:
    """Columns whose reduced cost puts them at their upper bound (basic ones have d = 0).

    Returns None when a negative reduced cost meets an infinite upper bound,
    i.e. the basis is not dual feasible.
    """
    up = (d < -OPTIMALITY_TOL) & (lo < hi)
    if not np.all(np.isfinite(hi[up])):
        return None
    return up


def _warm_start(
    K: np.ndarray, c_f: np.ndarray, lo_f: np.ndarray, hi_f: np.ndarray, basis: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
    """Tableau, cost row, basis and bound positions for ``basis``; None if unusable.

    ``K`` is ``[A | I | b]``; ``c_f``, ``lo_f`` and ``hi_f`` cover its columns.
    """
    m = K.shape[0]
    basis = np.asarray(basis)
    if (
        basis.shape != (m,)
        or not np.issubdtype(basis.dtype, np.integer)
        or (m and (basis.min() < 0 or basis.max() >= K.shape[1] - 1))
        or np.unique(basis).size != m
    ):
        return None
    try:
        M = np.linalg.solve(K[:, basis], K)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.abs(M[:, :-1]) <= WARM_START_GROWTH_LIMIT):  # also rejects nan
        return None
    basis = basis.astype(np.int64)
    M[:, basis] = np.eye(m)
    costrow = np.append(c_f, 0.0) - c_f[basis] @ M
    costrow[basis] = 0.0
    at_upper = _at_upper(costrow[:-1], lo_f, hi_f)
    if at_upper is None:
        return None
    return M, costrow, basis, at_upper


def _dual_pivot_until_feasible(
    M: np.ndarray,
    costrow: np.ndarray,
    basis: np.ndarray,
    at_upper: np.ndarray,
    nonbasic: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
) -> int | None:
    """Pivot until every basic value is within its bounds.

    Returns None at the optimum, or a row whose basic variable cannot reach
    its bounds, which proves the LP infeasible.
    """
    if not M.shape[0]:
        return None
    enterable = nonbasic & (lo < hi)  # a fixed column never enters
    lo_b, hi_b = lo[basis], hi[basis]
    degenerate = 0
    bland = False
    for _ in range(_iteration_limit(M)):
        values = M[:, -1]
        above = values - hi_b
        violation = np.maximum(lo_b - values, above)
        p = int(np.argmax(violation))
        if violation[p] <= FEASIBILITY_TOL:
            return None
        if bland:
            rows = np.flatnonzero(violation > FEASIBILITY_TOL)
            p = int(rows[np.argmin(basis[rows])])
        to_upper = bool(above[p] > 0.0)
        # s_alpha_j > 0: raising x_j moves the leaving value toward the bound it leaves at
        s_alpha = M[p, :-1] if to_upper else -M[p, :-1]
        toward = np.where(at_upper, -s_alpha, s_alpha)
        cand = np.flatnonzero(enterable & (toward > PIVOT_TOL))
        if cand.size == 0:
            return p
        ratios = np.maximum(costrow[cand] / s_alpha[cand], 0.0)
        best = ratios.min()
        tied = cand[ratios <= best + 1e-12]
        if bland:
            q = int(tied[0])
        else:
            q = int(tied[np.argmax(np.abs(s_alpha[tied]))])
        if best <= 1e-12:
            degenerate += 1
            if degenerate >= DEGENERATE_PIVOT_LIMIT:
                bland = True
        else:
            degenerate = 0
        leaving = int(basis[p])
        entering_value = hi[q] if at_upper[q] else lo[q]
        leaving_value = hi[leaving] if to_upper else lo[leaving]
        _pivot(M, costrow, basis, p, q)
        M[:, -1] -= leaving_value * M[:, leaving]
        M[p, -1] += entering_value
        lo_b[p], hi_b[p] = lo[q], hi[q]
        nonbasic[q] = at_upper[q] = enterable[q] = False
        nonbasic[leaving], at_upper[leaving] = True, to_upper
        enterable[leaving] = lo[leaving] < hi[leaving]
    raise NumericalBreakdown("dual simplex iteration limit exceeded")


def _proves_infeasible(
    u: np.ndarray, A: np.ndarray, b: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> bool:
    """Farkas check from the original data: u.(A x + s) = u.b has no solution in the box.

    ``lo``/``hi`` bound the structural variables and then the slacks.
    Coefficients below PIVOT_TOL count as zero.
    """
    w = np.concatenate([u @ A, u])
    w[np.abs(w) <= PIVOT_TOL] = 0.0
    pos, neg = w > 0.0, w < 0.0
    low = w[pos] @ lo[pos] + w[neg] @ hi[neg]
    high = w[pos] @ hi[pos] + w[neg] @ lo[neg]
    rhs = float(u @ b)
    return rhs < low - FEASIBILITY_TOL or rhs > high + FEASIBILITY_TOL


def _check_rows(A: np.ndarray, b: np.ndarray, x: np.ndarray) -> None:
    if A.shape[0]:
        worst = float(np.max(A @ x - b))
        if worst > 1e-6:
            raise NumericalBreakdown(f"optimal point violates a row by {worst:.3e}")


def _solve_primal(
    c: np.ndarray, A: np.ndarray, b: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> LpResult:
    n = c.shape[0]
    m = A.shape[0]

    fixed = lo == hi
    x_fixed = np.where(fixed, lo, 0.0)
    b_eff = b - A[:, fixed] @ lo[fixed]

    # Shift every remaining variable to y >= 0; finite ranges get a cap row.
    cols: list[np.ndarray] = []
    costs: list[float] = []
    caps: list[float] = []  # inf when uncapped
    backmap: list[tuple[int, float, float]] = []  # (var index, offset, sign): x = offset + sign*y
    for j in np.flatnonzero(~fixed):
        aj = A[:, j]
        if np.isfinite(lo[j]):
            cols.append(aj)
            costs.append(float(c[j]))
            caps.append(float(hi[j] - lo[j]) if np.isfinite(hi[j]) else np.inf)
            backmap.append((int(j), float(lo[j]), 1.0))
            if lo[j] != 0.0:
                b_eff = b_eff - aj * lo[j]
        elif np.isfinite(hi[j]):
            cols.append(-aj)
            costs.append(float(-c[j]))
            caps.append(np.inf)
            backmap.append((int(j), float(hi[j]), -1.0))
            if hi[j] != 0.0:
                b_eff = b_eff - aj * hi[j]
        else:  # free: split x = y+ - y-
            cols.append(aj)
            costs.append(float(c[j]))
            caps.append(np.inf)
            backmap.append((int(j), 0.0, 1.0))
            cols.append(-aj)
            costs.append(float(-c[j]))
            caps.append(np.inf)
            backmap.append((int(j), 0.0, -1.0))

    n_y = len(cols)
    cap_idx = [k for k in range(n_y) if np.isfinite(caps[k])]
    A_std = np.zeros((m + len(cap_idx), n_y))
    if n_y:
        A_std[:m] = np.column_stack(cols)
    b_std = np.concatenate([b_eff, np.array([caps[k] for k in cap_idx], dtype=np.float64)])
    for r, k in enumerate(cap_idx):
        A_std[m + r, k] = 1.0
    c_std = np.array(costs, dtype=np.float64)

    status, y = _two_phase(A_std, b_std, c_std)
    if status == "infeasible":
        return LpResult("infeasible", float("inf"), np.full(n, np.nan))
    x = x_fixed.copy()
    seen_offset: set[int] = set()
    for k, (j, offset, sign) in enumerate(backmap):
        if j not in seen_offset:
            x[j] += offset
            seen_offset.add(j)
        x[j] += sign * y[k]
    np.clip(x, lo, hi, out=x)
    if status == "unbounded":
        return LpResult("unbounded", float("-inf"), x)
    _check_rows(A, b, x)
    return LpResult("optimal", float(c @ x), x)


def _two_phase(A: np.ndarray, b: np.ndarray, c: np.ndarray) -> tuple[LpStatus, np.ndarray]:
    """min c.y s.t. A y <= b, y >= 0. Returns (status, y)."""
    n_rows, n_y = A.shape
    neg = b < 0
    n_art = int(neg.sum())
    n_cols = n_y + n_rows + n_art

    M = np.zeros((n_rows, n_cols + 1))
    basis = np.empty(n_rows, dtype=np.int64)
    art_base = n_y + n_rows
    a_i = 0
    for i in range(n_rows):
        if neg[i]:
            M[i, :n_y] = -A[i]
            M[i, n_y + i] = -1.0  # surplus
            M[i, art_base + a_i] = 1.0
            M[i, -1] = -b[i]
            basis[i] = art_base + a_i
            a_i += 1
        else:
            M[i, :n_y] = A[i]
            M[i, n_y + i] = 1.0  # slack
            M[i, -1] = b[i]
            basis[i] = n_y + i

    if n_art:
        cost1 = np.zeros(n_cols + 1)
        cost1[art_base:n_cols] = 1.0
        for r in range(n_rows):
            if basis[r] >= art_base:
                cost1 -= M[r]
        enterable = np.ones(n_cols, dtype=bool)
        enterable[art_base:] = False
        status = _pivot_until_optimal(M, cost1, basis, enterable)
        if status != "optimal" or -cost1[-1] > FEASIBILITY_TOL:
            return "infeasible", np.zeros(n_y)
        keep = _drive_out_artificials(M, basis, art_base)
        M = np.concatenate([M[keep, :art_base], M[keep, -1:]], axis=1)
        basis = basis[keep]
        n_cols = art_base

    cost2 = np.zeros(n_cols + 1)
    cost2[:n_y] = c
    for r in range(len(basis)):
        j = basis[r]
        if cost2[j] != 0.0:
            cost2 -= cost2[j] * M[r]
    enterable = np.ones(n_cols, dtype=bool)
    status = _pivot_until_optimal(M, cost2, basis, enterable)
    y = np.zeros(n_y)
    for r, j in enumerate(basis):
        if j < n_y:
            y[j] = max(M[r, -1], 0.0)
    return ("unbounded" if status == "unbounded" else "optimal"), y


def _pivot_until_optimal(
    M: np.ndarray, costrow: np.ndarray, basis: np.ndarray, enterable: np.ndarray
) -> LpStatus:
    degenerate = 0
    bland = False
    for _ in range(_iteration_limit(M)):
        red = costrow[:-1]
        candidates = np.flatnonzero((red < -OPTIMALITY_TOL) & enterable)
        if candidates.size == 0:
            return "optimal"
        if bland:
            q = int(candidates[0])
        else:
            q = int(candidates[np.argmin(red[candidates])])
        col = M[:, q]
        pos = col > PIVOT_TOL
        if not pos.any():
            return "unbounded"
        rhs = np.maximum(M[:, -1], 0.0)
        ratios = np.full(M.shape[0], np.inf)
        ratios[pos] = rhs[pos] / col[pos]
        best = ratios.min()
        tied = np.flatnonzero(ratios <= best + 1e-12)
        if bland:
            p = int(tied[np.argmin(basis[tied])])
        else:
            p = int(tied[0])
        if M[p, q] < PIVOT_TOL:
            raise NumericalBreakdown(f"pivot magnitude {M[p, q]:.3e} below tolerance")
        if best <= 1e-12:
            degenerate += 1
            if degenerate >= DEGENERATE_PIVOT_LIMIT:
                bland = True
        else:
            degenerate = 0
        _pivot(M, costrow, basis, p, q)
    raise NumericalBreakdown("simplex iteration limit exceeded")


def _iteration_limit(M: np.ndarray) -> int:
    return 20000 + 200 * (M.shape[0] + M.shape[1])


def _pivot(M: np.ndarray, costrow: np.ndarray, basis: np.ndarray, p: int, q: int) -> None:
    M[p] /= M[p, q]
    col = M[:, q].copy()
    col[p] = 0.0
    M -= np.outer(col, M[p])
    costrow -= costrow[q] * M[p]
    basis[p] = q


def _drive_out_artificials(M: np.ndarray, basis: np.ndarray, art_base: int) -> np.ndarray:
    """Pivot basic artificials onto real columns; returns a row keep-mask."""
    keep = np.ones(M.shape[0], dtype=bool)
    for r in range(M.shape[0]):
        if basis[r] < art_base:
            continue
        row = M[r, :art_base]
        nz = np.flatnonzero(np.abs(row) > PIVOT_TOL)
        if nz.size == 0:
            keep[r] = False  # redundant row
            continue
        q = int(nz[0])
        dummy = np.zeros(M.shape[1])
        _pivot(M, dummy, basis, r, q)
    return keep
