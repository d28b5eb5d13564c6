"""Dense simplex for LP relaxations.

``solve_lp`` solves an instance's unfixed relaxation only; ``bnb.solve``
checks and applies a fixing and solves its nodes with ``_solve_lp_arrays``.

Two paths share one tableau layout, the constraint rows and then the
reduced-cost row, and one pivot, ``_pivot``, a rank-1 update of all rows:

- A bounded dual simplex, used when every variable has a finite lower bound
  and no cost pushes a variable toward an infinite upper bound (every binary
  instance qualifies). Upper bounds are implicit: a nonbasic variable sits at
  the bound that the sign of its reduced cost selects, so the tableau has one
  row per constraint and one column per variable and slack, with no cap rows
  and no artificials. The slack basis is then dual feasible, so there is no
  phase 1, and the final tableau of an LP over the same rows stays dual
  feasible after any bound change. Each solve returns a ``DualTableau`` (a
  basis, its tableau and the values of the nonbasic columns) and starts from
  one through ``_inherit``, which puts each nonbasic column at the bound its
  reduced cost selects and shifts the basic values to match. That tableau is
  the parent's in branch and bound, with no factorization; its basis
  factorized again (``_factorize``) every REFACTOR_PIVOTS inherited pivots;
  or the slack basis's at a root, or when the basis is singular or no longer
  dual feasible. The leaving row is the one with the largest bound violation.
- A two-phase primal simplex with Dantzig pricing for the rest (free
  variables, or a cost that pushes a variable toward an infinite bound).
  Finite ranges become cap rows.

Both switch to smallest-index rules after DEGENERATE_PIVOT_LIMIT consecutive
degenerate pivots, and raise NumericalBreakdown at the iteration limit.
Feasibility tolerance 1e-7, optimality tolerance 1e-9. Instances at desk
scale (a few hundred variables) need no sparse machinery.

The dual pivot loop keeps the nonbasic point that a ``DualTableau`` stores,
with few numpy calls per pivot, but it does the floating-point operations of
its reference ``tests/oracles.py:mask_dual_pivot_until_feasible`` in the same
order, so it takes the same pivots and reaches the same bytes; ``_pivot`` is
the only tableau update on either path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .instances import MilpInstance

LpStatus = Literal["optimal", "infeasible", "unbounded"]

FEASIBILITY_TOL = 1e-7
OPTIMALITY_TOL = 1e-9
PIVOT_TOL = 1e-10
DEGENERATE_PIVOT_LIMIT = 1000
#: A warm-start tableau with a larger entry comes from a near-singular basis.
WARM_START_GROWTH_LIMIT = 1e9
#: An inherited tableau that has taken this many pivots since its basis was
#: last factorized is factorized again, so rounding error cannot build up.
#: Down a 120 x 80 covering branch, 2185 inherited pivots left the primal
#: values within 4e-13 of a fresh factorization of the same basis.
REFACTOR_PIVOTS = 1000


class NumericalBreakdown(RuntimeError):
    """Pivoting could not make progress even under Bland's rule."""


@dataclass(frozen=True, eq=False)
class DualTableau:
    """State of a dual-path solve: a basis, its tableau and the values of the
    nonbasic columns, from which an LP over the same rows can start.

    The arrays are read-only, since the two children of a branch-and-bound
    node share their parent's tableau; a solve starts from copies.
    """

    #: (m + 1) x (n + m + 1) tableau over ``[A | I]``: m constraint rows, whose
    #: last column holds the basic values when the other columns take their
    #: ``nonbasic_values``, then the reduced costs of the n + m columns and one
    #: unused entry.
    M: np.ndarray
    #: m column indices into ``[A | I]``.
    basis: np.ndarray
    #: Value of each of the n + m columns that ``M[:-1, -1]`` assumes: 0 on the
    #: basis, the bound the column sits at everywhere else.
    nonbasic_values: np.ndarray
    #: Pivots taken since the basis was last factorized.
    pivots: int

    def __post_init__(self):
        for a in (self.M, self.basis, self.nonbasic_values):
            a.setflags(write=False)

    def __setstate__(self, state):  # an unpickled array comes back writable
        self.__dict__.update(state)
        self.__post_init__()


@dataclass(frozen=True, eq=False)
class LpResult:
    """An LP's outcome. ``primal_values`` is read-only, since an instance's
    ``root_lp`` is read by the encoder and by every unfixed run."""

    status: LpStatus
    objective: float
    primal_values: np.ndarray
    #: Final state of the dual path, from which a child LP can start.
    tableau: DualTableau | None = None

    def __post_init__(self):
        self.primal_values.setflags(write=False)

    def __setstate__(self, state):  # an unpickled array comes back writable
        self.__dict__.update(state)
        self.__post_init__()


def solve_lp(instance: MilpInstance) -> LpResult:
    """Solve the instance's unfixed LP relaxation, which ``MilpInstance.root_lp`` caches.

    A fixed LP is a node of ``bnb.solve``, which checks and applies the fixing.
    """
    lo, hi = instance.bounds_arrays()
    c = instance.objective_vector()
    A, b = instance.dense_matrix()
    return _solve_lp_arrays(c, A, b, lo, hi)


def _solve_lp_arrays(
    c: np.ndarray,
    A: np.ndarray,
    b: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    tableau: DualTableau | None = None,
) -> LpResult:
    """min c.x s.t. A x <= b, lo <= x <= hi.

    ``tableau`` (the ``LpResult.tableau`` of an LP over the same ``c``, ``A``
    and ``b``) starts the dual path from a copy of that final tableau, under
    the new bounds and with no factorization; once it has inherited
    REFACTOR_PIVOTS pivots, its basis is factorized instead. Without a
    tableau, or when its basis is singular or no longer dual feasible, the
    dual path starts from the slack basis, as does the one retry of a tableau
    start that raises NumericalBreakdown. The primal path ignores the tableau.
    """
    if _dual_applies(c, lo, hi):
        if tableau is not None:
            try:
                return _solve_dual(c, A, b, lo, hi, tableau)
            except NumericalBreakdown:
                pass
        return _solve_dual(c, A, b, lo, hi)
    return _solve_primal(c, A, b, lo, hi)


def _dual_applies(c: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> bool:
    """The slack basis is dual feasible: no variable is pushed toward an infinite bound."""
    return bool((np.isfinite(lo) & (np.isfinite(hi) | (c >= -OPTIMALITY_TOL))).all())


def _solve_dual(
    c: np.ndarray,
    A: np.ndarray,
    b: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    tableau: DualTableau | None = None,
) -> LpResult:
    m, n = A.shape
    if (lo > hi + FEASIBILITY_TOL).any():
        return LpResult("infeasible", float("inf"), np.full(n, np.nan))
    # columns: n structural variables, then m slacks s = b - A x >= 0
    lo_f = np.concatenate([lo, np.zeros(m)])
    hi_f = np.concatenate([hi, np.full(m, np.inf)])
    if tableau is None or tableau.pivots >= REFACTOR_PIVOTS:
        tableau = _factorize(c, A, b, None if tableau is None else tableau.basis)
    start = _inherit(tableau, lo_f, hi_f)
    if start is None:  # the slack basis is dual feasible wherever the dual path applies
        tableau = _factorize(c, A, b, None)
        start = _inherit(tableau, lo_f, hi_f)
    M, basis, nonbasic_values, direction = start
    p, pivots = _dual_pivot_until_feasible(M, basis, nonbasic_values, direction, lo_f, hi_f)
    if p is not None:
        if _proves_infeasible(M[p, n:-1], A, b, lo_f, hi_f):
            return LpResult("infeasible", float("inf"), np.full(n, np.nan))
        return _solve_primal(c, A, b, lo, hi)  # the certificate did not survive recomputation
    full = nonbasic_values.copy()
    full[basis] = M[:-1, -1]
    x = full[:n]
    x.clip(lo, hi, out=x)
    _check_rows(A, b, x)
    final = DualTableau(M, basis, nonbasic_values, tableau.pivots + pivots)
    return LpResult("optimal", float(c @ x), x, final)


def _factorize(
    c: np.ndarray, A: np.ndarray, b: np.ndarray, basis: np.ndarray | None
) -> DualTableau:
    """The tableau of ``basis`` with every nonbasic column at 0, or that of the
    slack basis when ``basis`` is None, singular or ill-conditioned."""
    m, n = A.shape
    K = np.block([[A, np.eye(m), b[:, None]], [c, np.zeros(m + 1)]])
    if basis is not None:
        try:
            rows = np.linalg.solve(K[:m, basis], K[:m])
        except np.linalg.LinAlgError:
            rows = None
        if rows is not None and np.all(np.abs(rows[:, :-1]) <= WARM_START_GROWTH_LIMIT):  # also rejects nan
            basis = basis.copy()  # a tableau's basis is read-only, and the pivots write to it
            M = np.concatenate([rows, K[m:]])
            M[:m, basis] = np.eye(m)
            M[m] -= M[m, basis] @ M[:m]
            M[m, basis] = 0.0
            return DualTableau(M, basis, np.zeros(n + m), 0)
    return DualTableau(K, np.arange(n, n + m), np.zeros(n + m), 0)


def _inherit(
    tableau: DualTableau, lo_f: np.ndarray, hi_f: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
    """Tableau, basis, nonbasic values and entering directions that start a
    solve from a copy of ``tableau`` under the bounds ``lo_f``, ``hi_f``; None
    if its basis is not dual feasible under them.

    The basis and reduced costs stay, so each nonbasic column goes to the
    bound its reduced cost selects, and the basic values shift by ``M[:-1, j]``
    times each column's move from its ``nonbasic_values`` entry. The new
    values are 0 on the basis. A column's direction is -1 at the upper bound,
    +1 at the lower one, and 0 where it is basic or fixed.
    """
    # a column with a negative reduced cost goes to its upper bound (basic ones
    # have 0); the basis is not dual feasible if that bound is infinite
    at_upper = (tableau.M[-1, :-1] < -OPTIMALITY_TOL) & (lo_f < hi_f)
    if not np.isfinite(hi_f[at_upper]).all():
        return None
    values = np.where(at_upper, hi_f, lo_f)
    values[tableau.basis] = 0.0
    delta = values - tableau.nonbasic_values
    moved = delta.nonzero()[0]
    M = tableau.M.copy()
    if moved.size:
        M[:-1, -1] -= M[:-1, moved] @ delta[moved]
    direction = np.where(at_upper, -1.0, lo_f < hi_f)  # 1.0 where free, 0.0 where fixed
    direction[tableau.basis] = 0.0
    return M, tableau.basis.copy(), values, direction


def _dual_pivot_until_feasible(
    M: np.ndarray,
    basis: np.ndarray,
    nonbasic_values: np.ndarray,
    direction: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
) -> tuple[int | None, int]:
    """Pivot until every basic value is within its bounds.

    Returns ``(row, pivots)``: the row is None at the optimum, or one whose
    basic variable cannot reach its bounds, which proves the LP infeasible.
    Keeps ``_inherit``'s ``nonbasic_values`` and ``direction`` up to date.
    """
    if not basis.size:
        return None, 0
    # A column may enter where direction * alpha exceeds PIVOT_TOL, alpha the
    # pivot row negated when the leaving value drops to its lower bound; a
    # basic or fixed column has direction 0, which never passes.
    toward = np.empty_like(direction)
    lo_b, hi_b = lo[basis], hi[basis]
    above, violation = np.empty_like(lo_b), np.empty_like(lo_b)
    values = M[:-1, -1]
    degenerate = 0
    bland = False
    for pivots in range(_iteration_limit(M[:-1])):
        np.subtract(values, hi_b, out=above)
        np.maximum(np.subtract(lo_b, values, out=violation), above, out=violation)
        p = int(violation.argmax())
        if violation[p] <= FEASIBILITY_TOL:
            return None, pivots
        if bland:
            rows = (violation > FEASIBILITY_TOL).nonzero()[0]
            p = int(rows[basis[rows].argmin()])
        to_upper = bool(above[p] > 0.0)
        row = M[p, :-1]
        np.multiply(direction, row, out=toward)
        cand = ((toward > PIVOT_TOL) if to_upper else (toward < -PIVOT_TOL)).nonzero()[0]
        if not cand.size:
            return p, pivots
        # s_alpha > 0: raising x_j moves the leaving value toward the bound it leaves at
        s_alpha = row[cand]
        if not to_upper:
            np.negative(s_alpha, out=s_alpha)
        ratios = M[-1, cand]
        np.maximum(np.divide(ratios, s_alpha, out=ratios), 0.0, out=ratios)
        best = np.minimum.reduce(ratios)
        tie = ratios <= best + 1e-12
        tied = cand[tie]
        if bland or tied.size == 1:
            q = int(tied[0])
        else:
            q = int(tied[np.abs(s_alpha[tie]).argmax()])
        if best <= 1e-12:
            degenerate += 1
            if degenerate >= DEGENERATE_PIVOT_LIMIT:
                bland = True
        else:
            degenerate = 0
        leaving = int(basis[p])
        leaving_value = hi[leaving] if to_upper else lo[leaving]
        _pivot(M, basis, p, q)
        values -= leaving_value * M[:-1, leaving]
        values[p] += nonbasic_values[q]
        lo_b[p], hi_b[p] = lo[q], hi[q]
        nonbasic_values[q] = 0.0
        nonbasic_values[leaving] = leaving_value
        direction[q] = 0.0
        direction[leaving] = (-1.0 if to_upper else 1.0) if lo[leaving] < hi[leaving] else 0.0
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
    worst = float((A @ x - b).max(initial=-np.inf))
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

    M = np.zeros((n_rows + 1, n_cols + 1))  # the last row holds the reduced costs
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
        M[-1, art_base:n_cols] = 1.0
        for r in range(n_rows):
            if basis[r] >= art_base:
                M[-1] -= M[r]
        enterable = np.ones(n_cols, dtype=bool)
        enterable[art_base:] = False
        status = _pivot_until_optimal(M, basis, enterable)
        if status != "optimal" or -M[-1, -1] > FEASIBILITY_TOL:
            return "infeasible", np.zeros(n_y)
        keep = _drive_out_artificials(M, basis, art_base)
        M = np.concatenate([M[keep, :art_base], M[keep, -1:]], axis=1)
        basis = basis[keep[:-1]]
        n_cols = art_base

    M[-1] = 0.0
    M[-1, :n_y] = c
    for r in range(len(basis)):
        j = basis[r]
        if M[-1, j] != 0.0:
            M[-1] -= M[-1, j] * M[r]
    enterable = np.ones(n_cols, dtype=bool)
    status = _pivot_until_optimal(M, basis, enterable)
    y = np.zeros(n_y)
    for r, j in enumerate(basis):
        if j < n_y:
            y[j] = max(M[r, -1], 0.0)
    return ("unbounded" if status == "unbounded" else "optimal"), y


def _pivot_until_optimal(
    M: np.ndarray, basis: np.ndarray, enterable: np.ndarray
) -> LpStatus:
    degenerate = 0
    bland = False
    for _ in range(_iteration_limit(M[:-1])):
        red = M[-1, :-1]
        candidates = np.flatnonzero((red < -OPTIMALITY_TOL) & enterable)
        if candidates.size == 0:
            return "optimal"
        if bland:
            q = int(candidates[0])
        else:
            q = int(candidates[np.argmin(red[candidates])])
        col = M[:-1, q]
        pos = col > PIVOT_TOL
        if not pos.any():
            return "unbounded"
        rhs = np.maximum(M[:-1, -1], 0.0)
        ratios = np.full(col.size, np.inf)
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
        _pivot(M, basis, p, q)
    raise NumericalBreakdown("simplex iteration limit exceeded")


def _iteration_limit(M: np.ndarray) -> int:  # M: the constraint rows
    return 20000 + 200 * (M.shape[0] + M.shape[1])


def _pivot(M: np.ndarray, basis: np.ndarray, p: int, q: int) -> None:
    row = M[p]
    row /= row[q]
    col = M[:, q].copy()
    col[p] = 0.0
    M -= col[:, None] * row
    basis[p] = q


def _drive_out_artificials(M: np.ndarray, basis: np.ndarray, art_base: int) -> np.ndarray:
    """Pivot basic artificials onto real columns; returns a row keep-mask,
    True on the reduced-cost row."""
    keep = np.ones(M.shape[0], dtype=bool)
    for r in range(basis.size):
        if basis[r] < art_base:
            continue
        row = M[r, :art_base]
        nz = np.flatnonzero(np.abs(row) > PIVOT_TOL)
        if nz.size == 0:
            keep[r] = False  # redundant row
            continue
        _pivot(M, basis, r, int(nz[0]))
    return keep
