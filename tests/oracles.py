"""Oracles used by the tests: exhaustive enumerations with no solver code,
slow reference versions of solver fast paths that must give the same bytes,
the bound arrays of a fixed LP, and a graph's edges as triples."""

from __future__ import annotations

import itertools
import math

import numpy as np

from confdive import simplex
from confdive.bnb import INT_TOL
from confdive.gcnn import PROB_CLAMP, ShapeMismatch
from confdive.instances import FEAS_TOL, MilpInstance
from confdive.simplex import FEASIBILITY_TOL, PIVOT_TOL, _solve_lp_arrays


def bounds_under(instance: MilpInstance, fixings: dict | None) -> tuple[np.ndarray, np.ndarray]:
    """The instance's (lo, hi) with each fixing as an equality bound, unchecked
    (``bnb.solve`` is where a fixing is checked)."""
    lo, hi = instance.bounds_arrays()
    for j, v in (fixings or {}).items():
        lo[j] = hi[j] = v
    return lo, hi


def edge_list(graph) -> list[tuple[int, int, float]]:
    """A ``BipartiteGraph``'s edges as (constraint, variable, feature) triples, in edge order."""
    return [(int(ci), int(vi), float(f))
            for ci, vi, f in zip(graph.edge_con, graph.edge_var, graph.edge_feat)]


def enumerate_binary_optimum(instance: MilpInstance, tol: float = 1e-9):
    """Exhaustive minimum over binary assignments via itertools; None if infeasible.

    Ties resolve to the lexicographically smallest vector because product()
    emits vectors in lexicographic order and only strict improvements replace.
    """
    A, b = instance.dense_matrix()
    c = instance.objective_vector()
    best = None
    for bits in itertools.product((0.0, 1.0), repeat=instance.n):
        x = np.array(bits)
        if instance.m and np.any(A @ x > b + tol):
            continue
        obj = float(c @ x)
        if best is None or obj < best[0]:
            best = (obj, x)
    return best


def enumerate_lp_optimum(
    c: np.ndarray,
    A: np.ndarray,
    b: np.ndarray,
    lb: np.ndarray,
    ub: np.ndarray,
    tol: float = 1e-7,
):
    """Exhaustive vertex enumeration for a box-bounded LP; returns (objective, x).

    Every vertex is the intersection of n active constraints drawn from the
    rows and the bound planes. Assumes the feasible region is a polytope
    (finite bounds), so the optimum sits on some vertex.
    """
    n = c.shape[0]
    rows = [(A[i], b[i]) for i in range(A.shape[0])]
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        rows.append((e.copy(), ub[j]))
        rows.append((-e, -lb[j]))
    best = None
    for combo in itertools.combinations(range(len(rows)), n):
        M = np.array([rows[i][0] for i in combo])
        rhs = np.array([rows[i][1] for i in combo])
        try:
            x = np.linalg.solve(M, rhs)
        except np.linalg.LinAlgError:
            continue
        if np.any(x < lb - tol) or np.any(x > ub + tol):
            continue
        if A.shape[0] and np.any(A @ x > b + tol):
            continue
        obj = float(c @ x)
        if best is None or obj < best[0] - 1e-12:
            best = (obj, x)
    return best


def random_feasible_lp(rng: np.random.Generator, n_vars: int, n_rows: int):
    """A random bounded LP guaranteed feasible: rhs gives an interior point slack."""
    c = rng.uniform(-5, 5, n_vars)
    A = rng.uniform(-3, 3, size=(n_rows, n_vars))
    ub = rng.uniform(1, 3, n_vars)
    lb = np.zeros(n_vars)
    x0 = rng.uniform(0.2, 0.8, n_vars) * ub
    b = A @ x0 + rng.uniform(0.1, 1.0, n_rows)
    return c, A, b, lb, ub


def _most_fractional(frac: np.ndarray, fractional_mask: np.ndarray) -> int:
    # distance to the nearest integer, largest first, ties to the lowest index
    score = np.where(fractional_mask, np.minimum(frac, 1.0 - frac), -1.0)
    return int(np.argmax(score))


def _rows_ok(A: np.ndarray, b: np.ndarray, values: np.ndarray) -> bool:
    return not A.shape[0] or bool(np.all(A @ values <= b + FEAS_TOL))


def rescan_dive_arrays(
    c: np.ndarray,
    A: np.ndarray,
    b: np.ndarray,
    int_mask: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    values: np.ndarray,
    order: list[int],
) -> np.ndarray | None:
    """Reference for ``bnb._dive_arrays``: rescans every variable for the most
    fractional one before each rounding, where the fast path sorts once per LP
    point. It takes the same arguments, and ignores ``order``."""
    lo = lo.copy()
    hi = hi.copy()
    vals = values.copy()
    has_continuous = bool((~int_mask).any())
    slack = (b - A @ vals) if A.shape[0] else np.zeros(0)
    for _ in range(int(int_mask.sum()) + 1):
        frac = np.abs(vals - np.round(vals))
        fractional = int_mask & (frac > INT_TOL)
        if not fractional.any():
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
        j = _most_fractional(frac, fractional)
        fpart = vals[j] - math.floor(vals[j])
        if fpart > 0.5 + 1e-12:
            preferred = math.floor(vals[j]) + 1
        elif fpart < 0.5 - 1e-12:
            preferred = math.floor(vals[j])
        else:
            preferred = math.floor(vals[j]) + (0 if c[j] >= 0 else 1)
        # in float, so an infinite bound stays infinite; + 0.0 turns -0.0 into 0.0
        j_lo, j_hi = np.ceil(lo[j] - FEAS_TOL) + 0.0, np.floor(hi[j] + FEAS_TOL) + 0.0
        preferred = min(max(preferred, j_lo), j_hi)
        other = preferred + 1 if preferred <= vals[j] else preferred - 1
        committed = False
        for r in (preferred, other):
            if not j_lo <= r <= j_hi:
                continue
            delta = float(r) - vals[j]
            new_slack = slack - A[:, j] * delta if A.shape[0] else slack
            if not A.shape[0] or bool(np.all(new_slack >= -FEAS_TOL)):
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
        vals = res.primal_values.copy()
        slack = (b - A @ vals) if A.shape[0] else slack
    return None


def concat_half_conv(model, name: str, graph, h_con: np.ndarray, h_var: np.ndarray, ws=None):
    """Reference for ``gcnn._half_conv``: the message affine multiplies the
    concatenated E x (2h+1) edge input [h_con[ci], h_var[vi], edge_feat] by ``msg.w``.

    Allocates its own arrays; the workspace ``ws`` is taken and not used."""
    msg, upd = getattr(model, f"{name}_msg"), getattr(model, f"{name}_upd")
    ci, vi = graph.edge_con, graph.edge_var
    idx, own = (ci, h_con) if name == "v2c" else (vi, h_var)
    m_in = np.concatenate([h_con[ci], h_var[vi], graph.edge_feat[:, None]], axis=1)
    z_msg = m_in @ msg.w + msg.b
    deg = np.maximum(np.bincount(idx, minlength=own.shape[0]), 1)
    s = np.zeros(own.shape)
    np.add.at(s, idx, np.maximum(z_msg, 0.0))
    s /= deg[:, None]
    u_in = np.concatenate([own, s], axis=1)
    z_upd = u_in @ upd.w + upd.b
    return np.maximum(z_upd, 0.0), (m_in, z_msg, deg, u_in, z_upd)


def concat_half_conv_backward(model, name: str, graph, saved: tuple, g_out: np.ndarray, grads: dict,
                              ws=None):
    """Reference for ``gcnn._half_conv_backward``: forms the E x (2h+1) edge-input
    gradient and scatters its two embedding parts back to the nodes. ``ws`` is not used.

    Returns d(loss)/d(h_con) and d(loss)/d(h_var), and adds the block gradients into ``grads``.
    """
    msg, upd = getattr(model, f"{name}_msg"), getattr(model, f"{name}_upd")
    m_in, z_msg, deg, u_in, z_upd = saved
    h = g_out.shape[1]
    ci, vi = graph.edge_con, graph.edge_var
    idx = ci if name == "v2c" else vi
    g_zu = g_out * (z_upd > 0)
    grads[f"{name}_upd.w"] += u_in.T @ g_zu
    grads[f"{name}_upd.b"] += g_zu.sum(axis=0)
    g_u_in = g_zu @ upd.w.T
    g_z = g_u_in[:, h:][idx] / deg[idx, None] * (z_msg > 0)
    grads[f"{name}_msg.w"] += m_in.T @ g_z
    grads[f"{name}_msg.b"] += g_z.sum(axis=0)
    g_m_in = g_z @ msg.w.T
    g_con, g_var = np.zeros((graph.n_cons, h)), np.zeros((graph.n_vars, h))
    np.add.at(g_con, ci, g_m_in[:, :h])
    np.add.at(g_var, vi, g_m_in[:, h : 2 * h])
    (g_con if name == "v2c" else g_var)[...] += g_u_in[:, :h]
    return g_con, g_var


def per_solution_graph_term(probs: np.ndarray, item, want_grad: bool):
    """Reference for ``gcnn._graph_term`` on an unpacked ``GraphTargets``: checks
    and sums one solution at a time, adding each term and gradient in solution order."""
    k = probs.shape[0]
    p = np.clip(probs, PROB_CLAMP, 1.0 - PROB_CLAMP)
    inside = (probs >= PROB_CLAMP) & (probs <= 1.0 - PROB_CLAMP)
    log_p, log_q, q = np.log(p), np.log1p(-p), 1.0 - p
    term = 0.0
    grad = np.zeros(k) if want_grad else None
    for sol in item.solutions:
        x = np.asarray(sol.values, dtype=np.float64)
        if x.shape != (k,):
            raise ShapeMismatch(f"target shape {x.shape} != ({k},)")
        if np.any((np.abs(x) > 1e-9) & (np.abs(x - 1.0) > 1e-9)):
            raise ValueError("target values must be 0 or 1")
        w = np.asarray(sol.weight, dtype=np.float64)
        if w.ndim == 0:
            w = np.full(k, float(w))
        if w.shape != (k,):
            raise ShapeMismatch(f"weight shape {w.shape} != ({k},)")
        if np.any(w < 0):
            raise ValueError("solution weights must be nonnegative")
        term += float(np.sum(w * (x * log_p + (1.0 - x) * log_q)))
        if want_grad:
            grad += w * (x / p - (1.0 - x) / q) * inside
    return term, grad


def mask_dual_pivot_until_feasible(M, costrow, basis, nonbasic_values, direction, lo, hi):
    """Reference for ``simplex._dual_pivot_until_feasible``: rebuilds the
    entering-candidate masks from ``at_upper`` and ``enterable`` at every pivot.

    Derives both masks from ``direction`` at entry and never reads
    ``nonbasic_values``; at the optimum it writes the nonbasic point of its own
    ``at_upper`` (0 on the basis) into ``nonbasic_values``. Reads the pivot, the
    iteration limit and the degenerate-pivot limit from the ``simplex`` module,
    so patches of those apply to both loops."""
    if not M.shape[0]:
        return None, 0
    at_upper, enterable = direction < 0.0, direction != 0.0
    lo_b, hi_b = lo[basis], hi[basis]
    degenerate = 0
    bland = False
    for pivots in range(simplex._iteration_limit(M)):
        values = M[:, -1]
        above = values - hi_b
        violation = np.maximum(lo_b - values, above)
        p = int(np.argmax(violation))
        if violation[p] <= FEASIBILITY_TOL:
            nonbasic_values[:] = np.where(at_upper, hi, lo)
            nonbasic_values[basis] = 0.0
            return None, pivots
        if bland:
            rows = np.flatnonzero(violation > FEASIBILITY_TOL)
            p = int(rows[np.argmin(basis[rows])])
        to_upper = bool(above[p] > 0.0)
        s_alpha = M[p, :-1] if to_upper else -M[p, :-1]
        toward = np.where(at_upper, -s_alpha, s_alpha)
        cand = np.flatnonzero(enterable & (toward > PIVOT_TOL))
        if cand.size == 0:
            return p, pivots
        ratios = np.maximum(costrow[cand] / s_alpha[cand], 0.0)
        best = ratios.min()
        tied = cand[ratios <= best + 1e-12]
        if bland:
            q = int(tied[0])
        else:
            q = int(tied[np.argmax(np.abs(s_alpha[tied]))])
        if best <= 1e-12:
            degenerate += 1
            if degenerate >= simplex.DEGENERATE_PIVOT_LIMIT:
                bland = True
        else:
            degenerate = 0
        leaving = int(basis[p])
        entering_value = hi[q] if at_upper[q] else lo[q]
        leaving_value = hi[leaving] if to_upper else lo[leaving]
        simplex._pivot(M, costrow, basis, p, q)
        M[:, -1] -= leaving_value * M[:, leaving]
        M[p, -1] += entering_value
        lo_b[p], hi_b[p] = lo[q], hi[q]
        at_upper[q] = enterable[q] = False
        at_upper[leaving] = to_upper
        enterable[leaving] = lo[leaving] < hi[leaving]
    raise simplex.NumericalBreakdown("dual simplex iteration limit exceeded")
