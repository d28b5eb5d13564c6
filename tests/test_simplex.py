import inspect

import numpy as np
import pytest

from confdive import simplex
from confdive.instances import (
    ConstraintDef,
    MilpInstance,
    VarDef,
    brute_force_solve,
    generate_covering,
    generate_knapsack,
)
from confdive.simplex import NumericalBreakdown, _solve_lp_arrays, solve_lp
from oracles import enumerate_lp_optimum, random_feasible_lp


def box_lp(c, A, b, lb, ub, name="lp"):
    n = len(c)
    var_defs = tuple(
        VarDef(f"x{j}", "continuous", float(lb[j]), float(ub[j]), float(c[j])) for j in range(n)
    )
    cons = tuple(
        ConstraintDef(f"r{i}", tuple((j, float(A[i, j])) for j in range(n) if A[i, j] != 0.0), float(b[i]))
        for i in range(A.shape[0])
    )
    return MilpInstance(name, var_defs, cons)


def test_single_row_lp():
    inst = box_lp(np.array([-1.0, -1.0]), np.array([[1.0, 1.0]]), np.array([1.0]),
                  np.zeros(2), np.ones(2))
    res = solve_lp(inst)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-1.0, abs=1e-9)


def test_fixing_forces_vertex():
    inst = box_lp(np.array([-1.0, -1.0]), np.array([[1.0, 1.0]]), np.array([1.0]),
                  np.zeros(2), np.ones(2))
    res = solve_lp(inst, {0: 1.0})
    assert res.objective == pytest.approx(-1.0, abs=1e-9)
    assert np.allclose(res.primal_values, [1.0, 0.0], atol=1e-9)


def test_fixing_outside_bounds_rejected():
    inst = box_lp(np.array([1.0]), np.zeros((0, 1)), np.zeros(0), np.zeros(1), np.ones(1))
    with pytest.raises(ValueError):
        solve_lp(inst, {0: 2.0})


def test_unbounded_reported():
    inst = MilpInstance("u", (VarDef("x", "continuous", 0.0, float("inf"), -1.0),), ())
    res = solve_lp(inst)
    assert res.status == "unbounded"
    assert res.objective == float("-inf")


def test_infeasible_reported():
    inst = MilpInstance(
        "i", (VarDef("x", "binary", 0.0, 1.0, 1.0),), (ConstraintDef("r", ((0, 1.0),), -1.0),)
    )
    assert solve_lp(inst).status == "infeasible"


def test_free_variable():
    inst = MilpInstance(
        "f",
        (VarDef("x", "continuous", float("-inf"), float("inf"), 1.0),),
        (ConstraintDef("r", ((0, -1.0),), 5.0),),  # -x <= 5, i.e. x >= -5
    )
    res = solve_lp(inst)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-5.0, abs=1e-9)


@pytest.mark.parametrize("seed", range(12))
def test_matches_vertex_enumeration(seed):
    rng = np.random.default_rng(seed)
    c, A, b, lb, ub = random_feasible_lp(rng, 2 + seed % 5, 1 + seed % 4)
    inst = box_lp(c, A, b, lb, ub)
    res = solve_lp(inst)
    expected = enumerate_lp_optimum(c, A, b, lb, ub)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(expected[0], abs=1e-6)


def test_optimal_point_within_tolerances():
    for seed in range(8):
        rng = np.random.default_rng(100 + seed)
        c, A, b, lb, ub = random_feasible_lp(rng, 5, 4)
        res = solve_lp(box_lp(c, A, b, lb, ub))
        assert res.status == "optimal"
        x = res.primal_values
        assert np.all(A @ x <= b + 1e-7)
        assert np.all(x >= lb - 1e-9) and np.all(x <= ub + 1e-9)


def test_weak_duality_vs_integer_optimum():
    for seed in range(10):
        inst = generate_covering(seed + 20, 9, 4)
        lp = solve_lp(inst)
        ip = brute_force_solve(inst)
        assert lp.objective <= ip.objective + 1e-6


def test_fixing_monotonicity():
    for seed in range(8):
        inst = generate_covering(seed + 40, 10, 5)
        base = solve_lp(inst).objective
        rng = np.random.default_rng(seed)
        fixings = {}
        prev = base
        for j in rng.permutation(inst.n)[:4]:
            fixings[int(j)] = float(rng.integers(0, 2))
            res = solve_lp(inst, fixings)
            if res.status == "infeasible":
                break
            assert res.objective >= prev - 1e-6
            prev = res.objective


def test_determinism_bitwise():
    inst = generate_covering(5, 12, 6)
    a = solve_lp(inst)
    b = solve_lp(inst)
    assert a.status == b.status
    assert a.objective == b.objective
    assert np.array_equal(a.primal_values, b.primal_values)


# ---------------------------------------------------------------------------
# Bounded dual simplex against the two-phase primal path
# ---------------------------------------------------------------------------


def lp_arrays(inst):
    A, b = inst.dense_matrix()
    lo, hi = inst.bounds_arrays()
    return inst.objective_vector(), A, b, lo, hi


def seeded_lps(count):
    """Covering and knapsack LPs, every other one under random 0/1 fixings."""
    rng = np.random.default_rng(7)
    for k in range(count):
        if k % 2:
            inst = generate_covering(500 + k, 16 + k % 25, 4 + k % 13)
        else:
            inst = generate_knapsack(500 + k, 8 + k % 25, 1 + k % 4)
        c, A, b, lo, hi = lp_arrays(inst)
        if k % 4 >= 2:
            idx = rng.choice(inst.n, size=int(rng.integers(1, inst.n // 2 + 1)), replace=False)
            lo[idx] = hi[idx] = rng.random(idx.size) < 0.2  # mostly zeros: some covers break
        yield c, A, b, lo, hi


def assert_same_answer(got, want):
    assert got.status == want.status
    if want.status == "optimal":
        assert abs(got.objective - want.objective) <= 1e-9 * max(1.0, abs(want.objective))


def solve_on(path, c, A, b, lo, hi):
    if path == "dual":
        return simplex._solve_dual(c, A, b, lo, hi, None)
    return simplex._solve_primal(c, A, b, lo, hi)


def count_calls(monkeypatch, name):
    calls = []
    original = getattr(simplex, name)

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(simplex, name, wrapper)
    return calls


def test_dual_path_matches_two_phase(monkeypatch):
    two_phase = count_calls(monkeypatch, "_two_phase")
    statuses = set()
    for c, A, b, lo, hi in seeded_lps(80):
        dual = _solve_lp_arrays(c, A, b, lo, hi)
        assert not two_phase, "a binary LP left the dual path"
        if dual.status == "optimal":
            assert dual.basis.shape == (A.shape[0],)
        assert_same_answer(dual, simplex._solve_primal(c, A, b, lo, hi))
        two_phase.clear()
        statuses.add(dual.status)
    assert statuses == {"optimal", "infeasible"}


def test_warm_start_after_one_bound_change_matches_cold_start():
    """Walk down a branch, one fixing per step, each LP warm-started from its parent."""
    rng = np.random.default_rng(11)
    statuses = []
    for c, A, b, lo, hi in seeded_lps(40):
        # fixing a covering variable to 0, or a knapsack item to 1, tightens the LP
        value = 0.0 if np.all(b < 0) else 1.0
        parent = _solve_lp_arrays(c, A, b, lo, hi)
        while parent.status == "optimal" and np.any(lo < hi):
            j = int(rng.choice(np.flatnonzero(lo < hi)))
            lo, hi = lo.copy(), hi.copy()
            lo[j] = hi[j] = value
            warm = _solve_lp_arrays(c, A, b, lo, hi, basis=parent.basis)
            assert_same_answer(warm, _solve_lp_arrays(c, A, b, lo, hi))
            assert_same_answer(warm, simplex._solve_primal(c, A, b, lo, hi))
            statuses.append(warm.status)
            parent = warm
    assert statuses.count("infeasible") >= 10 and statuses.count("optimal") >= 100


def test_warm_start_to_infeasible_child():
    # x0 + x1 >= 1 with x0 fixed to 0: the child must fix x1 = 0 and become infeasible
    inst = MilpInstance(
        "cover",
        (VarDef("x0", "binary", 0.0, 1.0, 1.0), VarDef("x1", "binary", 0.0, 1.0, 2.0)),
        (ConstraintDef("r", ((0, -1.0), (1, -1.0)), -1.0),),
    )
    c, A, b, lo, hi = lp_arrays(inst)
    parent = _solve_lp_arrays(c, A, b, lo, hi)
    assert parent.objective == pytest.approx(1.0)
    lo[0] = hi[0] = 0.0
    hi[1] = 0.0
    child = _solve_lp_arrays(c, A, b, lo, hi, basis=parent.basis)
    assert child.status == "infeasible" and child.basis is None


@pytest.mark.parametrize("bad", ["duplicate", "short", "out_of_range", "float", "singular"])
def test_unusable_basis_falls_back_to_slack_start(bad):
    inst = generate_covering(3, 10, 6)
    c, A, b, lo, hi = lp_arrays(inst)
    m, n = A.shape
    A = np.column_stack([A, A[:, 0]])  # a duplicate column makes a singular basis possible
    c, lo, hi = np.append(c, c[0]), np.append(lo, 0.0), np.append(hi, 1.0)
    n += 1
    slack = np.arange(n, n + m)
    basis = {
        "duplicate": np.full(m, n),
        "short": slack[:-1],
        "out_of_range": slack + 1,
        "float": slack.astype(float),
        "singular": np.concatenate([[0, n - 1], slack[2:]]),
    }[bad]
    K = np.column_stack([A, np.eye(m), b])
    c_f = np.concatenate([c, np.zeros(m)])
    lo_f, hi_f = np.concatenate([lo, np.zeros(m)]), np.concatenate([hi, np.full(m, np.inf)])
    assert simplex._warm_start(K, c_f, lo_f, hi_f, basis) is None
    cold = _solve_lp_arrays(c, A, b, lo, hi)
    warm = _solve_lp_arrays(c, A, b, lo, hi, basis=basis)
    assert warm.status == cold.status == "optimal"
    assert warm.objective == cold.objective
    assert np.array_equal(warm.primal_values, cold.primal_values)


def test_dual_infeasible_basis_falls_back_to_slack_start():
    # x0 + x1 <= 1 at positive costs: with x0 basic the slack's reduced cost is -1,
    # which would put the slack at its infinite upper bound
    inst = MilpInstance(
        "pack",
        (VarDef("x0", "binary", 0.0, 1.0, 1.0), VarDef("x1", "binary", 0.0, 1.0, 1.0)),
        (ConstraintDef("r", ((0, 1.0), (1, 1.0)), 1.0),),
    )
    c, A, b, lo, hi = lp_arrays(inst)
    K = np.column_stack([A, np.eye(1), b])
    c_f, lo_f, hi_f = np.append(c, 0.0), np.append(lo, 0.0), np.append(hi, np.inf)
    assert simplex._warm_start(K, c_f, lo_f, hi_f, np.array([0])) is None
    assert simplex._warm_start(K, c_f, lo_f, hi_f, np.array([2])) is not None
    res = _solve_lp_arrays(c, A, b, lo, hi, basis=np.array([0]))
    assert res.status == "optimal" and res.objective == 0.0 and list(res.basis) == [2]


def test_optimal_basis_restarts_without_pivots(monkeypatch):
    c, A, b, lo, hi = lp_arrays(generate_covering(4, 20, 12))
    first = _solve_lp_arrays(c, A, b, lo, hi)
    pivots = count_calls(monkeypatch, "_pivot")
    again = _solve_lp_arrays(c, A, b, lo, hi, basis=first.basis)
    assert pivots == []
    assert again.objective == pytest.approx(first.objective, abs=1e-9)


@pytest.mark.parametrize("kind", ["free", "negative_cost_unbounded_above"])
def test_unbounded_directions_take_the_primal_path(monkeypatch, kind):
    lower = float("-inf") if kind == "free" else 0.0
    cost = 1.0 if kind == "free" else -1.0
    inst = MilpInstance(
        kind,
        (VarDef("x", "continuous", lower, float("inf"), cost), VarDef("y", "binary", 0, 1, 1.0)),
        (ConstraintDef("r", ((0, -1.0), (1, 1.0)), 5.0), ConstraintDef("s", ((0, 1.0),), 7.0)),
    )
    two_phase = count_calls(monkeypatch, "_two_phase")
    c, A, b, lo, hi = lp_arrays(inst)
    res = _solve_lp_arrays(c, A, b, lo, hi, basis=np.arange(2, 4))
    assert len(two_phase) == 1 and res.basis is None
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-5.0 if kind == "free" else -7.0, abs=1e-9)


def test_two_phase_keeps_its_signature():
    assert list(inspect.signature(simplex._two_phase).parameters) == ["A", "b", "c"]


@pytest.mark.parametrize("path", ["dual", "primal"])
def test_every_pivot_goes_through_module_pivot(monkeypatch, path):
    pivots = count_calls(monkeypatch, "_pivot")
    c, A, b, lo, hi = lp_arrays(generate_covering(8, 16, 10))
    res = solve_on(path, c, A, b, lo, hi)
    assert res.status == "optimal" and pivots
    for M, costrow, basis, p, q in pivots:
        assert M.ndim == 2 and costrow.shape == (M.shape[1],) and basis.shape == (M.shape[0],)


@pytest.mark.parametrize("path", ["dual", "primal"])
def test_smallest_index_rule_reaches_the_same_optimum(monkeypatch, path):
    pivots = count_calls(monkeypatch, "_pivot")
    lps = list(seeded_lps(16))
    want = [solve_on(path, *lp) for lp in lps]
    default_order = [q for *_, q in pivots]
    pivots.clear()
    monkeypatch.setattr(simplex, "DEGENERATE_PIVOT_LIMIT", 1)
    for lp, expected in zip(lps, want):
        assert_same_answer(solve_on(path, *lp), expected)
    assert [q for *_, q in pivots] != default_order  # the switch took effect


@pytest.mark.parametrize("path", ["dual", "primal"])
def test_iteration_limit_raises(monkeypatch, path):
    monkeypatch.setattr(simplex, "_iteration_limit", lambda M: 2)
    c, A, b, lo, hi = lp_arrays(generate_covering(8, 16, 10))
    with pytest.raises(NumericalBreakdown):
        solve_on(path, c, A, b, lo, hi)


def test_dual_path_row_check_catches_a_bogus_optimum(monkeypatch):
    monkeypatch.setattr(simplex, "_dual_pivot_until_feasible", lambda *args: None)
    c, A, b, lo, hi = lp_arrays(generate_covering(8, 16, 10))
    with pytest.raises(NumericalBreakdown):
        _solve_lp_arrays(c, A, b, lo, hi)


def test_unconfirmed_infeasibility_is_re_solved_on_the_primal_path(monkeypatch):
    inst = MilpInstance(
        "i", (VarDef("x", "binary", 0.0, 1.0, 1.0),), (ConstraintDef("r", ((0, 1.0),), -1.0),)
    )
    c, A, b, lo, hi = lp_arrays(inst)
    u = np.ones(1)
    assert simplex._proves_infeasible(u, A, b, np.array([0.0, 0.0]), np.array([1.0, np.inf]))
    assert not simplex._proves_infeasible(u, A, b + 2.0, np.array([0.0, 0.0]),
                                          np.array([1.0, np.inf]))
    two_phase = count_calls(monkeypatch, "_two_phase")
    monkeypatch.setattr(simplex, "_proves_infeasible", lambda *args: False)
    assert _solve_lp_arrays(c, A, b, lo, hi).status == "infeasible"
    assert len(two_phase) == 1


def test_crossed_bounds_are_infeasible():
    c, A, b, lo, hi = lp_arrays(generate_covering(8, 16, 10))
    lo[3], hi[3] = 1.0, 0.0
    assert _solve_lp_arrays(c, A, b, lo, hi).status == "infeasible"
    assert simplex._solve_primal(c, A, b, lo, hi).status == "infeasible"
