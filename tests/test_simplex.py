import copy
import inspect
import pickle

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
from oracles import (
    bounds_under,
    enumerate_lp_optimum,
    mask_dual_pivot_until_feasible,
    random_feasible_lp,
)


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
    res = _solve_lp_arrays(*lp_arrays(inst, {0: 1.0}))
    assert res.objective == pytest.approx(-1.0, abs=1e-9)
    assert np.allclose(res.primal_values, [1.0, 0.0], atol=1e-9)


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
            res = _solve_lp_arrays(*lp_arrays(inst, fixings))
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


def lp_arrays(inst, fixings=None):
    A, b = inst.dense_matrix()
    return inst.objective_vector(), A, b, *bounds_under(inst, fixings)


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
        return simplex._solve_dual(c, A, b, lo, hi)
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
            assert dual.tableau.basis.shape == (A.shape[0],)
        assert_same_answer(dual, simplex._solve_primal(c, A, b, lo, hi))
        two_phase.clear()
        statuses.add(dual.status)
    assert statuses == {"optimal", "infeasible"}


def refactorizing(basis):
    """A tableau that has taken REFACTOR_PIVOTS pivots: a solve from it reads
    only ``basis``, which it factorizes."""
    unread = np.zeros(0)
    return simplex.DualTableau(M=unread, costrow=unread, basis=np.array(basis),
                               nonbasic_values=unread, pivots=simplex.REFACTOR_PIVOTS)


def warm_start_chains(count, shift=0.0):
    """Walk down a branch of each seeded LP, one fixing per step, each LP
    starting from its parent's final tableau: yields (c, A, b, lo, hi, parent
    tableau), the tableau None at the root. ``shift`` moves every variable's
    bounds, and so the rows' right-hand sides, up by that much."""
    rng = np.random.default_rng(11)
    for c, A, b, lo, hi in seeded_lps(count):
        # fixing a covering variable to 0, or a knapsack item to 1, tightens the LP
        value = (0.0 if np.all(b < 0) else 1.0) + shift
        b, lo, hi = b + A.sum(axis=1) * shift, lo + shift, hi + shift
        parent = None
        while True:
            yield c, A, b, lo, hi, parent and parent.tableau
            res = _solve_lp_arrays(c, A, b, lo, hi, tableau=parent and parent.tableau)
            if res.status != "optimal" or not np.any(lo < hi):
                break
            j = int(rng.choice(np.flatnonzero(lo < hi)))
            lo, hi = lo.copy(), hi.copy()
            lo[j] = hi[j] = value
            parent = res


def test_warm_start_after_one_bound_change_matches_cold_start():
    """Each LP down a branch, started from its parent's factorized basis or
    from its parent's final tableau, matches a cold start and the primal path."""
    statuses = []
    for c, A, b, lo, hi, tableau in warm_start_chains(40):
        if tableau is None:
            continue
        cold = _solve_lp_arrays(c, A, b, lo, hi)
        primal = simplex._solve_primal(c, A, b, lo, hi)
        for start in (refactorizing(tableau.basis), tableau):
            warm = _solve_lp_arrays(c, A, b, lo, hi, tableau=start)
            assert_same_answer(warm, cold)
            assert_same_answer(warm, primal)
        statuses.append(cold.status)
    assert statuses.count("infeasible") >= 10 and statuses.count("optimal") >= 100


def test_inherited_start_moves_a_nonbasic_column_to_its_new_bound():
    """A knapsack item that sits nonbasic at its upper bound, fixed to 0: the
    basic values shift by its column before the dual pivots start."""
    moved = 0
    for seed in range(6):
        c, A, b, lo, hi = lp_arrays(generate_knapsack(600 + seed, 30, 2))
        parent = _solve_lp_arrays(c, A, b, lo, hi)
        for j in np.flatnonzero(parent.tableau.nonbasic_values[: c.size] == hi):
            clo, chi = lo.copy(), hi.copy()
            clo[j] = chi[j] = 0.0
            child = _solve_lp_arrays(c, A, b, clo, chi, tableau=parent.tableau)
            assert_same_answer(child, _solve_lp_arrays(c, A, b, clo, chi))
            assert_same_answer(child, simplex._solve_primal(c, A, b, clo, chi))
            moved += 1
    assert moved >= 20


def tableau_bytes(tableau):
    return [a.tobytes() for a in (tableau.M, tableau.costrow, tableau.basis,
                                  tableau.nonbasic_values)]


def test_siblings_solve_the_same_in_either_order_and_leave_the_parent_unchanged():
    pairs = 0
    for c, A, b, lo, hi in seeded_lps(24):
        parent = _solve_lp_arrays(c, A, b, lo, hi)
        if parent.status != "optimal":
            continue
        x = parent.primal_values
        fractional = np.flatnonzero(np.abs(x - np.round(x)) > 1e-6)
        if not fractional.size:
            continue
        j = int(fractional[0])
        hi_down, lo_up = hi.copy(), lo.copy()
        hi_down[j], lo_up[j] = np.floor(x[j]), np.ceil(x[j])
        children = [(lo, hi_down), (lo_up, hi)]
        before = tableau_bytes(parent.tableau)
        down_first = [_solve_lp_arrays(c, A, b, *ch, tableau=parent.tableau) for ch in children]
        up_first = [_solve_lp_arrays(c, A, b, *ch, tableau=parent.tableau) for ch in children[::-1]]
        for got, want, child in zip(down_first, up_first[::-1], children):
            assert_identical(got, want)
            assert_same_answer(got, simplex._solve_primal(c, A, b, *child))
        assert tableau_bytes(parent.tableau) == before
        assert not parent.tableau.M.flags.writeable
        pairs += 1
    assert pairs >= 8


def test_inherited_chains_match_when_every_tableau_is_refactorized(monkeypatch):
    monkeypatch.setattr(simplex, "REFACTOR_PIVOTS", 1)
    factorizations = count_calls(monkeypatch, "_factorize")
    pivots = count_calls(monkeypatch, "_pivot")
    refactorized = 0
    for c, A, b, lo, hi, tableau in warm_start_chains(20):
        if tableau is None:
            continue
        factorizations.clear()
        pivots.clear()
        got = _solve_lp_arrays(c, A, b, lo, hi, tableau=tableau)
        inherited = 0 if factorizations else tableau.pivots
        of_a_basis = sum(args[3] is not None for args in factorizations)  # not the slack basis
        assert of_a_basis == (tableau.pivots >= 1)
        refactorized += of_a_basis
        if got.status == "optimal":
            assert got.tableau.pivots == inherited + len(pivots)
        assert_same_answer(got, _solve_lp_arrays(c, A, b, lo, hi))
        assert_same_answer(got, simplex._solve_primal(c, A, b, lo, hi))
    assert refactorized >= 100


@pytest.mark.parametrize("shift", [0.0, 1.0])
@pytest.mark.parametrize("refactor_pivots", [simplex.REFACTOR_PIVOTS, 1])
def test_final_tableau_holds_the_point_of_its_basic_values(monkeypatch, refactor_pivots, shift):
    """Down each chain, with inherited or (at REFACTOR_PIVOTS = 1) factorized
    starts: the final nonbasic values are 0 on the basis and the solve's lower
    or upper bound elsewhere, and with the basic values they make [x, b - A x].
    A shift of 1 puts no structural lower bound at 0."""
    monkeypatch.setattr(simplex, "REFACTOR_PIVOTS", refactor_pivots)
    factorizations = count_calls(monkeypatch, "_factorize")
    checked = 0
    for c, A, b, lo, hi, tableau in warm_start_chains(20, shift):
        res = _solve_lp_arrays(c, A, b, lo, hi, tableau=tableau)
        if res.status != "optimal":
            continue
        T, (m, n) = res.tableau, A.shape
        lo_f, hi_f = np.append(lo, np.zeros(m)), np.append(hi, np.full(m, np.inf))
        nonbasic = np.ones(n + m, dtype=bool)
        nonbasic[T.basis] = False
        values = T.nonbasic_values
        assert not values[T.basis].any()
        assert np.all((values == lo_f) | (values == hi_f) | ~nonbasic)
        full = values.copy()
        full[T.basis] = T.M[:, -1]
        assert np.max(np.abs(full[n:] - (b - A @ full[:n])), initial=0.0) <= 1e-9
        assert np.array_equal(np.clip(full[:n], lo, hi), res.primal_values)
        checked += 1
    assert checked >= 100
    refactorized = sum(args[3] is not None for args in factorizations)
    assert refactorized >= 100 if refactor_pivots == 1 else refactorized == 0


def test_deep_inherited_chain_stays_close_to_a_fresh_factorization(monkeypatch):
    """Twice as many inherited pivots as REFACTOR_PIVOTS allows, with no
    refactorization: the primal values still match those of the final basis
    factorized from the original data."""
    limit = simplex.REFACTOR_PIVOTS
    monkeypatch.setattr(simplex, "REFACTOR_PIVOTS", 10**9)
    c, A, b, lo, hi = lp_arrays(generate_covering(70, 120, 80))
    m, n = A.shape
    AI = np.column_stack([A, np.eye(m)])
    res = _solve_lp_arrays(c, A, b, lo, hi)
    depth = 0
    while True:
        x = res.primal_values
        frac = np.abs(x - np.round(x))
        fractional = np.flatnonzero(frac > 1e-6)
        if not fractional.size:
            break
        j = fractional[np.argmax(np.minimum(frac[fractional], 1.0 - frac[fractional]))]
        lo, hi = lo.copy(), hi.copy()
        lo[j] = hi[j] = 0.0 if depth % 3 == 0 else 1.0
        child = _solve_lp_arrays(c, A, b, lo, hi, tableau=res.tableau)
        if child.status != "optimal":
            break
        res, depth = child, depth + 1
        T = res.tableau
        full = T.nonbasic_values.copy()
        full[T.basis] = np.linalg.solve(AI[:, T.basis], b - AI @ full)
        assert np.max(np.abs(np.clip(full[:n], lo, hi) - res.primal_values)) <= 1e-9
    assert depth >= 40 and res.tableau.pivots >= 2 * limit


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
    child = _solve_lp_arrays(c, A, b, lo, hi, tableau=refactorizing(parent.tableau.basis))
    assert child.status == "infeasible" and child.tableau is None


def test_breakdown_from_an_inherited_tableau_is_re_solved_from_the_slack_basis():
    # 1e7 x <= 1e7 - 1: the root's x = 1 - 1e-7 sits within FEASIBILITY_TOL of the
    # child's bound x = 1, so the inherited solve stops with the row violated by 1
    a = 1e7
    inst = MilpInstance(
        "scaled", (VarDef("x", "binary", 0.0, 1.0, -1.0),), (ConstraintDef("c", ((0, a),), a - 1),)
    )
    c, A, b, lo, hi = lp_arrays(inst)
    root = _solve_lp_arrays(c, A, b, lo, hi)
    assert root.status == "optimal" and 1.0 - root.primal_values[0] < simplex.FEASIBILITY_TOL
    lo[0] = 1.0
    with pytest.raises(NumericalBreakdown, match="violates a row"):
        simplex._solve_dual(c, A, b, lo, hi, root.tableau)
    child = _solve_lp_arrays(c, A, b, lo, hi, tableau=root.tableau)
    assert child.status == _solve_lp_arrays(*lp_arrays(inst, {0: 1.0})).status == "infeasible"


@pytest.mark.parametrize("bad", ["singular", "near_singular"])
def test_unusable_basis_falls_back_to_slack_start(bad):
    inst = generate_covering(3, 10, 6)
    c, A, b, lo, hi = lp_arrays(inst)
    m, n = A.shape
    # a copy of column 0 makes a singular basis possible; nudged by 1e-12 in
    # row 1 (A[0, 0] is nonzero), it makes one that factorizes with entries near 1e12
    copy = A[:, 0].copy()
    if bad == "near_singular":
        copy[1] += 1e-12
    A = np.column_stack([A, copy])
    c, lo, hi = np.append(c, c[0]), np.append(lo, 0.0), np.append(hi, 1.0)
    n += 1
    slack = np.arange(n, n + m)
    basis = np.concatenate([[0, n - 1], slack[2:]])
    if bad == "near_singular":
        K = np.column_stack([A, np.eye(m), b])
        growth = np.max(np.abs(np.linalg.solve(K[:, basis], K)))
        assert growth > simplex.WARM_START_GROWTH_LIMIT
    assert np.array_equal(simplex._factorize(c, A, b, basis).basis, slack)
    cold = _solve_lp_arrays(c, A, b, lo, hi)
    warm = _solve_lp_arrays(c, A, b, lo, hi, tableau=refactorizing(basis))
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
    lo_f, hi_f = np.append(lo, 0.0), np.append(hi, np.inf)
    assert simplex._inherit(simplex._factorize(c, A, b, np.array([0])), lo_f, hi_f) is None
    assert simplex._inherit(simplex._factorize(c, A, b, np.array([2])), lo_f, hi_f) is not None
    res = _solve_lp_arrays(c, A, b, lo, hi, tableau=refactorizing([0]))
    assert res.status == "optimal" and res.objective == 0.0 and list(res.tableau.basis) == [2]


def test_optimal_basis_restarts_without_pivots(monkeypatch):
    c, A, b, lo, hi = lp_arrays(generate_covering(4, 20, 12))
    first = _solve_lp_arrays(c, A, b, lo, hi)
    pivots = count_calls(monkeypatch, "_pivot")
    again = _solve_lp_arrays(c, A, b, lo, hi, tableau=refactorizing(first.tableau.basis))
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
    res = _solve_lp_arrays(c, A, b, lo, hi, tableau=refactorizing(np.arange(2, 4)))
    assert len(two_phase) == 1 and res.tableau is None
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
    monkeypatch.setattr(simplex, "_dual_pivot_until_feasible", lambda *args: (None, 0))
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


@pytest.mark.parametrize("clone", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_a_cloned_root_lp_stays_read_only(clone):
    instance = generate_covering(5, 16, 10)
    root = instance.root_lp
    twin = clone(instance).__dict__["root_lp"]  # the cached result travels with the instance
    assert twin.primal_values.tobytes() == root.primal_values.tobytes()
    tableau = twin.tableau
    arrays = [twin.primal_values, tableau.M, tableau.costrow, tableau.basis, tableau.nonbasic_values]
    assert not any(a.flags.writeable for a in arrays)


# ---------------------------------------------------------------------------
# Dual pivot loop against its mask-rebuilding reference
# ---------------------------------------------------------------------------


def assert_identical(got, want):
    assert got.status == want.status
    assert np.float64(got.objective).tobytes() == np.float64(want.objective).tobytes()
    assert got.primal_values.tobytes() == want.primal_values.tobytes()
    assert (got.tableau is None) == (want.tableau is None)
    if want.tableau is not None:
        assert tableau_bytes(got.tableau) == tableau_bytes(want.tableau)


def fixed_column_reentry_lp():
    """A child LP whose ratio test would take a fixed column back into the basis.

    x2 is basic at 1/3 at the root. The child fixes it to 1 and starts from
    the root's final tableau: x2 leaves at the first pivot, and four pivots
    later the ratio test would choose its column again, were it not fixed.
    """
    c = np.array([1.0, 2.0, 0.0, 0.0, 0.0, 2.0, 1.0])
    A = np.array([
        [-2.0, -2.0, -1.0, 3.0, 2.0, -1.0, 1.0],
        [-1.0, -2.0, -2.0, -3.0, -1.0, 1.0, 1.0],
        [2.0, 1.0, 0.0, 2.0, 1.0, -2.0, 2.0],
        [3.0, -2.0, 0.0, 1.0, -1.0, 3.0, -1.0],
        [1.0, 3.0, 1.0, -1.0, -3.0, -2.0, 1.0],
    ])
    b = np.array([0.0, -1.0, 4.0, 3.0, 2.0])
    lo, hi = np.zeros(7), np.array([1.0, 1.0, 2.0, 1.0, 1.0, 2.0, 1.0])
    root = _solve_lp_arrays(c, A, b, lo, hi)
    assert list(root.tableau.basis) == [2, 3, 9, 10, 11]
    lo, hi = lo.copy(), hi.copy()
    lo[2] = hi[2] = 1.0
    return c, A, b, lo, hi, root.tableau


def benchmark_shape_chains():
    """Covering LPs at the benchmark shapes, 40 x 32 and 120 x 80: each root
    starts cold, and each child down one branch starts from its parent's final
    tableau. Each step fixes the variable with the largest value to 0, until
    the LP is infeasible or the depth runs out. Yields (c, A, b, lo, hi,
    parent tableau)."""
    for seed, n, m, depth in ((41, 40, 32, 20), (42, 40, 32, 20), (43, 120, 80, 10),
                              (44, 120, 80, 10)):
        c, A, b, lo, hi = lp_arrays(generate_covering(seed, n, m))
        parent = None
        for _ in range(depth):
            yield c, A, b, lo, hi, parent and parent.tableau
            res = _solve_lp_arrays(c, A, b, lo, hi, tableau=parent and parent.tableau)
            if res.status != "optimal":
                break
            lo, hi = lo.copy(), hi.copy()
            hi[int(np.argmax(res.primal_values))] = 0.0
            parent = res


def solve_all(lps):
    return [_solve_lp_arrays(*lp, tableau=tableau) for *lp, tableau in lps]


@pytest.mark.parametrize("corpus", ["cold", "warm", "bland", "benchmark"])
def test_dual_loop_matches_its_reference_bit_for_bit(monkeypatch, corpus):
    """Same results and the same pivots as the loop that rebuilds its masks at every pivot."""
    if corpus == "warm":
        lps = list(warm_start_chains(40))
        lps.append(fixed_column_reentry_lp())
    elif corpus == "benchmark":
        lps = list(benchmark_shape_chains())
    else:
        lps = [(*lp, None) for lp in seeded_lps(80 if corpus == "cold" else 16)]
    pivots = count_calls(monkeypatch, "_pivot")
    if corpus == "bland":
        solve_all(lps)
        default_order = [(p, q) for *_, p, q in pivots]
        pivots.clear()
        monkeypatch.setattr(simplex, "DEGENERATE_PIVOT_LIMIT", 1)
    got = solve_all(lps)
    got_pivots = [(p, q) for *_, p, q in pivots]
    pivots.clear()
    calls = []

    def reference(*args):
        calls.append(1)
        return mask_dual_pivot_until_feasible(*args)

    monkeypatch.setattr(simplex, "_dual_pivot_until_feasible", reference)
    want = solve_all(lps)
    assert len(calls) == len(lps)  # every LP of the corpus takes the dual path
    for g, w in zip(got, want):
        assert_identical(g, w)
    assert got_pivots == [(p, q) for *_, p, q in pivots]
    assert {r.status for r in want} == {"optimal", "infeasible"}
    if corpus == "bland":
        assert got_pivots != default_order  # the smallest-index rule took effect
