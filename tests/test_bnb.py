import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confdive import bnb, simplex
from confdive.bnb import (
    InfeasibleSubproblem,
    SolverConfig,
    parse_pool,
    serialize_pool,
    solve,
)
from confdive.instances import (
    ConstraintDef,
    Infeasible,
    MilpInstance,
    VarDef,
    brute_force_solve,
    check_feasibility,
    generate_covering,
    generate_knapsack,
    parse_instance,
)
from confdive.simplex import _solve_lp_arrays, solve_lp

from oracles import bounds_under, rescan_dive_arrays

BIG = SolverConfig(step_limit=10**6)


def test_worked_knapsack_proves_optimal():
    inst = generate_knapsack(1, 3, 1)
    oracle = brute_force_solve(inst)
    traj, _ = solve(inst, {}, SolverConfig(step_limit=10**4))
    assert traj.proved_optimal
    assert traj.final_objective() == pytest.approx(oracle.objective, abs=1e-9)


def test_contradictory_fixings_raise():
    inst = generate_knapsack(1, 3, 1)  # capacity below total weight
    with pytest.raises(InfeasibleSubproblem):
        solve(inst, {j: 1 for j in range(inst.n)}, BIG)


def test_fully_fixed_is_feasibility_check():
    inst = generate_knapsack(1, 3, 1)
    oracle = brute_force_solve(inst)
    traj, _ = solve(inst, {j: int(v) for j, v in enumerate(oracle.values)}, BIG)
    assert len(traj.events) == 1
    assert traj.events[0].objective == pytest.approx(oracle.objective, abs=1e-9)


_COVER = generate_covering(4, 12, 6)
#: Twelve binaries, then a continuous variable at index 12.
MIXED = MilpInstance(
    "mixed", (*_COVER.vars, VarDef("y", "continuous", 0, 1, 1.0)), _COVER.constraints
)


#: Each fixing ``bnb.solve`` rejects, with its message; None marks a spelling of ``{0: 1}``.
FIXING_CASES = [
    ({-1: 1}, "out of range"),
    ({13: 1}, "out of range"),
    ({12: 1}, "fixings apply only to binary variables"),
    ({0: 0.5}, "must be 0 or 1"),
    ({0: 2}, "must be 0 or 1"),
    ({0: float("nan")}, "must be 0 or 1"),
    ({0: float("inf")}, "must be 0 or 1"),
    ({0: float("-inf")}, "must be 0 or 1"),
    ({0: True}, None),
    ({0: np.int64(1)}, None),
    ({0: 1.0 + 1e-7}, None),
]


def test_fixings_validated():
    """``bnb.solve`` rejects a fixing with one message, or solves it as ``{0: 1}``."""
    config = SolverConfig(step_limit=200, heuristic_emphasis="aggressive")
    want, _ = solve(MIXED, {0: 1}, config)
    assert want.events
    for fixings, message in FIXING_CASES:
        if message is not None:
            with pytest.raises(ValueError, match=message):
                solve(MIXED, fixings, config)
            continue
        got, _ = solve(MIXED, fixings, config)
        assert got.terminal_step == want.terminal_step, fixings
        assert [(e.step, e.objective, e.values.tobytes()) for e in got.events] == [
            (e.step, e.objective, e.values.tobytes()) for e in want.events
        ], fixings


@pytest.mark.parametrize("seed", range(15))
def test_exactness_small_instances(seed):
    n = 4 + seed % 9
    inst = (
        generate_knapsack(seed, n, 1 + seed % 3)
        if seed % 2
        else generate_covering(seed, n, max(1, n // 2))
    )
    oracle = brute_force_solve(inst)
    traj, _ = solve(inst, {}, BIG)
    assert traj.proved_optimal
    assert traj.final_objective() == pytest.approx(oracle.objective, abs=1e-6)
    # oracle optimality: nothing the solver found beats the oracle
    for event in traj.events:
        assert event.objective >= oracle.objective - 1e-9


@pytest.mark.parametrize("emphasis", ["off", "aggressive"])
@pytest.mark.parametrize(
    "text, optimum",
    [
        ("VAR x binary 0 1 -1\nCON c le 1999999 0:2000000\n", 0.0),
        ("VAR x binary 0 1 -1\nVAR z binary 0 1 -1\nCON c le 1999999 0:2000000\nCON d le 1 1:1\n",
         -1.0),
        ("VAR x integer 0 2 -1\nVAR y continuous 0 10 10\nCON c le 1999999 0:2000000 1:-1\n", 0.0),
    ],
    ids=["one-row", "two-rows", "mixed"],
)
def test_near_integral_point_that_breaks_a_row_is_branched_on(text, optimum, emphasis):
    # the root LP puts x at 0.9999995, within INT_TOL of 1, where the row fails
    traj, _ = solve(parse_instance(text), {}, SolverConfig(step_limit=100, heuristic_emphasis=emphasis))
    assert traj.proved_optimal
    assert traj.final_objective() == optimum


@st.composite
def planted_instances(draw):
    """2-8 binaries and 0-3 small rows, plus a planted row a x_j <= a - 1 that
    forces x_j to 0 while its LP value stays within 1/a of 1."""
    n = draw(st.integers(2, 8))
    costs = draw(st.lists(st.integers(-10, 10), min_size=n, max_size=n))
    j = draw(st.integers(0, n - 1))
    costs[j] = draw(st.integers(-10, -1))
    a = float(draw(st.integers(10**6 + 1, 10**9)))
    rows = [
        ConstraintDef(f"r{k}", tuple((i, float(v)) for i, v in enumerate(coefs) if v), float(rhs))
        for k, (coefs, rhs) in enumerate(draw(st.lists(
            st.tuples(st.lists(st.integers(-5, 5), min_size=n, max_size=n), st.integers(-5, 10)),
            max_size=3,
        )))
    ]
    rows.insert(draw(st.integers(0, len(rows))), ConstraintDef("planted", ((j, a),), a - 1))
    var_defs = tuple(VarDef(f"x{i}", "binary", 0.0, 1.0, float(v)) for i, v in enumerate(costs))
    return MilpInstance("planted", var_defs, tuple(rows))


@settings(max_examples=150, deadline=None)
@given(planted_instances())
def test_exact_on_badly_scaled_rows(inst):
    config = SolverConfig(step_limit=10**4)
    try:
        oracle = brute_force_solve(inst)
    except Infeasible:
        with pytest.raises(InfeasibleSubproblem):
            solve(inst, {}, config)
        return
    traj, _ = solve(inst, {}, config)
    assert traj.proved_optimal
    assert traj.final_objective() == pytest.approx(oracle.objective, abs=1e-9)


def test_trajectory_monotonic_and_consistent_with_fixings():
    inst = generate_covering(9, 28, 20)
    fixings = {0: 1, 3: 0}
    traj, _ = solve(inst, fixings, SolverConfig(step_limit=400, heuristic_emphasis="aggressive"))
    steps = [e.step for e in traj.events]
    objs = [e.objective for e in traj.events]
    assert steps == sorted(set(steps))
    assert all(a > b for a, b in zip(objs, objs[1:]))
    for event in traj.events:
        assert event.values[0] == 1.0 and event.values[3] == 0.0
        assert check_feasibility(inst, event.values)
    assert traj.terminal_step <= 400


def test_budget_exhaustion_returns_partial_trajectory():
    inst = generate_covering(10, 30, 24)
    traj, _ = solve(inst, {}, SolverConfig(step_limit=3))
    assert traj.terminal_step == 3
    assert not traj.proved_optimal


def _arrays(inst, fixings=None):
    lo, hi = bounds_under(inst, fixings)
    return (inst.objective_vector(), *inst.dense_matrix(), inst.integer_mask(), lo, hi)


def _dive_args(args, point):
    """``_arrays`` followed by the point to dive from and its fractional order."""
    point = np.asarray(point, dtype=np.float64)
    return (*args, point, bnb._fractional_order(point, args[3]))


def _dive(inst, point, fixings=None):
    """``bnb._dive_arrays`` on an instance from ``point``: the dived values, or None."""
    return bnb._dive_arrays(*_dive_args(_arrays(inst, fixings), point))


#: 2x + 2y >= 3 over nonnegative integers, neither with an upper bound.
OPEN = MilpInstance(
    "open",
    (VarDef("x", "integer", 0.0, float("inf"), 1.0),
     VarDef("y", "integer", 0.0, float("inf"), 1.0)),
    (ConstraintDef("r", ((0, -2.0), (1, -2.0)), -3.0),),
)


class TestDive:
    def test_identity_on_integral_point(self):
        inst = generate_knapsack(2, 4, 1)
        point = np.zeros(4)
        result = _dive(inst, point, {})
        assert result is not None
        assert np.array_equal(result, point)

    def test_tie_rounds_toward_improvement(self):
        inst = MilpInstance("one", (VarDef("x", "binary", 0, 1, 2.0),), ())
        result = _dive(inst, np.array([0.5]), {})
        assert np.array_equal(result, [0.0])
        negated = MilpInstance("neg", (VarDef("x", "binary", 0, 1, -2.0),), ())
        result = _dive(negated, np.array([0.5]), {})
        assert np.array_equal(result, [1.0])

    def test_respects_fixings(self):
        inst = generate_covering(4, 12, 6)
        c, A, b, _, lo, hi = _arrays(inst, {0: 1.0})
        lp = _solve_lp_arrays(c, A, b, lo, hi)
        result = _dive(inst, lp.primal_values, {0: 1.0})
        assert result is None or result[0] == 1.0

    @pytest.mark.parametrize("fixings", [{-1: 1.0}, {12: 1.0}, {0: 2.0}])
    def test_bad_fixings_rejected_like_solve_lp(self, fixings, monkeypatch):
        # the fixings solve_lp used to reject: bnb.solve, the one place that
        # checks a fixing, rejects them before any LP or dive runs
        def never(*args, **kwargs):
            raise AssertionError("ran before the fixing was checked")

        monkeypatch.setattr(bnb, "_solve_lp_arrays", never)
        monkeypatch.setattr(bnb, "_dive_arrays", never)
        with pytest.raises(ValueError):
            solve(generate_covering(4, 12, 6), fixings, BIG)

    def test_integer_variable_without_upper_bound(self):
        # x = 1.5 rounds up to 2 though its range has no upper end, and the
        # tree proves that optimal
        assert np.array_equal(_dive(OPEN, [1.5, 0.0]), [2.0, 0.0])
        traj, _ = solve(OPEN, {}, SolverConfig(step_limit=20, heuristic_emphasis="aggressive"))
        assert traj.proved_optimal and traj.final_objective() == 2.0

    def test_random_covering_dives_feasible(self):
        successes = 0
        for seed in range(20):
            inst = generate_covering(seed + 200, 16, 10)
            lp = solve_lp(inst)
            assert lp.status == "optimal"
            result = _dive(inst, lp.primal_values, {})
            if result is not None:
                successes += 1
                assert check_feasibility(inst, result)
        assert successes >= 15  # the family is built so rounding up always repairs


def _same_result(got, expected):
    if expected is None:
        return got is None
    return got is not None and got.tobytes() == expected.tobytes()


def _counting_lp(monkeypatch, int_mask):
    """Counts the dive's LP calls, and the repairs whose new point is still fractional."""
    counts = {"calls": 0, "fractional_after": 0}

    def counted(*args, **kwargs):
        res = _solve_lp_arrays(*args, **kwargs)
        counts["calls"] += 1
        if res.status == "optimal" and bnb._fractional_order(res.primal_values, int_mask):
            counts["fractional_after"] += 1
        return res

    monkeypatch.setattr(bnb, "_solve_lp_arrays", counted)
    return counts


class TestDiveMatchesRescanReference:
    """``_dive_arrays`` sorts once per LP point; the rescan in ``oracles`` is the reference."""

    @pytest.mark.parametrize("family", ["covering", "knapsack"])
    @pytest.mark.parametrize("fixed", [False, True])
    def test_lp_points(self, family, fixed):
        dives = 0
        for seed in range(12):
            inst = generate_covering(seed, 20, 12) if family == "covering" else generate_knapsack(seed, 20, 3)
            rng = np.random.default_rng(seed)
            fixings = {int(j): int(rng.integers(0, 2)) for j in rng.choice(20, 4, replace=False)} if fixed else {}
            c, A, b, int_mask, lo, hi = args = _arrays(inst, fixings)
            res = _solve_lp_arrays(c, A, b, lo, hi)
            if res.status != "optimal":
                continue
            dives += 1
            dive_args = _dive_args(args, res.primal_values)
            expected = rescan_dive_arrays(*dive_args)
            assert _same_result(bnb._dive_arrays(*dive_args), expected), seed
        assert dives >= 8

    @pytest.mark.parametrize("family", ["covering", "knapsack"])
    def test_tied_points_with_repairs(self, family, monkeypatch):
        # quarter-step points: many equal fractionalities, and rows they violate force repairs
        int_mask = np.ones(16, dtype=bool)
        counts = _counting_lp(monkeypatch, int_mask)
        for seed in range(40):
            inst = generate_covering(seed, 16, 8) if family == "covering" else generate_knapsack(seed, 16, 2)
            args = _arrays(inst, {0: seed % 2} if seed % 3 == 0 else None)
            point = np.random.default_rng(seed).integers(0, 5, 16) / 4.0
            dive_args = _dive_args(args, point)
            expected = rescan_dive_arrays(*dive_args)
            assert _same_result(bnb._dive_arrays(*dive_args), expected), seed
        assert counts["calls"] > 0 and counts["fractional_after"] > 0

    def test_equality_row_forces_a_repair(self, monkeypatch):
        # x0 + x1 = 1 from (0.5, 0.5): neither rounding of x0 keeps both rows, so the
        # dive fixes x0 at its preferred 0 and re-solves, and the new point is integral
        inst = MilpInstance(
            "eq",
            (VarDef("x0", "binary", 0, 1, 1.0), VarDef("x1", "binary", 0, 1, 1.0)),
            (ConstraintDef("le", ((0, 1.0), (1, 1.0)), 1.0), ConstraintDef("ge", ((0, -1.0), (1, -1.0)), -1.0)),
        )
        counts = _counting_lp(monkeypatch, inst.integer_mask())
        args = _dive_args(_arrays(inst), [0.5, 0.5])
        got = bnb._dive_arrays(*args)
        assert counts["calls"] == 1
        assert np.array_equal(got, [0.0, 1.0])
        assert _same_result(got, rescan_dive_arrays(*args))

    def test_mixed_integer_point_reaches_the_snap_lp(self, monkeypatch):
        # x is within INT_TOL of 1, so it is not rounded; snapping it breaks x + y <= 1
        # by 5e-7, and the continuous y is re-solved with x fixed at 1
        inst = MilpInstance(
            "mix",
            (VarDef("x", "binary", 0, 1, -1.0), VarDef("y", "continuous", 0, 4, -1.0)),
            (ConstraintDef("cap", ((0, 1.0), (1, 1.0)), 1.0),),
        )
        counts = _counting_lp(monkeypatch, inst.integer_mask())
        args = _dive_args(_arrays(inst), [1.0 - 5e-7, 5e-7])
        got = bnb._dive_arrays(*args)
        assert counts["calls"] == 1
        assert np.array_equal(got, [1.0, 0.0])
        assert _same_result(got, rescan_dive_arrays(*args))

    def test_integer_variable_without_upper_bound(self):
        args = _dive_args(_arrays(OPEN), [1.5, 0.0])
        got = bnb._dive_arrays(*args)
        assert np.array_equal(got, [2.0, 0.0])
        assert _same_result(got, rescan_dive_arrays(*args))


def test_fractional_order_most_fractional_first_ties_to_lowest_index():
    values = np.array([0.25, 0.5, 0.75, 3.0, 0.5, 0.5, 1e-7, 2.5])
    int_mask = np.array([True, True, True, True, False, True, True, True])
    assert bnb._fractional_order(values, int_mask) == [1, 5, 7, 0, 2]
    assert bnb._fractional_order(np.round(values), int_mask) == []


def test_emphasis_effect_smoke():
    at_most = 0
    total = 50
    for seed in range(total):
        inst = generate_covering(seed + 300, 20, 14)
        cfg_off = SolverConfig(step_limit=500)
        cfg_agg = SolverConfig(step_limit=500, heuristic_emphasis="aggressive")
        off, _ = solve(inst, {}, cfg_off)
        agg, _ = solve(inst, {}, cfg_agg)
        if off.first_step() is None:
            at_most += 1
        elif agg.first_step() is not None and agg.first_step() <= off.first_step():
            at_most += 1
    assert at_most >= 0.6 * total


class TestPool:
    def test_pool_sorted_distinct_and_capped(self):
        inst = generate_covering(12, 24, 18)
        _, pool = solve(
            inst,
            {},
            SolverConfig(step_limit=300, heuristic_emphasis="aggressive",
                         collect_pool=True, pool_size=5),
        )
        assert 1 <= len(pool.entries) <= 5
        objs = [e.objective for e in pool.entries]
        assert objs == sorted(objs)
        keys = {tuple(e.values) for e in pool.entries}
        assert len(keys) == len(pool.entries)
        for e in pool.entries:
            assert check_feasibility(inst, e.values)

    def test_pool_disabled_by_default(self):
        inst = generate_knapsack(5, 6, 2)
        _, pool = solve(inst, {}, BIG)
        assert pool.entries == ()

    def test_pool_serialization_round_trip(self):
        inst = generate_covering(13, 14, 9)
        _, pool = solve(
            inst,
            {},
            SolverConfig(step_limit=200, heuristic_emphasis="aggressive",
                         collect_pool=True, pool_size=4),
        )
        text = serialize_pool(pool, inst)
        back = parse_pool(text, inst)
        assert back.instance_name == inst.name
        assert len(back.entries) == len(pool.entries)
        for a, b in zip(back.entries, pool.entries):
            assert a.objective == b.objective
            assert np.array_equal(a.values, b.values)
        assert serialize_pool(back, inst) == text


def test_children_warm_start_from_their_parent_basis(monkeypatch):
    """Every node after the root starts from the final tableau (and so the
    basis) that its parent's LP result carried, with no factorization. The
    root node's LP is the instance's own cold ``root_lp``."""
    solves = []
    original = bnb._solve_lp_arrays

    def recording(c, A, b, lo, hi, tableau=None):
        res = original(c, A, b, lo, hi, tableau=tableau)
        solves.append((lo.copy(), hi.copy(), tableau, res))
        return res

    monkeypatch.setattr(bnb, "_solve_lp_arrays", recording)
    monkeypatch.setattr(bnb, "_dive_arrays", lambda *args: None)  # node LPs only
    inst = generate_covering(14, 22, 16)
    traj, _ = solve(inst, {}, SolverConfig(step_limit=40))
    assert len(solves) == traj.terminal_step - 1 > 10  # every node but the root
    parents = {id(res.tableau): (lo, hi) for lo, hi, _, res in solves if res.tableau is not None}
    parents[id(inst.root_lp.tableau)] = inst.bounds_arrays()
    for lo, hi, tableau, _ in solves:
        assert tableau is not None and id(tableau) in parents
        assert tableau.pivots < simplex.REFACTOR_PIVOTS  # inherited, not factorized
        plo, phi = parents[id(tableau)]
        assert np.count_nonzero((lo != plo) | (hi != phi)) == 1  # a child differs by one bound


def test_determinism():
    inst = generate_covering(14, 22, 16)
    cfg = SolverConfig(step_limit=250, heuristic_emphasis="aggressive",
                       collect_pool=True, pool_size=6)
    t1, p1 = solve(inst, {}, cfg)
    t2, p2 = solve(inst, {}, cfg)
    assert [(e.step, e.objective) for e in t1.events] == [(e.step, e.objective) for e in t2.events]
    assert all(np.array_equal(a.values, b.values) for a, b in zip(p1.entries, p2.entries))
