import numpy as np
import pytest

from confdive import bnb
from confdive.bnb import (
    InfeasibleSubproblem,
    SolverConfig,
    dive_heuristic,
    parse_pool,
    serialize_pool,
    solve,
)
from confdive.instances import (
    MilpInstance,
    VarDef,
    brute_force_solve,
    check_feasibility,
    generate_covering,
    generate_knapsack,
)
from confdive.simplex import solve_lp

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


def test_fixings_validated():
    inst = MilpInstance(
        "mix",
        (VarDef("x", "binary", 0, 1, 1.0), VarDef("y", "continuous", 0, 1, 1.0)),
        (),
    )
    with pytest.raises(ValueError):
        solve(inst, {1: 1}, BIG)  # continuous variable
    with pytest.raises(ValueError, match="must be 0 or 1"):
        solve(inst, {0: 0.5}, BIG)  # not a 0/1 value
    with pytest.raises(ValueError, match="outside its bounds"):
        solve(inst, {0: 2}, BIG)  # the shared bounds check rejects it first
    with pytest.raises(ValueError, match="out of range"):
        solve(inst, {2: 1}, BIG)


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


class TestDive:
    def test_identity_on_integral_point(self):
        inst = generate_knapsack(2, 4, 1)
        point = np.zeros(4)
        result = dive_heuristic(inst, point, {})
        assert result is not None
        assert np.array_equal(result.values, point)

    def test_tie_rounds_toward_improvement(self):
        inst = MilpInstance("one", (VarDef("x", "binary", 0, 1, 2.0),), ())
        result = dive_heuristic(inst, np.array([0.5]), {})
        assert np.array_equal(result.values, [0.0])
        negated = MilpInstance("neg", (VarDef("x", "binary", 0, 1, -2.0),), ())
        result = dive_heuristic(negated, np.array([0.5]), {})
        assert np.array_equal(result.values, [1.0])

    def test_respects_fixings(self):
        inst = generate_covering(4, 12, 6)
        lp = solve_lp(inst, {0: 1.0})
        result = dive_heuristic(inst, lp.primal_values, {0: 1.0})
        assert result is None or result.values[0] == 1.0

    @pytest.mark.parametrize("fixings", [{-1: 1.0}, {12: 1.0}, {0: 2.0}])
    def test_bad_fixings_rejected_like_solve_lp(self, fixings):
        inst = generate_covering(4, 12, 6)
        with pytest.raises(ValueError):
            solve_lp(inst, fixings)
        with pytest.raises(ValueError):
            dive_heuristic(inst, np.full(12, 0.5), fixings)

    def test_random_covering_dives_feasible(self):
        successes = 0
        for seed in range(20):
            inst = generate_covering(seed + 200, 16, 10)
            lp = solve_lp(inst)
            assert lp.status == "optimal"
            result = dive_heuristic(inst, lp.primal_values, {})
            if result is not None:
                successes += 1
                assert check_feasibility(inst, result.values)
        assert successes >= 15  # the family is built so rounding up always repairs


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
    solves = []
    original = bnb._solve_lp_arrays

    def recording(c, A, b, lo, hi, basis=None):
        res = original(c, A, b, lo, hi, basis=basis)
        solves.append((lo.copy(), hi.copy(), basis, res))
        return res

    monkeypatch.setattr(bnb, "_solve_lp_arrays", recording)
    monkeypatch.setattr(bnb, "_dive_arrays", lambda *args: None)  # node LPs only
    inst = generate_covering(14, 22, 16)
    traj, _ = solve(inst, {}, SolverConfig(step_limit=40))
    assert len(solves) == traj.terminal_step > 10
    assert solves[0][2] is None
    parents = {id(res.basis): (lo, hi) for lo, hi, _, res in solves if res.basis is not None}
    for lo, hi, basis, _ in solves[1:]:
        assert basis is not None and id(basis) in parents
        plo, phi = parents[id(basis)]
        assert np.count_nonzero((lo != plo) | (hi != phi)) == 1  # a child differs by one bound


def test_determinism():
    inst = generate_covering(14, 22, 16)
    cfg = SolverConfig(step_limit=250, heuristic_emphasis="aggressive",
                       collect_pool=True, pool_size=6)
    t1, p1 = solve(inst, {}, cfg)
    t2, p2 = solve(inst, {}, cfg)
    assert [(e.step, e.objective) for e in t1.events] == [(e.step, e.objective) for e in t2.events]
    assert all(np.array_equal(a.values, b.values) for a, b in zip(p1.entries, p2.entries))
