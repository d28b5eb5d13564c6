import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confdive import bnb, simplex
from confdive.bnb import InfeasibleSubproblem, SolverConfig, solve
from confdive.diving import (
    DEFAULT_GRID,
    InvalidThreshold,
    _instance_cells,
    dive_and_solve,
    fix_by_threshold,
    grid_search,
    report_to_csv,
    to_instance_fixings,
)
from confdive.encoder import encode
from confdive.gcnn import forward, init_model
from confdive.instances import (
    brute_force_solve,
    generate_covering,
    generate_knapsack,
    parse_instance,
    serialize_instance,
)

CFG = SolverConfig(step_limit=200)


def constant_model(p, hidden_dim=4):
    """A model whose head ignores embeddings and emits logit(p) everywhere."""
    model = init_model(hidden_dim=hidden_dim, seed=0)
    model.head.w[:] = 0.0
    model.head.b[:] = math.log(p / (1.0 - p))
    return model


class TestFixByThreshold:
    def test_worked_example(self):
        partial = fix_by_threshold(np.array([0.97, 0.50, 0.02]), 0.9)
        assert partial.fixings == {0: 1, 2: 0}
        assert partial.coverage == pytest.approx(2 / 3)

    def test_boundary_threshold_one(self):
        partial = fix_by_threshold(np.array([0.97, 0.50, 0.02]), 1.0)
        assert partial.fixings == {}
        assert partial.coverage == 0.0

    def test_barely_above_half(self):
        partial = fix_by_threshold(np.array([0.97, 0.50, 0.02]), 0.51)
        assert partial.fixings == {0: 1, 2: 0}  # 0.50 < 0.51 and 0.50 > 0.49

    def test_exact_tie_fixes(self):
        # 0.75 and 1 - 0.75 are exactly representable, so both ties trigger
        partial = fix_by_threshold(np.array([0.75, 0.25]), 0.75)
        assert partial.fixings == {0: 1, 1: 0}  # rule uses >= and <=

    @pytest.mark.parametrize("t", [0.5, 0.3, 1.01, 0.0])
    def test_invalid_threshold(self, t):
        with pytest.raises(InvalidThreshold):
            fix_by_threshold(np.array([0.6]), t)

    def test_probabilities_must_be_interior(self):
        with pytest.raises(ValueError):
            fix_by_threshold(np.array([1.0, 0.5]), 0.9)

    # NaN fails every comparison, so a min/max range check lets it through
    @pytest.mark.parametrize("probs", [[np.nan, 0.7], [0.7, np.nan]])
    def test_nan_probabilities_rejected(self, probs):
        with pytest.raises(ValueError, match="strictly inside"):
            fix_by_threshold(np.array(probs), 0.6)

    @given(
        probs=st.lists(st.floats(min_value=0.001, max_value=0.999), min_size=1, max_size=30),
        t_pair=st.tuples(
            st.floats(min_value=0.501, max_value=1.0),
            st.floats(min_value=0.501, max_value=1.0),
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_threshold_monotonicity(self, probs, t_pair):
        p = np.asarray(probs)
        t1, t2 = min(t_pair), max(t_pair)
        low = fix_by_threshold(p, t1)
        high = fix_by_threshold(p, t2)
        assert set(high.fixings.items()) <= set(low.fixings.items())
        assert high.coverage <= low.coverage

    def test_consistency_with_rounding(self):
        rng = np.random.default_rng(5)
        probs = rng.uniform(0.001, 0.999, 40)
        partial = fix_by_threshold(probs, 0.7)
        for j, v in partial.fixings.items():
            assert v == (1 if probs[j] >= 0.7 else 0)
            assert probs[j] >= 0.7 or probs[j] <= 0.3


class TestDiveAndSolve:
    def test_adversarial_constant_model_falls_back(self):
        # all-ones is infeasible for every multi-item knapsack by construction
        inst = generate_knapsack(21, 6, 2)
        model = constant_model(0.99)
        traj, outcome = dive_and_solve(inst, model, 0.9, CFG)
        assert outcome.fell_back
        plain, _ = solve(inst, {}, CFG)
        assert traj.final_objective() == plain.final_objective()
        assert [e.step for e in traj.events] == [e.step for e in plain.events]

    def test_oracle_mimicking_model_hits_optimum_immediately(self):
        for seed in range(5):
            inst = generate_covering(seed + 600, 12, 7)
            opt = brute_force_solve(inst)
            probs = np.where(opt.values[inst.binary_mask()] > 0.5, 0.99, 0.01)
            traj, outcome = dive_and_solve(inst, constant_model(0.5), 0.9, CFG, probs=probs)
            assert not outcome.fell_back
            assert outcome.partial.coverage == 1.0
            assert traj.events[0].step <= 3
            assert traj.events[0].objective == pytest.approx(opt.objective, abs=1e-9)

    def test_threshold_one_equals_plain_solve(self):
        inst = generate_covering(33, 16, 10)
        model = init_model(seed=3)
        traj, outcome = dive_and_solve(inst, model, 1.0, CFG)
        plain, _ = solve(inst, {}, CFG)
        assert outcome.partial.fixings == {}
        assert [(e.step, e.objective) for e in traj.events] == [
            (e.step, e.objective) for e in plain.events
        ]

    def test_to_instance_fixings_respects_mask(self):
        inst = generate_covering(11, 8, 4)
        graph = encode(inst)
        partial = fix_by_threshold(np.array([0.99] * 8), 0.9)
        fixings = to_instance_fixings(partial, graph.binary_mask)
        assert set(fixings) == set(range(8))


class TestGridSearch:
    def test_degenerate_grid_is_plain_baseline(self):
        instances = [generate_covering(s + 700, 10, 6) for s in range(3)]
        model = init_model(seed=1)
        report = grid_search(instances, model, [1.0], CFG)
        assert len(report.rows) == 1
        row = report.rows[0]
        assert row.threshold == 1.0
        assert row.mean_coverage == 0.0
        assert row.feasibility_rate == 1.0
        assert report.best_t == 1.0

    def test_rows_sorted_and_coverage_monotone(self):
        instances = [generate_covering(s + 800, 12, 7) for s in range(4)]
        model = constant_model(0.8)
        report = grid_search(instances, model, [0.9, 0.6, 0.75], CFG)
        ts = [row.threshold for row in report.rows]
        assert ts == sorted(ts)
        coverages = [row.mean_coverage for row in report.rows]
        assert all(a >= b - 1e-12 for a, b in zip(coverages, coverages[1:]))

    def test_best_t_attains_minimum_with_tie_to_larger(self):
        instances = [generate_covering(s + 900, 10, 6) for s in range(3)]
        model = init_model(seed=2)
        report = grid_search(instances, model, [0.9, 0.95, 1.0], CFG)
        best_pi = min(row.mean_primal_integral for row in report.rows)
        best_rows = [r for r in report.rows if r.mean_primal_integral == best_pi]
        assert report.best_t == max(r.threshold for r in best_rows)

    def test_deterministic(self):
        instances = [generate_covering(s + 950, 10, 6) for s in range(3)]
        model = init_model(seed=4)
        a = grid_search(instances, model, [0.7, 0.9], CFG)
        b = grid_search(instances, model, [0.7, 0.9], CFG)
        assert report_to_csv(a) == report_to_csv(b)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            grid_search([generate_covering(1, 8, 4)], init_model(seed=0), [], CFG)

    def test_csv_format(self):
        instances = [generate_covering(42, 10, 6)]
        report = grid_search(instances, init_model(seed=0), [0.8, 1.0], CFG)
        text = report_to_csv(report)
        lines = text.splitlines()
        assert lines[0] == "t,coverage,feasibility_rate,mean_primal_integral"
        assert len(lines) == 4
        assert lines[-1].startswith("BEST t=")
        assert float(lines[-1].split("=", 1)[1]) == report.best_t


def test_default_grid_brackets_reported_optima():
    assert min(DEFAULT_GRID) <= 0.624 <= max(DEFAULT_GRID)
    assert min(DEFAULT_GRID) <= 0.93 <= max(DEFAULT_GRID)
    assert 1.0 in DEFAULT_GRID


class TestSharedRootLp:
    """An instance solves its unfixed root LP once (``root_lp``); its cells
    return what one fresh ``solve`` per cell returns."""

    GRID = (0.55, 0.6, 0.9, 0.99, 1.0)

    @staticmethod
    def fresh(instance):
        """An equal instance whose ``root_lp`` has not been computed."""
        return parse_instance(serialize_instance(instance))

    def fresh_cells(self, instance, model, ts, config):
        """One ``solve`` per cell on its own fresh copy, plus an unfixed rerun
        on another after an infeasible fixing."""
        probs = forward(model, encode(self.fresh(instance)))
        cells = []
        for t in ts:
            partial = fix_by_threshold(probs, t)
            fixings = to_instance_fixings(partial, instance.binary_mask())
            try:
                traj, _ = solve(self.fresh(instance), fixings, config)
                fell_back = False
            except InfeasibleSubproblem:
                traj, _ = solve(self.fresh(instance), {}, config)
                fell_back = True
            cells.append((traj, fell_back, partial))
        return cells

    @staticmethod
    def same_trajectory(a, b):
        return (
            a.terminal_step == b.terminal_step
            and a.proved_optimal == b.proved_optimal
            and [(e.step, e.objective, e.values.tobytes()) for e in a.events]
            == [(e.step, e.objective, e.values.tobytes()) for e in b.events]
        )

    @pytest.mark.parametrize("family", ["covering", "knapsack"])
    def test_cells_match_one_fresh_solve_per_cell(self, family):
        shared_sets = fallbacks = 0
        for seed in range(4):
            if family == "covering":
                instance = generate_covering(seed + 1200, 14, 8)
            else:
                instance = generate_knapsack(seed + 1300, 9, 2)
            for model in (init_model(seed=seed), constant_model(0.8), constant_model(0.99)):
                cells = _instance_cells((instance, model, self.GRID, CFG))
                fresh = self.fresh_cells(instance, model, self.GRID, CFG)
                for (traj, outcome), (ref, fell_back, partial) in zip(cells, fresh):
                    assert self.same_trajectory(traj, ref)
                    assert outcome.fell_back == fell_back
                    assert outcome.partial.fixings == partial.fixings
                    assert outcome.partial.coverage == partial.coverage
                sets = [tuple(sorted(p.fixings.items())) for _, _, p in fresh]
                shared_sets += len(sets) - len(set(sets))
                fallbacks += sum(fell_back for _, fell_back, _ in fresh)
        assert shared_sets > 0  # two thresholds fixed the same set, t=1.0 fixing nothing among them
        if family == "knapsack":
            assert fallbacks > 0

    def count_runs(self, monkeypatch):
        """Each instance's cold unfixed root LPs, and the ``solve`` calls per fixing set."""
        root_lps, solves = Counter(), Counter()

        def on_lp(module):
            inner = module._solve_lp_arrays

            def counted(c, A, b, lo, hi, tableau=None):
                if tableau is None:
                    root_lps[(c.tobytes(), lo.tobytes(), hi.tobytes())] += 1
                return inner(c, A, b, lo, hi, tableau=tableau)

            monkeypatch.setattr(module, "_solve_lp_arrays", counted)

        on_lp(simplex)
        on_lp(bnb)
        inner_solve = bnb.solve

        def counted_solve(instance, fixings, config):
            solves[(instance.name, tuple(sorted(fixings.items())))] += 1
            return inner_solve(instance, fixings, config)

        monkeypatch.setattr(bnb, "solve", counted_solve)
        return root_lps, solves

    @staticmethod
    def root_key(instance):
        lo, hi = instance.bounds_arrays()
        return (instance.objective_vector().tobytes(), lo.tobytes(), hi.tobytes())

    def test_gridsearch_solves_each_root_lp_once(self, monkeypatch):
        instances = [generate_knapsack(s + 1400, 9, 2) for s in range(3)]
        root_lps, solves = self.count_runs(monkeypatch)
        grid_search(instances, constant_model(0.99), self.GRID, CFG)
        for inst in instances:
            assert root_lps[self.root_key(inst)] == 1
            # p = 0.99 fixes every item to 1 at t <= 0.99, which is infeasible and
            # falls back; t=1.0 fixes nothing: every cell runs unfixed from the one root LP
            assert solves[(inst.name, ())] == len(self.GRID)

    @pytest.mark.parametrize("threshold", [0.9, 1.0])
    def test_evaluate_solves_the_root_lp_once(self, threshold, monkeypatch):
        from confdive.pipeline import _evaluate_one

        instance = generate_knapsack(1500, 9, 2)
        root_lps, solves = self.count_runs(monkeypatch)
        plain, dive, (fell_back, _) = _evaluate_one(
            (instance, constant_model(0.99), threshold, CFG)
        )
        assert root_lps[self.root_key(instance)] == 1
        # t=0.9 fixes every item to 1, which is infeasible; t=1.0 fixes nothing
        assert solves[(instance.name, ())] == 2  # the plain run and the dive's unfixed run
        assert fell_back == (threshold == 0.9)
        assert self.same_trajectory(dive, plain)

    def test_one_root_lp_per_instance_across_every_stage(self, monkeypatch):
        from confdive.pipeline import _collect_one, _evaluate_one

        instance = generate_knapsack(1500, 9, 2)
        root_lps, solves = self.count_runs(monkeypatch)
        encode(instance)
        _collect_one((instance, SolverConfig(step_limit=50, collect_pool=True, pool_size=4)))
        _instance_cells((instance, constant_model(0.99), self.GRID, CFG))
        for threshold in (0.9, 1.0):  # a fallback, then a dive that fixes nothing
            _evaluate_one((instance, constant_model(0.99), threshold, CFG))
        assert solves[(instance.name, ())] == 1 + len(self.GRID) + 2 * 2
        assert root_lps[self.root_key(instance)] == 1

    def test_a_fixed_run_never_reads_the_root_lp(self):
        instance = generate_covering(1200, 14, 8)
        solve(instance, {0: 1, 3: 0}, CFG)
        assert "root_lp" not in vars(instance)  # the cached property was never computed

    @pytest.mark.parametrize(
        "fixings", [{}, {0: 1}, {0: 1, 1: 1, 2: 0}], ids=["unfixed", "one_fixing", "three_fixings"]
    )
    def test_solve_is_the_same_whether_or_not_the_root_lp_came_first(self, fixings):
        instance = generate_knapsack(1500, 9, 2)
        warm = self.fresh(instance)
        assert warm.root_lp.status == "optimal"  # computed before the run
        first, _ = solve(warm, fixings, CFG)
        cold, _ = solve(self.fresh(instance), fixings, CFG)
        assert self.same_trajectory(first, cold)

    def test_the_shared_root_point_is_read_only(self):
        instance = generate_knapsack(1500, 9, 2)
        with pytest.raises(ValueError, match="read-only"):
            instance.root_lp.primal_values[0] = 0.5
