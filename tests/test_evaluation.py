from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confdive.bnb import IncumbentTrajectory, SolverConfig, TrajectoryEvent, solve
from confdive.diving import dive_and_solve
from confdive.evaluation import (
    EvalConfig,
    EventBeyondHorizon,
    compare,
    eval_configs,
    make_row,
    plot_primal_bound,
    primal_integral,
    rows_to_csv,
    summary_to_csv,
    worst_case_objective,
)
from confdive.gcnn import init_model
from confdive.instances import brute_force_solve, generate_covering, generate_knapsack

DATA = Path(__file__).parent / "data"


def traj(events, terminal=None, proved=False):
    evs = tuple(TrajectoryEvent(s, float(o), np.zeros(1)) for s, o in events)
    return IncumbentTrajectory(evs, terminal if terminal is not None else (events[-1][0] if events else 0), proved)


class TestPrimalIntegral:
    def test_two_rectangles(self):
        cfg = EvalConfig(step_limit=10, reference_objective=2.0, no_incumbent_value=50.0)
        assert primal_integral(traj([(0, 10.0), (5, 4.0)]), cfg) == 50.0

    def test_instantly_optimal_is_zero(self):
        cfg = EvalConfig(step_limit=7, reference_objective=3.0, no_incumbent_value=9.0)
        assert primal_integral(traj([(0, 3.0)]), cfg) == 0.0

    def test_empty_trajectory_constant_bound(self):
        cfg = EvalConfig(step_limit=4, reference_objective=2.0, no_incumbent_value=10.0)
        assert primal_integral(traj([]), cfg) == 32.0

    def test_event_beyond_horizon(self):
        cfg = EvalConfig(step_limit=5, reference_objective=0.0, no_incumbent_value=1.0)
        with pytest.raises(EventBeyondHorizon):
            primal_integral(traj([(6, 0.5)]), cfg)

    def test_non_increasing_steps_rejected(self):
        cfg = EvalConfig(step_limit=5, reference_objective=0.0, no_incumbent_value=1.0)
        with pytest.raises(ValueError):
            primal_integral(traj([(2, 1.0), (2, 0.5)]), cfg)

    def test_cumulative_reward_is_negation(self):
        cfg = EvalConfig(step_limit=10, reference_objective=2.0, no_incumbent_value=50.0)
        t = traj([(0, 10.0), (5, 4.0)])
        inst = generate_covering(0, 6, 3)
        (row,), _ = compare([inst], [("plain", [t])], [cfg])
        assert row.cumulative_reward == -primal_integral(t, cfg) == -50.0

    def test_config_invariants(self):
        with pytest.raises(ValueError):
            EvalConfig(step_limit=0, reference_objective=0.0, no_incumbent_value=1.0)
        with pytest.raises(ValueError):
            EvalConfig(step_limit=5, reference_objective=2.0, no_incumbent_value=1.0)


@st.composite
def random_trajectory(draw):
    t_limit = draw(st.integers(min_value=1, max_value=60))
    n_events = draw(st.integers(min_value=0, max_value=min(8, t_limit + 1)))
    steps = sorted(draw(st.sets(st.integers(min_value=0, max_value=t_limit),
                                min_size=n_events, max_size=n_events)))
    start = draw(st.floats(min_value=-50, max_value=100))
    drops = [draw(st.floats(min_value=0.001, max_value=20)) for _ in steps]
    objs = []
    level = start
    for d in drops:
        level -= d
        objs.append(level)
    return t_limit, list(zip(steps, objs))


class TestProperties:
    @given(data=random_trajectory(), delta=st.floats(min_value=-100, max_value=100))
    @settings(max_examples=300, deadline=None)
    def test_translation_identity(self, data, delta):
        t_limit, events = data
        lowest = min([o for _, o in events], default=0.0)
        cfg = EvalConfig(t_limit, lowest - 1.0, 200.0)
        shifted_cfg = EvalConfig(t_limit, lowest - 1.0 + delta, 200.0 + delta)
        shifted = [(s, o + delta) for s, o in events]
        base = primal_integral(traj(events, t_limit), cfg)
        moved = primal_integral(traj(shifted, t_limit), shifted_cfg)
        assert moved == pytest.approx(base, abs=1e-7 * max(1.0, abs(base)))

    @given(data=random_trajectory())
    @settings(max_examples=300, deadline=None)
    def test_dominance(self, data):
        t_limit, events = data
        lowered = [(s, o - 1.0) for s, o in events]
        lowest = min([o for _, o in lowered], default=0.0)
        cfg = EvalConfig(t_limit, lowest - 1.0, 200.0)
        better = primal_integral(traj(lowered, t_limit), cfg)
        worse = primal_integral(traj(events, t_limit), cfg)
        assert better <= worse + 1e-9

    def test_nonnegative_against_oracle_reference(self):
        for seed in range(6):
            inst = generate_covering(seed + 60, 10, 6)
            opt = brute_force_solve(inst)
            trajectory, _ = solve(inst, {}, SolverConfig(step_limit=100))
            cfg = EvalConfig(100, opt.objective, worst_case_objective(inst))
            assert primal_integral(trajectory, cfg) >= -1e-9


class TestWorstCase:
    def test_matches_enumeration_on_binaries(self):
        for seed in range(5):
            inst = generate_knapsack(seed, 6, 2)
            c = inst.objective_vector()
            best = max(
                float(c @ np.array([(k >> j) & 1 for j in range(6)], dtype=float))
                for k in range(64)
            )
            assert worst_case_objective(inst) == pytest.approx(best, abs=1e-9)


class TestEvalConfigs:
    def test_oracle_reference_for_small_binary_instances(self):
        inst = generate_covering(61, 10, 6)
        (cfg,) = eval_configs([inst], [[traj([(0, 1e6)])]], 40)
        assert cfg == EvalConfig(40, brute_force_solve(inst).objective, worst_case_objective(inst))

    def test_best_final_across_runs_beyond_the_oracle(self):
        inst = generate_covering(62, 30, 12)
        runs = [[traj([(0, 90.0), (5, 70.0)]), traj([]), traj([(2, 80.0)])]]
        (cfg,) = eval_configs([inst], runs, 60)
        assert cfg == EvalConfig(60, 70.0, worst_case_objective(inst))

    def test_worst_case_without_any_incumbent(self):
        inst = generate_covering(63, 30, 12)
        (cfg,) = eval_configs([inst], [[traj([]), traj([])]], 60)
        worst = worst_case_objective(inst)
        assert cfg == EvalConfig(60, worst, worst)
        assert primal_integral(traj([]), cfg) == 0.0

    def test_one_set_of_runs_per_instance(self):
        with pytest.raises(ValueError):
            eval_configs([generate_covering(64, 10, 6)], [], 60)


class TestCompare:
    def test_method_against_itself(self):
        instances = [generate_covering(s + 75, 10, 6) for s in range(3)]
        cfgs = [
            EvalConfig(100, brute_force_solve(i).objective, worst_case_objective(i))
            for i in instances
        ]
        a = [solve(inst, {}, SolverConfig(step_limit=100))[0] for inst in instances]
        b = [solve(inst, {}, SolverConfig(step_limit=100))[0] for inst in instances]
        rows, summary = compare(instances, [("a", a), ("b", b)], cfgs)
        by_instance = {}
        for row in rows:
            by_instance.setdefault(row.instance, []).append(row)
        for pair in by_instance.values():
            assert pair[0].primal_integral == pair[1].primal_integral
            assert pair[0].final_objective == pair[1].final_objective
        assert summary["a"] == summary["b"]

    def test_plain_equals_threshold_one_diving(self):
        instances = [generate_covering(s + 85, 10, 6) for s in range(2)]
        model = init_model(seed=0)
        cfgs = [
            EvalConfig(150, brute_force_solve(i).objective, worst_case_objective(i))
            for i in instances
        ]
        solver_cfg = SolverConfig(step_limit=150)
        methods = [
            ("plain", [solve(inst, {}, solver_cfg)[0] for inst in instances]),
            ("dive1.0", [dive_and_solve(inst, model, 1.0, solver_cfg)[0] for inst in instances]),
        ]
        rows, _ = compare(instances, methods, cfgs)
        for i in range(0, len(rows), 2):
            assert rows[i].primal_integral == rows[i + 1].primal_integral

    def test_csv_schema(self):
        instances = [generate_covering(95, 10, 6)]
        cfgs = [EvalConfig(50, brute_force_solve(instances[0]).objective,
                           worst_case_objective(instances[0]))]
        rows, summary = compare(
            instances, [("m", [solve(instances[0], {}, SolverConfig(step_limit=50))[0]])], cfgs
        )
        text = rows_to_csv(rows)
        lines = text.splitlines()
        assert lines[0] == (
            "instance,method,primal_integral,cumulative_reward,"
            "first_incumbent_step,final_objective,fell_back,coverage"
        )
        fields = lines[1].split(",")
        assert len(fields) == 8
        assert float(fields[2]) == -float(fields[3])
        assert fields[6:] == ["", ""]  # not a diving row
        rows[0].fell_back, rows[0].coverage = True, 0.25
        assert rows_to_csv(rows).splitlines()[1].split(",")[6:] == ["true", "0.25"]
        stext = summary_to_csv(summary)
        assert stext.splitlines()[0] == "method,mean_primal_integral,mean_cumulative_reward"

    def test_one_trajectory_per_instance(self):
        inst = generate_covering(96, 10, 6)
        with pytest.raises(ValueError):
            compare([inst], [("m", [])], [EvalConfig(10, 0.0, 5.0)])

    def test_row_for_empty_trajectory(self):
        cfg = EvalConfig(10, 0.0, 5.0)
        row = make_row("i", "m", traj([], terminal=10), cfg)
        assert row.first_incumbent_step is None and row.final_objective is None
        text = rows_to_csv([row])
        assert text.splitlines()[1].endswith(",,,,")


class TestPlot:
    def _cfg(self):
        return EvalConfig(step_limit=100, reference_objective=0.0, no_incumbent_value=50.0)

    def test_single_event_single_polyline(self):
        svg = plot_primal_bound([("run", traj([(5, 10.0)], terminal=100))], self._cfg())
        assert svg.count("<polyline") == 1
        assert svg.startswith("<svg ")
        assert 'width="800" height="500"' in svg

    def test_two_labels_two_polylines_and_legend(self):
        svg = plot_primal_bound(
            [
                ("plain", traj([(1, 20.0), (30, 12.0)], terminal=100)),
                ("dive", traj([(1, 11.0)], terminal=100)),
            ],
            self._cfg(),
        )
        assert svg.count("<polyline") == 2
        assert ">plain</text>" in svg and ">dive</text>" in svg

    def test_deterministic_bytes(self):
        args = [("a", traj([(2, 9.0), (9, 3.0)], terminal=100))]
        assert plot_primal_bound(args, self._cfg()) == plot_primal_bound(args, self._cfg())

    def test_golden_file(self):
        svg = plot_primal_bound(
            [
                ("plain", traj([(1, 40.0), (20, 25.0), (60, 18.0)], terminal=100)),
                ("diving", traj([(1, 19.0), (4, 17.0)], terminal=100)),
            ],
            self._cfg(),
        )
        golden = (DATA / "golden_plot.svg").read_text()
        assert svg == golden

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            plot_primal_bound([], self._cfg())
