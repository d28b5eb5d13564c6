"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. The end-to-end test (criterion 9) takes a few
minutes; everything else is fast.
"""

import math
import time
from pathlib import Path

import numpy as np

from confdive.bnb import SolverConfig, solve
from confdive.diving import dive_and_solve, fix_by_threshold
from confdive.encoder import encode
from confdive.evaluation import EvalConfig, primal_integral
from confdive.gcnn import (
    GraphTargets,
    TargetSolution,
    TrainConfig,
    backward,
    compute_solution_weights,
    init_model,
    loss_fullbatch,
    loss_minibatch,
    train,
)
from confdive.instances import (
    brute_force_solve,
    generate_covering,
    generate_knapsack,
    parse_solution,
)
from confdive.pipeline import (
    PipelineConfig,
    run_collect,
    run_evaluate,
    run_generate,
    run_gridsearch,
    run_train,
)
from confdive.simplex import solve_lp
from oracles import enumerate_lp_optimum, random_feasible_lp
from test_evaluation import traj  # manual trajectory builder
from test_simplex import box_lp


def report(line: str) -> None:
    print(f"\nACCEPTANCE {line}")


def test_criterion_01_solver_exactness():
    config = SolverConfig(step_limit=10**6)
    start = time.time()
    checked = 0
    for seed in range(50):
        inst = generate_knapsack(seed, 3 + seed % 10, 1 + seed % 3)
        oracle = brute_force_solve(inst)
        trajectory, _ = solve(inst, {}, config)
        assert trajectory.proved_optimal
        assert abs(trajectory.final_objective() - oracle.objective) <= 1e-6
        checked += 1
    for seed in range(50):
        n = 4 + seed % 9
        inst = generate_covering(seed, n, max(1, n // 2))
        oracle = brute_force_solve(inst)
        trajectory, _ = solve(inst, {}, config)
        assert trajectory.proved_optimal
        assert abs(trajectory.final_objective() - oracle.objective) <= 1e-6
        checked += 1
    elapsed = time.time() - start
    assert checked == 100
    assert elapsed < 60.0
    report(f"PASS criterion 1: solver exact on 100/100 instances in {elapsed:.1f}s")


def test_criterion_02_lp_oracle_equivalence():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        c, A, b, lb, ub = random_feasible_lp(rng, 2 + seed % 5, 1 + seed % 4)
        res = solve_lp(box_lp(c, A, b, lb, ub))
        expected = enumerate_lp_optimum(c, A, b, lb, ub)
        assert res.status == "optimal"
        assert abs(res.objective - expected[0]) <= 1e-6
    report("PASS criterion 2: simplex matches vertex enumeration on 50/50 LPs")


def test_criterion_03_gradient_correctness():
    worst_overall = 0.0
    for k in range(20):
        rng = np.random.default_rng(k)
        hidden = 2 + k % 7  # H <= 8
        model = init_model(hidden_dim=hidden, seed=k)
        graphs = [
            encode(generate_covering(1000 + 3 * k + i, 4 + (k + i) % 5, 2 + i % 2))
            for i in range(1 + k % 2)
        ]
        batch = []
        for g in graphs:
            n_bin = int(g.binary_mask.sum())
            n_sols = 1 + rng.integers(0, 2)
            weights = rng.dirichlet(np.ones(n_sols))
            sols = [
                TargetSolution(rng.integers(0, 2, n_bin).astype(float), float(w))
                for w in weights
            ]
            batch.append(GraphTargets(g, sols))
        mode = "minibatch" if k % 2 == 0 else "fullbatch"
        loss_fn = loss_minibatch if mode == "minibatch" else loss_fullbatch
        grads = backward(model, batch, mode)
        step = 1e-5
        worst = 0.0
        for name, arr in model.named_parameters():
            flat, gflat = arr.ravel(), grads[name].ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + step
                up = loss_fn(model, batch)
                flat[i] = orig - step
                down = loss_fn(model, batch)
                flat[i] = orig
                fd = (up - down) / (2 * step)
                worst = max(worst, abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), 1e-6))
        assert worst < 1e-4, f"pair {k}: relative error {worst:.2e}"
        worst_overall = max(worst_overall, worst)
    report(f"PASS criterion 3: gradients match finite differences (worst rel err {worst_overall:.2e})")


def test_criterion_04_minibatch_loss_hand_values():
    from test_gcnn import graph_with_binaries, zero_head

    model = zero_head(init_model(seed=0))
    g1, g4 = graph_with_binaries(1), graph_with_binaries(4, seed=6)

    single = [GraphTargets(g1, [TargetSolution(np.array([1.0]), 1.0)])]
    assert abs(loss_minibatch(model, single) - math.log(2)) <= 1e-12

    doubled = single + single
    assert abs(loss_minibatch(model, doubled) - loss_minibatch(model, single)) <= 1e-12

    hetero = [
        GraphTargets(g1, [TargetSolution(np.array([1.0]), 1.0)]),
        GraphTargets(g4, [TargetSolution(np.zeros(4), 1.0)]),
    ]
    assert abs(loss_minibatch(model, hetero) - math.log(2)) <= 1e-12
    report("PASS criterion 4: mini-batch loss equals the three hand values within 1e-12")


def test_criterion_05_primal_integral_hand_values_and_properties():
    cfg = EvalConfig(step_limit=10, reference_objective=2.0, no_incumbent_value=50.0)
    assert primal_integral(traj([(0, 10.0), (5, 4.0)]), cfg) == 50.0
    cfg2 = EvalConfig(step_limit=7, reference_objective=3.0, no_incumbent_value=3.0)
    assert primal_integral(traj([(0, 3.0)]), cfg2) == 0.0
    cfg3 = EvalConfig(step_limit=4, reference_objective=2.0, no_incumbent_value=10.0)
    assert primal_integral(traj([]), cfg3) == 32.0

    rng = np.random.default_rng(7)
    for _ in range(1000):
        t_limit = int(rng.integers(1, 80))
        n_events = int(rng.integers(0, min(9, t_limit + 1)))
        steps = np.sort(rng.choice(t_limit + 1, size=n_events, replace=False))
        level = float(rng.uniform(-50, 100))
        events = []
        for s in steps:
            level -= float(rng.uniform(0.001, 20))
            events.append((int(s), level))
        lowest = min([o for _, o in events], default=0.0)
        base_cfg = EvalConfig(t_limit, lowest - 1.0, 200.0)
        base = primal_integral(traj(events, t_limit), base_cfg)
        # translation identity
        delta = float(rng.uniform(-100, 100))
        shifted_cfg = EvalConfig(t_limit, lowest - 1.0 + delta, 200.0 + delta)
        shifted = primal_integral(traj([(s, o + delta) for s, o in events], t_limit), shifted_cfg)
        assert abs(shifted - base) <= 1e-7 * max(1.0, abs(base))
        # dominance
        lowered = primal_integral(traj([(s, o - 1.0) for s, o in events], t_limit), base_cfg)
        assert lowered <= base + 1e-9
    report("PASS criterion 5: Eq.-style hand values exact; properties hold on 1000 trajectories")


def test_criterion_06_threshold_monotonicity():
    rng = np.random.default_rng(11)
    for _ in range(100):
        probs = rng.uniform(0.001, 0.999, int(rng.integers(1, 60)))
        grid = np.sort(rng.uniform(0.501, 1.0, int(rng.integers(2, 8))))
        partials = [fix_by_threshold(probs, float(t)) for t in grid]
        for low, high in zip(partials, partials[1:]):
            assert set(high.fixings.items()) <= set(low.fixings.items())
            assert high.coverage <= low.coverage + 1e-15
    report("PASS criterion 6: fixings shrink with t on 100 random vectors and grids")


def test_criterion_07_fallback_safety():
    from test_diving import constant_model

    model = constant_model(0.99)
    config = SolverConfig(step_limit=300)
    for seed in range(20):
        inst = generate_knapsack(5000 + seed, 4 + seed % 6, 1 + seed % 3)
        # all-ones violates every capacity by construction (cap = half total weight)
        A, b = inst.dense_matrix()
        assert np.any(A @ np.ones(inst.n) > b)
        trajectory, outcome = dive_and_solve(inst, model, 0.9, config)
        assert outcome.fell_back
        plain, _ = solve(inst, {}, config)
        assert trajectory.final_objective() == plain.final_objective()
    report("PASS criterion 7: adversarial fixing falls back to the plain run on 20/20 instances")


def _stability_dataset():
    items = []
    for seed in range(30):  # small knapsacks: 6 binaries each
        inst = generate_knapsack(7000 + seed, 6, 2)
        _, pool = solve(
            inst,
            {},
            SolverConfig(step_limit=60, heuristic_emphasis="aggressive",
                         collect_pool=True, pool_size=4),
        )
        if not pool.entries:
            continue
        g = encode(inst)
        w = compute_solution_weights(pool)
        items.append(GraphTargets(g, [
            TargetSolution(e.values[g.binary_mask].copy(), float(wi))
            for e, wi in zip(pool.entries, w)
        ]))
    for seed in range(10):  # big coverings: 90 binaries each (>= 10x more nodes)
        inst = generate_covering(8000 + seed, 90, 72)
        _, pool = solve(
            inst,
            {},
            SolverConfig(step_limit=60, heuristic_emphasis="aggressive",
                         collect_pool=True, pool_size=4),
        )
        if not pool.entries:
            continue
        g = encode(inst)
        w = compute_solution_weights(pool)
        items.append(GraphTargets(g, [
            TargetSolution(e.values[g.binary_mask].copy(), float(wi))
            for e, wi in zip(pool.entries, w)
        ]))
    return items


def test_criterion_08_minibatch_stabilizes_training():
    dataset = _stability_dataset()
    sizes = [int(item.graph.binary_mask.sum()) for item in dataset]
    assert max(sizes) >= 10 * min(sizes)
    wins = 0
    details = []
    for seed in (0, 1, 2):
        model = init_model(hidden_dim=16, seed=seed)
        _, curve_mb = train(
            model, dataset,
            TrainConfig(lr=0.02, epochs=40, batch_size=4, seed=seed, loss_mode="minibatch"),
        )
        _, curve_fb = train(
            model, dataset,
            TrainConfig(lr=0.02, epochs=40, batch_size=4, seed=seed, loss_mode="fullbatch"),
        )
        std_mb = float(np.std(np.diff(curve_mb)))
        std_fb = float(np.std(np.diff(curve_fb)))
        details.append(f"seed {seed}: fb {std_fb:.4f} vs mb {std_mb:.4f}")
        if std_fb >= std_mb:
            wins += 1
    assert wins >= 2, details
    report(f"PASS criterion 8: full-batch loss deltas noisier in {wins}/3 seeds ({'; '.join(details)})")


END_TO_END = dict(
    family="covering",
    n_train=100,
    n_valid=30,
    n_test=30,
    n_vars=40,
    n_rows=32,
    seed=7,
    collect_step_limit=150,
    collect_emphasis="aggressive",
    step_limit=150,
    emphasis="aggressive",
    pool_size=8,
    hidden_dim=16,
    epochs=40,
    lr=0.1,
    batch_size=8,
    grid=(0.6, 0.7, 0.8, 0.9, 0.99),
)

DETERMINISM = dict(
    family="covering",
    n_train=6,
    n_valid=3,
    n_test=3,
    n_vars=16,
    n_rows=10,
    seed=11,
    collect_step_limit=80,
    step_limit=80,
    pool_size=4,
    hidden_dim=8,
    epochs=5,
    lr=0.2,
    grid=(0.7, 0.9, 1.0),
    svg=True,
)


def test_criterion_09_end_to_end_primal_integral_win(tmp_path):
    start = time.time()
    config = PipelineConfig(outdir=str(tmp_path / "out"), **END_TO_END)
    run_generate(config)
    run_collect(config)
    run_train(config)
    grid_report = run_gridsearch(config)
    _, summary = run_evaluate(config)
    elapsed = time.time() - start

    best_row = next(r for r in grid_report.rows if r.threshold == grid_report.best_t)
    assert best_row.feasibility_rate >= 0.8
    plain_pi = summary["plain"][0]
    dive_label = next(k for k in summary if k.startswith("diving@"))
    dive_pi = summary[dive_label][0]
    assert dive_pi <= 0.8 * plain_pi, (plain_pi, dive_pi)
    assert elapsed < 600.0
    report(
        "PASS criterion 9: diving mean primal integral "
        f"{dive_pi:.0f} vs plain {plain_pi:.0f} "
        f"({100 * (1 - dive_pi / plain_pi):.0f}% lower, best t={grid_report.best_t:g}, "
        f"feasibility {best_row.feasibility_rate:.2f}) in {elapsed:.0f}s"
    )


def test_criterion_10_pipeline_determinism(tmp_path):
    def run_all(outdir: Path) -> dict[str, bytes]:
        config = PipelineConfig(outdir=str(outdir), **DETERMINISM)
        run_generate(config)
        run_collect(config)
        run_train(config)
        run_gridsearch(config)
        run_evaluate(config)
        return {
            str(p.relative_to(outdir)): p.read_bytes()
            for p in sorted(outdir.rglob("*"))
            if p.is_file()
        }

    first = run_all(tmp_path / "a")
    second = run_all(tmp_path / "b")
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"{name} differs between reruns"
    kinds = {Path(name).suffix for name in first}
    assert {".milp", ".sol", ".txt", ".csv", ".svg"} <= kinds
    report(f"PASS criterion 10: {len(first)} pipeline files byte-identical across reruns")


def test_trained_pool_solutions_parse_back(tmp_path):
    # spot check the on-disk pool format against the SOL contract
    config = PipelineConfig(
        outdir=str(tmp_path / "out"), family="covering", n_train=2, n_valid=1, n_test=1,
        n_vars=12, n_rows=7, seed=3, collect_step_limit=60, pool_size=3,
    )
    run_generate(config)
    run_collect(config)
    inst_path = tmp_path / "out" / "instances" / "train" / "train_0000.milp"
    pool_path = tmp_path / "out" / "pools" / "train_0000.sol"
    from confdive.instances import parse_instance

    inst = parse_instance(inst_path.read_text())
    block = pool_path.read_text().split("---\n")[0]
    sol = parse_solution(block, inst)
    assert sol.values.shape == (inst.n,)
