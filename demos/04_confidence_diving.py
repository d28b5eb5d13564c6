"""Fix high-confidence variables behind a symmetric threshold and watch the trade-off.

Run: python3 demos/04_confidence_diving.py  (about 15 s on a 2-core Xeon)
"""

from confdive import (
    SolverConfig,
    TrainConfig,
    dive_and_solve,
    encode,
    fix_by_threshold,
    forward,
    generate_covering,
    grid_search,
    init_model,
    pool_targets,
    report_to_csv,
    solve,
    train,
)

# Train a model on 60 mid-size coverings (same recipe as the pipeline).
train_insts = [generate_covering(9000 + s, 40, 32) for s in range(60)]
dataset = []
for inst in train_insts:
    _, pool = solve(inst, {}, SolverConfig(step_limit=150, heuristic_emphasis="aggressive",
                                           collect_pool=True, pool_size=8))
    dataset.append(pool_targets(encode(inst), pool))
model, _ = train(init_model(hidden_dim=16, seed=0), dataset,
                 TrainConfig(lr=0.1, epochs=40, batch_size=8, seed=0))

# The threshold rule: p >= t fixes to 1, p <= 1-t fixes to 0, the rest stay
# free. Lower t means more fixing (higher coverage).
held_out = generate_covering(9999, 40, 32)
probs = forward(model, encode(held_out))
for t in (0.6, 0.8, 0.95):
    partial = fix_by_threshold(probs, t)
    print(f"t={t:4}: fixes {len(partial.fixings):2d}/{len(probs)} variables "
          f"(coverage {partial.coverage:.2f})")

# dive_and_solve runs the fixed subproblem; if the fixing is infeasible it
# unfixes everything and reruns with the same budget (the fallback).
config = SolverConfig(step_limit=150, heuristic_emphasis="aggressive")
plain, _ = solve(held_out, {}, config)
dived, outcome = dive_and_solve(held_out, model, 0.8, config)
print()
print(f"plain solve:  first incumbent {plain.events[0].objective:.0f} "
      f"-> final {plain.final_objective():.0f}")
print(f"diving @0.8:  first incumbent {dived.events[0].objective:.0f} "
      f"-> final {dived.final_objective():.0f} "
      f"(fell back: {outcome.fell_back})")

# Grid search scores each threshold by mean primal integral over a
# validation set and reports coverage and feasibility alongside.
validation = [generate_covering(10_000 + s, 40, 32) for s in range(8)]
report = grid_search(validation, model, (0.6, 0.7, 0.8, 0.9, 0.99), config)
print()
print(report_to_csv(report))
