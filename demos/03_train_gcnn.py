"""Train the GCNN on collected pools and compare the two loss normalizations.

Run: python3 demos/03_train_gcnn.py  (about 6 s on a 2-core Xeon)
"""

import numpy as np

from confdive import (
    SolverConfig,
    TrainConfig,
    encode,
    forward,
    generate_covering,
    generate_knapsack,
    init_model,
    pool_targets,
    solve,
    train,
)


def targets_for(instance, pool_size=4, steps=80):
    config = SolverConfig(step_limit=steps, heuristic_emphasis="aggressive",
                          collect_pool=True, pool_size=pool_size)
    _, pool = solve(instance, {}, config)
    return pool_targets(encode(instance), pool)


# A homogeneous dataset first: 60 small coverings, best-solution supervision.
dataset = [targets_for(generate_covering(5000 + s, 12, 6), pool_size=1) for s in range(60)]
model = init_model(hidden_dim=16, seed=0)
trained, curve = train(model, dataset, TrainConfig(lr=0.3, epochs=30, batch_size=8, seed=0))
print(f"homogeneous training: loss {curve[0]:.3f} -> {curve[-1]:.3f} over {len(curve)} epochs")

probs = forward(trained, dataset[0].graph)
target = dataset[0].solutions[0].values
print("predictions vs best-known solution on one instance:")
print("  p:", np.round(probs, 2))
print("  x:", target.astype(int))

# Mini-batch vs full-batch normalization on a size-heterogeneous mix
# (6-variable knapsacks next to 90-variable coverings). The per-graph
# normalization keeps epoch losses comparable across batch compositions;
# the pooled normalization lets large graphs dominate some batches, which
# shows up as a noisier loss curve.
mix = [targets_for(generate_knapsack(6000 + s, 6, 2)) for s in range(20)]
mix += [targets_for(generate_covering(7000 + s, 90, 72), steps=60) for s in range(6)]
base = init_model(hidden_dim=16, seed=1)
_, curve_mini = train(base, mix, TrainConfig(lr=0.02, epochs=40, batch_size=4, seed=1,
                                             loss_mode="minibatch"))
_, curve_full = train(base, mix, TrainConfig(lr=0.02, epochs=40, batch_size=4, seed=1,
                                             loss_mode="fullbatch"))
print()
print("epoch-to-epoch loss-delta standard deviation on the mixed dataset:")
print(f"  minibatch: {np.std(np.diff(curve_mini)):.4f}")
print(f"  fullbatch: {np.std(np.diff(curve_full)):.4f}")
