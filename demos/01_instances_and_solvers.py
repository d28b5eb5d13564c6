"""Generate MILP instances, inspect the text format, and solve them three ways.

Run: python3 demos/01_instances_and_solvers.py
"""

import numpy as np

from confdive import (
    SolverConfig,
    brute_force_solve,
    generate_covering,
    generate_knapsack,
    serialize_instance,
    solve,
)

# Two seeded families. Knapsacks pack valuable items under capacity rows
# (emitted in minimization form); coverings demand roughly half of a random
# subset per row, with costs that track how often a variable appears.
knapsack = generate_knapsack(seed=1, n_items=3, n_dims=1)
covering = generate_covering(seed=3, n_vars=8, n_rows=4)

print("The canonical text format is line-oriented and diff-friendly:")
print(serialize_instance(knapsack))

# A brute-force oracle enumerates every binary assignment (up to 2^24).
# It anchors all solver tests.
oracle = brute_force_solve(knapsack)
print(f"oracle optimum: {oracle.objective} at {oracle.values}")

# The LP relaxation drops integrality; its bound is always at most the
# integer optimum for minimization. The instance solves it on first use and
# keeps it: the encoder and every unfixed branch-and-bound run read it.
relaxation = knapsack.root_lp
print(f"LP relaxation:  {relaxation.objective:.3f} at {np.round(relaxation.primal_values, 3)}")

# Branch and bound closes the gap exactly. The trajectory records every
# improving incumbent against a deterministic step clock.
trajectory, _ = solve(knapsack, {}, SolverConfig(step_limit=10_000))
print(f"branch&bound:   {trajectory.final_objective()} "
      f"(proved optimal: {trajectory.proved_optimal}, steps: {trajectory.terminal_step})")
for event in trajectory.events:
    print(f"  step {event.step}: incumbent {event.objective}")

# Fixing variables turns solve() into a subproblem solver; fixing everything
# to the oracle optimum reduces it to a feasibility check.
fixed_traj, _ = solve(
    knapsack, {j: int(v) for j, v in enumerate(oracle.values)}, SolverConfig(step_limit=100)
)
print(f"fully fixed:    one event at {fixed_traj.events[0].objective}")

print()
print(f"covering instance {covering.name}: optimum {brute_force_solve(covering).objective}, "
      "all-ones is always feasible by construction")
