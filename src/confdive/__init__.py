"""confdive: a self-contained lab for learned MILP diving.

Generate instances, collect solutions with an exact branch-and-bound solver,
train a bipartite GCNN to predict binary assignments, fix the high-confidence
ones behind a symmetric threshold, and measure the primal-integral effect
against plain solves.
"""

from .bnb import (
    IncumbentTrajectory,
    InfeasibleSubproblem,
    SolutionPool,
    SolverConfig,
    parse_pool,
    serialize_pool,
    solve,
)
from .diving import (
    DEFAULT_GRID,
    DiveOutcome,
    InvalidThreshold,
    PartialAssignment,
    ThresholdReport,
    dive_and_solve,
    fix_by_threshold,
    grid_search,
    report_to_csv,
)
from .encoder import BipartiteGraph, encode, graph_to_csv
from .evaluation import (
    EvalConfig,
    EvalRow,
    EventBeyondHorizon,
    compare,
    eval_configs,
    plot_primal_bound,
    primal_integral,
    rows_to_csv,
    worst_case_objective,
)
from .gcnn import (
    DivergenceDetected,
    GcnnModel,
    GraphTargets,
    ShapeMismatch,
    TargetSolution,
    TrainConfig,
    backward,
    compute_solution_weights,
    forward,
    init_model,
    load_model,
    loss_fullbatch,
    loss_minibatch,
    pool_targets,
    save_model,
    train,
)
from .instances import (
    Assignment,
    ConstraintDef,
    Infeasible,
    InstanceFormatError,
    InstanceValidationError,
    MilpInstance,
    OracleTooLarge,
    VarDef,
    brute_force_solve,
    generate_covering,
    generate_knapsack,
    parse_instance,
    parse_solution,
    serialize_instance,
    serialize_solution,
)
from .simplex import LpResult, NumericalBreakdown, solve_lp

__version__ = "0.1.0"
