"""Instance -> bipartite variable/constraint graph with normalized features.

Variable features: [objective / max|c|, is_binary, lb / B, ub / B, root LP
value / B] where B is the largest finite bound magnitude (guarded); the root
LP is the instance's ``root_lp``, and its value is 0 when that LP is not
optimal. Constraint features: [rhs / max(|b|, 1), row degree / n]. Edge
feature: coefficient divided by the largest magnitude in its row. Everything
lands in [-1, 1].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .instances import MilpInstance

VAR_FEATURE_DIM = 5
CON_FEATURE_DIM = 2


@dataclass(eq=False)
class BipartiteGraph:
    var_feats: np.ndarray  # [n_vars, VAR_FEATURE_DIM]
    con_feats: np.ndarray  # [n_cons, CON_FEATURE_DIM]
    edge_con: np.ndarray  # [n_edges] constraint indices
    edge_var: np.ndarray  # [n_edges] variable indices
    edge_feat: np.ndarray  # [n_edges]
    binary_mask: np.ndarray  # [n_vars] bool

    @property
    def n_vars(self) -> int:
        return self.var_feats.shape[0]

    @property
    def n_cons(self) -> int:
        return self.con_feats.shape[0]

    @property
    def n_edges(self) -> int:
        return self.edge_con.shape[0]

    @cached_property
    def con_degree(self) -> np.ndarray:
        """Edges per constraint, at least 1: the divisor of a mean message."""
        return np.maximum(np.bincount(self.edge_con, minlength=self.n_cons), 1)

    @cached_property
    def var_degree(self) -> np.ndarray:
        """Edges per variable, at least 1: the divisor of a mean message."""
        return np.maximum(np.bincount(self.edge_var, minlength=self.n_vars), 1)

    @property
    def edges(self) -> list[tuple[int, int, float]]:
        return [
            (int(ci), int(vi), float(f))
            for ci, vi, f in zip(self.edge_con, self.edge_var, self.edge_feat)
        ]


def encode(instance: MilpInstance) -> BipartiteGraph:
    """Deterministic feature encoding; one edge per nonzero coefficient."""
    n, m = instance.n, instance.m
    c = instance.objective_vector()
    lb, ub = instance.bounds_arrays()
    binary = instance.binary_mask()

    c_denom = max(float(np.abs(c).max(initial=0.0)), 1e-12)
    finite_bounds = np.abs(np.concatenate([lb[np.isfinite(lb)], ub[np.isfinite(ub)]]))
    b_denom_bounds = max(float(finite_bounds.max(initial=0.0)), 1e-12)

    res = instance.root_lp
    root_vals = res.primal_values if res.status == "optimal" else np.zeros(n)

    var_feats = np.zeros((n, VAR_FEATURE_DIM))
    var_feats[:, 0] = c / c_denom
    var_feats[:, 1] = binary.astype(np.float64)
    var_feats[:, 2] = np.clip(lb / b_denom_bounds, -1.0, 1.0)
    var_feats[:, 3] = np.clip(ub / b_denom_bounds, -1.0, 1.0)
    var_feats[:, 4] = np.clip(root_vals / b_denom_bounds, -1.0, 1.0)

    rhs = np.array([con.rhs for con in instance.constraints], dtype=np.float64)
    rhs_denom = max(float(np.abs(rhs).max(initial=0.0)), 1.0)
    rows, cols, coefs = instance.row_terms()
    row_max = np.zeros(m)
    np.maximum.at(row_max, rows, np.abs(coefs))
    con_feats = np.zeros((m, CON_FEATURE_DIM))
    con_feats[:, 0] = rhs / rhs_denom
    con_feats[:, 1] = np.bincount(rows, minlength=m) / n

    return BipartiteGraph(
        var_feats=var_feats,
        con_feats=con_feats,
        edge_con=rows,
        edge_var=cols,
        edge_feat=coefs / np.maximum(row_max, 1e-12)[rows],
        binary_mask=binary,
    )


def graph_to_csv(graph: BipartiteGraph) -> tuple[str, str, str]:
    """Debug dump: (variable table, constraint table, edge table) as CSV text."""
    var_lines = ["index,obj_norm,is_binary,lb_norm,ub_norm,root_lp_norm"]
    for i, row in enumerate(graph.var_feats):
        var_lines.append(f"{i}," + ",".join(repr(float(x)) for x in row))
    con_lines = ["index,rhs_norm,degree_norm"]
    for i, row in enumerate(graph.con_feats):
        con_lines.append(f"{i}," + ",".join(repr(float(x)) for x in row))
    edge_lines = ["con_index,var_index,coef_norm"]
    for ci, vi, f in zip(graph.edge_con, graph.edge_var, graph.edge_feat):
        edge_lines.append(f"{int(ci)},{int(vi)},{repr(float(f))}")
    return (
        "\n".join(var_lines) + "\n",
        "\n".join(con_lines) + "\n",
        "\n".join(edge_lines) + "\n",
    )
