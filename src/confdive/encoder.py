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


class ShapeMismatch(ValueError):
    """Graph or target dimensions do not match the model, or each other."""


@dataclass(frozen=True, eq=False)
class Segments:
    """One graph side's edges grouped by node, for a rank-major segment sum.

    Edge ``e`` of node ``index[e]`` belongs at row ``rank * n + index[e]`` of a
    ``(width * n) x h`` block, where ``rank`` counts the node's earlier edges in
    input order; summing the block's ``width`` slabs of ``n`` rows adds each
    node's rows in input order (``gcnn._scatter_add``). ``gather`` holds the
    edge at each block row, and ``E`` at a padding row, so the block, or any
    run of its slabs, is one gather from the E edge rows and a zero row after them.
    """

    index: np.ndarray  # [E] the node of each edge
    degree: np.ndarray  # [n] edges per node, at least 1: the divisor of a mean message
    gather: np.ndarray  # [width * n] the edge at each block row, E at padding
    width: int  # the largest number of edges at one node, 0 without edges

    @property
    def n(self) -> int:
        return self.degree.shape[0]


def _segments(index: np.ndarray, n: int, field: str) -> Segments:
    """Check one side's edge indices against its ``n`` nodes and group them."""
    if not np.issubdtype(index.dtype, np.integer):
        raise ShapeMismatch(f"{field} must hold integers, got {index.dtype}")
    if index.size and (index.min() < 0 or index.max() >= n):
        raise ShapeMismatch(f"{field} holds a node index outside [0, {n})")
    counts = np.bincount(index, minlength=n)
    order = np.argsort(index, kind="stable")
    rank = np.empty(index.shape[0], dtype=np.int64)
    rank[order] = np.arange(index.shape[0]) - (np.cumsum(counts) - counts)[index[order]]
    width = int(counts.max(initial=0))
    gather = np.full(width * n, index.shape[0], dtype=np.int64)
    gather[rank * n + index] = np.arange(index.shape[0])
    return Segments(index, np.maximum(counts, 1), gather, width)


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
    def segments(self) -> tuple[Segments, Segments]:
        """The constraint side's and the variable side's :class:`Segments`.

        Built on first use, after checking the edge structure once: the GCNN
        gathers with ``mode="clip"``, which would clamp an index out of range
        instead of failing on it.
        """
        e = self.n_edges
        if self.edge_con.shape != (e,) or self.edge_var.shape != (e,):
            raise ShapeMismatch(f"edge_con {self.edge_con.shape} and edge_var "
                                f"{self.edge_var.shape} must both be one row of edges")
        if self.edge_feat.shape != (e,):
            raise ShapeMismatch(f"edge_feat shape {self.edge_feat.shape} != ({e},)")
        if self.binary_mask.shape != (self.n_vars,) or self.binary_mask.dtype != bool:
            raise ShapeMismatch(f"binary_mask must be {self.n_vars} bools, got shape "
                                f"{self.binary_mask.shape} of {self.binary_mask.dtype}")
        return (_segments(self.edge_con, self.n_cons, "edge_con"),
                _segments(self.edge_var, self.n_vars, "edge_var"))


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
