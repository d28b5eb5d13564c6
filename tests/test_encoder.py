import numpy as np
import pytest

from confdive.encoder import CON_FEATURE_DIM, VAR_FEATURE_DIM, encode, graph_to_csv
from confdive.instances import (
    ConstraintDef,
    MilpInstance,
    VarDef,
    generate_covering,
    generate_knapsack,
    parse_instance,
    serialize_instance,
)
from confdive.simplex import solve_lp

from oracles import edge_list


def test_degenerate_graph():
    inst = MilpInstance("one", (VarDef("x", "binary", 0, 1, 1.0),), ())
    g = encode(inst)
    assert (g.n_vars, g.n_cons, g.n_edges) == (1, 0, 0)
    assert g.binary_mask.tolist() == [True]


def test_dense_knapsack_row():
    g = encode(generate_knapsack(1, 3, 1))
    assert (g.n_vars, g.n_cons, g.n_edges) == (3, 1, 3)
    assert g.var_feats.shape == (3, VAR_FEATURE_DIM)
    assert g.con_feats.shape == (1, CON_FEATURE_DIM)


def test_edge_count_equals_nnz():
    inst = generate_covering(4, 15, 8)
    g = encode(inst)
    assert g.n_edges == sum(len(c.terms) for c in inst.constraints)
    pairs = list(zip(g.edge_con.tolist(), g.edge_var.tolist()))
    assert len(pairs) == len(set(pairs))


@pytest.mark.parametrize("seed", range(6))
def test_features_normalized(seed):
    inst = generate_covering(seed, 12 + seed, 6)
    g = encode(inst)
    for arr in (g.var_feats, g.con_feats, g.edge_feat):
        assert np.all(np.isfinite(arr))
        assert np.all(arr >= -1.0 - 1e-12) and np.all(arr <= 1.0 + 1e-12)


def test_objective_scaling_invariance():
    inst = generate_knapsack(5, 6, 2)
    scaled = MilpInstance(
        inst.name,
        tuple(VarDef(v.name, v.kind, v.lb, v.ub, v.obj * 10.0) for v in inst.vars),
        inst.constraints,
    )
    a, b = encode(inst), encode(scaled)
    assert np.allclose(a.var_feats[:, 0], b.var_feats[:, 0], atol=1e-12)
    assert np.array_equal(a.edge_feat, b.edge_feat)


def test_binary_mask_marks_binaries():
    inst = MilpInstance(
        "mixed",
        (
            VarDef("b", "binary", 0, 1, 1.0),
            VarDef("i", "integer", 0, 4, 1.0),
            VarDef("c", "continuous", 0, 2, 1.0),
        ),
        (),
    )
    g = encode(inst)
    assert g.binary_mask.tolist() == [True, False, False]
    assert g.var_feats[:, 1].tolist() == [1.0, 0.0, 0.0]


def _permute_instance(inst, perm):
    inv = {int(old): new for new, old in enumerate(perm)}
    var_defs = tuple(inst.vars[int(j)] for j in perm)
    cons = tuple(
        ConstraintDef(c.name, tuple((inv[j], a) for j, a in c.terms), c.rhs)
        for c in inst.constraints
    )
    return MilpInstance(inst.name, var_defs, cons)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_permutation_equivariance(seed):
    inst = generate_covering(seed + 70, 10, 5)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(inst.n)
    shuffled = _permute_instance(inst, perm)
    g = encode(inst)
    gs = encode(shuffled)
    # row k of the shuffled encoding describes original variable perm[k]
    assert np.allclose(gs.var_feats, g.var_feats[perm], atol=1e-9)
    orig_edges = {(ci, vi): f for ci, vi, f in edge_list(g)}
    for ci, vi, f in edge_list(gs):
        assert orig_edges[(ci, int(perm[vi]))] == pytest.approx(f, abs=1e-12)


def test_root_lp_feature_flag():
    """Column 4 is the root LP value scaled by the largest bound, and 0 when
    the root LP is infeasible."""
    for inst in (generate_covering(8, 10, 5), generate_knapsack(8, 10, 2),
                 MilpInstance("int", (VarDef("x", "integer", 0, 4, -1.0),),
                              (ConstraintDef("r", ((0, 2.0),), 5.0),))):
        res = solve_lp(inst)
        assert res.status == "optimal"
        lb, ub = inst.bounds_arrays()
        expected = np.clip(res.primal_values / max(np.max(np.abs(np.r_[lb, ub])), 1e-12), -1.0, 1.0)
        col = encode(inst).var_feats[:, 4]
        assert np.array_equal(col, expected) and np.any(col != 0.0)
    infeasible = MilpInstance(
        "cover",
        (VarDef("x0", "binary", 0, 1, 1.0), VarDef("x1", "binary", 0, 1, 1.0)),
        (ConstraintDef("r", ((0, -1.0), (1, -1.0)), -3.0),),
    )
    assert solve_lp(infeasible).status == "infeasible"
    assert np.all(encode(infeasible).var_feats[:, 4] == 0.0)


def test_csv_dump_shapes():
    g = encode(generate_knapsack(2, 4, 2))
    var_csv, con_csv, edge_csv = graph_to_csv(g)
    assert len(var_csv.splitlines()) == 1 + g.n_vars
    assert len(con_csv.splitlines()) == 1 + g.n_cons
    assert len(edge_csv.splitlines()) == 1 + g.n_edges
    assert var_csv.startswith("index,")
    assert edge_csv.startswith("con_index,var_index,")


def test_deterministic_encoding():
    inst = parse_instance(serialize_instance(generate_covering(9, 14, 7)))
    a, b = encode(inst), encode(inst)
    assert np.array_equal(a.var_feats, b.var_feats)
    assert np.array_equal(a.con_feats, b.con_feats)
    assert np.array_equal(a.edge_feat, b.edge_feat)


def test_row_form_keeps_term_order_and_zero_coefficients():
    inst = parse_instance(
        "VAR a binary 0 1 1\nVAR b binary 0 1 2\nVAR c binary 0 1 3\nVAR d binary 0 1 4\n"
        "CON r le 4 3:2 0:-4 2:0\nCON s ge 1 1:1\nCON t le 0\n"
    )
    rows, cols, coefs = inst.row_terms()
    assert rows.tolist() == [0, 0, 0, 1]
    assert cols.tolist() == [3, 0, 2, 1]
    assert coefs.tolist() == [2.0, -4.0, 0.0, -1.0]

    g = encode(inst)
    assert edge_list(g) == [(0, 3, 0.5), (0, 0, -1.0), (0, 2, 0.0), (1, 1, -1.0)]
    assert g.con_feats[:, 1].tolist() == [3 / 4, 1 / 4, 0.0]

    A_walk = np.zeros((inst.m, inst.n))
    for i, con in enumerate(inst.constraints):
        for j, a in con.terms:
            A_walk[i, j] = a
    A, b = inst.dense_matrix()
    assert np.array_equal(A, A_walk)
    assert b.tolist() == [4.0, -1.0, 0.0]
