import math

import numpy as np
import pytest

from confdive import gcnn
from confdive.bnb import SolutionPool, SolverConfig, solve
from confdive.encoder import CON_FEATURE_DIM, VAR_FEATURE_DIM, BipartiteGraph, _segments, encode
from confdive.gcnn import (
    DivergenceDetected,
    _graph_term,
    _loss_and_gradients,
    _pack_batch,
    _pack_targets,
    _scatter_add,
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
    save_model,
    train,
)
from confdive.instances import Assignment, MilpInstance, VarDef, generate_covering

from oracles import concat_half_conv, concat_half_conv_backward, edge_list, per_solution_graph_term


def graph_with_binaries(k, seed=0):
    inst = generate_covering(seed, max(k, 2), max(1, k // 2))
    g = encode(inst)
    if k == 1:
        inst = MilpInstance("one", (VarDef("x", "binary", 0, 1, 1.0),), ())
        g = encode(inst)
    return g


def zero_head(model):
    model.head.w[:] = 0.0
    model.head.b[:] = 0.0
    return model


def straight_line_forward(model, graph):
    """Direct re-implementation of the wiring with plain loops: variable-to-constraint
    messages update constraint embeddings, then constraint-to-variable messages update
    variable embeddings, and a logistic head reads the variable side."""
    h = model.hidden_dim
    relu = lambda x: np.maximum(x, 0.0)
    hv = np.array([relu(model.var_embed.w.T @ row + model.var_embed.b) for row in graph.var_feats])
    hc = np.array([relu(model.con_embed.w.T @ row + model.con_embed.b) for row in graph.con_feats])

    sums = np.zeros((graph.n_cons, h))
    counts = np.zeros(graph.n_cons)
    for ci, vi, e in edge_list(graph):
        msg_in = np.concatenate([hc[ci], hv[vi], [e]])
        sums[ci] += relu(model.v2c_msg.w.T @ msg_in + model.v2c_msg.b)
        counts[ci] += 1
    hc_new = np.zeros_like(hc)
    for i in range(graph.n_cons):
        mean = sums[i] / counts[i] if counts[i] else np.zeros(h)
        hc_new[i] = relu(model.v2c_upd.w.T @ np.concatenate([hc[i], mean]) + model.v2c_upd.b)

    sums_v = np.zeros((graph.n_vars, h))
    counts_v = np.zeros(graph.n_vars)
    for ci, vi, e in edge_list(graph):
        msg_in = np.concatenate([hc_new[ci], hv[vi], [e]])
        sums_v[vi] += relu(model.c2v_msg.w.T @ msg_in + model.c2v_msg.b)
        counts_v[vi] += 1
    out = []
    for j in range(graph.n_vars):
        if not graph.binary_mask[j]:
            continue
        mean = sums_v[j] / counts_v[j] if counts_v[j] else np.zeros(h)
        hv_new = relu(model.c2v_upd.w.T @ np.concatenate([hv[j], mean]) + model.c2v_upd.b)
        logit = float(model.head.w[:, 0] @ hv_new + model.head.b[0])
        out.append(1.0 / (1.0 + math.exp(-logit)))
    return np.array(out)


class TestForward:
    def test_zero_head_gives_half(self):
        g = graph_with_binaries(5, seed=1)
        model = zero_head(init_model(hidden_dim=8, seed=3))
        assert np.array_equal(forward(model, g), np.full(5, 0.5))

    def test_output_length_and_range(self):
        for seed in range(5):
            g = graph_with_binaries(6 + seed, seed=seed)
            model = init_model(hidden_dim=8, seed=seed)
            p = forward(model, g)
            assert p.shape == (int(g.binary_mask.sum()),)
            assert np.all(p > 0.0) and np.all(p < 1.0)

    def test_range_and_determinism_on_thousand_graphs(self):
        for seed in range(1000):
            n = 4 + seed % 9
            inst = generate_covering(seed, n, min(2 + seed % 4, n))
            g = encode(inst)
            model = init_model(hidden_dim=4, seed=seed % 17)
            p = forward(model, g)
            assert np.all(p > 0.0) and np.all(p < 1.0)
            if seed % 100 == 0:
                assert np.array_equal(p, forward(model, g))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_straight_line_reimplementation(self, seed):
        g = graph_with_binaries(4 + seed, seed=seed)
        model = init_model(hidden_dim=5, seed=seed + 10)
        assert np.allclose(forward(model, g), straight_line_forward(model, g), atol=1e-10)

    def test_deterministic(self):
        g = graph_with_binaries(7, seed=2)
        model = init_model(seed=5)
        assert np.array_equal(forward(model, g), forward(model, g))

    def test_shape_mismatch_raises(self):
        g = graph_with_binaries(4, seed=2)
        model = init_model(f_var=3, hidden_dim=4, seed=0)
        with pytest.raises(ShapeMismatch):
            forward(model, g)

    def test_permutation_equivariance(self):
        g = graph_with_binaries(8, seed=4)
        model = init_model(hidden_dim=6, seed=1)
        rng = np.random.default_rng(0)
        perm = rng.permutation(g.n_vars)
        inv = np.argsort(perm)
        shuffled = type(g)(
            var_feats=g.var_feats[perm],
            con_feats=g.con_feats,
            edge_con=g.edge_con,
            edge_var=inv[g.edge_var],
            edge_feat=g.edge_feat,
            binary_mask=g.binary_mask[perm],
        )
        assert np.allclose(forward(model, shuffled), forward(model, g)[perm], atol=1e-10)


class TestLoss:
    def test_single_var_half_probability_is_ln2(self):
        g = graph_with_binaries(1)
        model = zero_head(init_model(seed=0))
        batch = [GraphTargets(g, [TargetSolution(np.array([1.0]), 1.0)])]
        assert loss_minibatch(model, batch) == pytest.approx(math.log(2), abs=1e-12)

    def test_duplication_invariance(self):
        g = graph_with_binaries(5, seed=3)
        model = init_model(seed=4)
        item = GraphTargets(g, [TargetSolution(np.ones(5), 1.0)])
        once = loss_minibatch(model, [item])
        twice = loss_minibatch(model, [item, item])
        assert twice == pytest.approx(once, abs=1e-12)

    def test_two_graph_hand_value(self):
        g1, g4 = graph_with_binaries(1), graph_with_binaries(4, seed=6)
        model = zero_head(init_model(seed=1))
        batch = [
            GraphTargets(g1, [TargetSolution(np.array([1.0]), 1.0)]),
            GraphTargets(g4, [TargetSolution(np.zeros(4), 1.0)]),
        ]
        assert loss_minibatch(model, batch) == pytest.approx(math.log(2), abs=1e-12)
        # equal per-graph node-count batches coincide across modes
        batch_eq = [
            GraphTargets(g4, [TargetSolution(np.zeros(4), 1.0)]),
            GraphTargets(g4, [TargetSolution(np.ones(4), 1.0)]),
        ]
        assert loss_fullbatch(model, batch_eq) == loss_minibatch(model, batch_eq)

    def test_fullbatch_differs_with_concentrated_weights(self):
        g1, g4 = graph_with_binaries(1), graph_with_binaries(4, seed=6)
        model = zero_head(init_model(seed=1))
        batch = [  # the 4-node graph's term weighs as much as the 1-node graph's
            GraphTargets(g1, [TargetSolution(np.array([1.0]), 1.0)]),
            GraphTargets(g4, [TargetSolution(np.zeros(4), 0.25)]),
        ]
        mb = loss_minibatch(model, batch)
        fb = loss_fullbatch(model, batch)
        assert mb == pytest.approx(0.625 * math.log(2), abs=1e-12)
        assert fb == pytest.approx(0.4 * math.log(2), abs=1e-12)
        assert mb != fb

    def test_empty_target_graph_contributes_zero(self):
        g1, g4 = graph_with_binaries(1), graph_with_binaries(4, seed=6)
        model = zero_head(init_model(seed=1))
        with_empty = [
            GraphTargets(g1, [TargetSolution(np.array([1.0]), 1.0)]),
            GraphTargets(g4, []),
        ]
        assert loss_fullbatch(model, with_empty) == pytest.approx(math.log(2) / 5, abs=1e-12)

    @pytest.mark.parametrize("mode", ["minibatch", "fullbatch"])
    def test_public_loss_is_the_training_loss_bit_for_bit(self, mode):
        # mixed graph sizes make per-graph and pooled scaling round differently
        graphs = [graph_with_binaries(k, seed=k) for k in (1, 3, 5, 7, 11)]
        model = init_model(seed=2)
        rng = np.random.default_rng(17)
        loss_fn = loss_minibatch if mode == "minibatch" else loss_fullbatch
        for _ in range(40):
            batch = []
            for g in rng.choice(len(graphs), size=int(rng.integers(1, 6))):
                k = int(graphs[g].binary_mask.sum())
                sols = [
                    TargetSolution(rng.integers(0, 2, size=k).astype(float), float(rng.random()))
                    for _ in range(int(rng.integers(0, 3)))
                ]
                batch.append(GraphTargets(graphs[g], sols))
            assert loss_fn(model, batch) == _loss_and_gradients(model, _pack_batch(batch), mode)[0]

    def test_loss_nonnegative_and_clamped(self):
        g = graph_with_binaries(3, seed=8)
        model = init_model(seed=9)
        batch = [GraphTargets(g, [TargetSolution(np.array([1.0, 0.0, 1.0]), 1.0)])]
        assert loss_minibatch(model, batch) >= 0.0


def targets_only_graph(k):
    """A graph with k binary variables and no constraints: all that target packing reads."""
    return BipartiteGraph(
        var_feats=np.zeros((k, VAR_FEATURE_DIM)),
        con_feats=np.zeros((0, CON_FEATURE_DIM)),
        edge_con=np.zeros(0, dtype=np.int64),
        edge_var=np.zeros(0, dtype=np.int64),
        edge_feat=np.zeros(0),
        binary_mask=np.ones(k, dtype=bool),
    )


class TestPackedTargets:
    @pytest.mark.parametrize("k", [1, 7, 40, 129, 300])
    @pytest.mark.parametrize("n_solutions", [1, 3, 8])
    def test_packed_term_matches_per_solution_reference_bit_for_bit(self, k, n_solutions):
        rng = np.random.default_rng(1000 * k + n_solutions)
        probs = rng.uniform(0.0, 1.0, k)
        probs[::5] = 1e-12  # below the clamp
        probs[2::7] = 1.0 - 1e-13  # above it
        solutions = []
        for s in range(n_solutions):
            x = rng.integers(0, 2, k).astype(float)
            x[rng.random(k) < 0.1] += 1e-10  # within the 0/1 tolerance
            weight = float(rng.random()) * (3.0 if s % 2 else 1.0)
            solutions.append(TargetSolution(x, weight))
        item = GraphTargets(targets_only_graph(k), solutions)
        packed = _pack_targets(item)
        for want_grad in (False, True):
            term, grad = _graph_term(probs, packed, want_grad)
            ref_term, ref_grad = per_solution_graph_term(probs, item, want_grad)
            assert np.float64(term).tobytes() == np.float64(ref_term).tobytes()
            if want_grad:
                assert grad.tobytes() == ref_grad.tobytes()
            else:
                assert grad is None and ref_grad is None


TARGET_MESSAGE = "target values must be 0 or 1"
WEIGHT_MESSAGE = "solution weights must be finite and nonnegative"
BAD_TARGETS = {  # one solution over 4 binaries: (values, weight, error, message)
    "short target": (np.zeros(3), 1.0, ShapeMismatch, r"target shape \(3,\)"),
    "weight vector of the wrong shape": (np.zeros(4), np.ones(4), ShapeMismatch, r"weight shape \(4,\)"),
    "half target": (np.array([0.0, 0.5, 1.0, 0.0]), 1.0, ValueError, TARGET_MESSAGE),
    "nan target": (np.array([0.0, np.nan, 1.0, 0.0]), 1.0, ValueError, TARGET_MESSAGE),
    "inf target": (np.array([0.0, np.inf, 1.0, 0.0]), 1.0, ValueError, TARGET_MESSAGE),
    "negative weight": (np.zeros(4), -0.1, ValueError, WEIGHT_MESSAGE),
    "nan weight": (np.zeros(4), np.nan, ValueError, WEIGHT_MESSAGE),
    "inf weight": (np.zeros(4), np.inf, ValueError, WEIGHT_MESSAGE),
}


class TestTargetValidation:
    def _dataset(self, kind):
        """Two good graphs, then one whose second solution is bad."""
        values, weight, error, message = BAD_TARGETS[kind]
        g = graph_with_binaries(4, seed=6)
        good = GraphTargets(g, [TargetSolution(np.ones(4), 1.0)])
        bad = GraphTargets(g, [TargetSolution(np.zeros(4), 0.5), TargetSolution(values, weight)])
        return [good, good, bad], error, message

    @pytest.mark.parametrize("kind", BAD_TARGETS)
    def test_loss_rejects(self, kind):
        batch, error, message = self._dataset(kind)
        with pytest.raises(error, match=message):
            loss_minibatch(init_model(seed=0), batch)

    @pytest.mark.parametrize("kind", BAD_TARGETS)
    def test_train_rejects_before_any_step(self, kind, monkeypatch):
        dataset, error, message = self._dataset(kind)
        steps = []
        original = gcnn._loss_and_gradients
        monkeypatch.setattr(
            gcnn, "_loss_and_gradients", lambda *args: steps.append(1) or original(*args)
        )
        with pytest.raises(error, match=message):
            train(init_model(seed=0), dataset, TrainConfig(lr=0.1, epochs=2, batch_size=1))
        assert steps == []


class TestBackward:
    def _fd_check(self, model, batch, mode, step=1e-5):
        loss_fn = loss_minibatch if mode == "minibatch" else loss_fullbatch
        grads = backward(model, batch, mode)
        worst = 0.0
        for name, arr in model.named_parameters():
            flat = arr.ravel()
            gflat = grads[name].ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + step
                up = loss_fn(model, batch)
                flat[i] = orig - step
                down = loss_fn(model, batch)
                flat[i] = orig
                fd = (up - down) / (2 * step)
                rel = abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), 1e-6)
                worst = max(worst, rel)
        return worst

    @pytest.mark.parametrize("mode", ["minibatch", "fullbatch"])
    def test_finite_difference_agreement(self, mode):
        rng = np.random.default_rng(0)
        g1 = graph_with_binaries(4, seed=2)
        g2 = graph_with_binaries(6, seed=3)
        model = init_model(hidden_dim=4, seed=11)
        batch = [
            GraphTargets(g1, [TargetSolution(rng.integers(0, 2, 4).astype(float), 0.7),
                              TargetSolution(rng.integers(0, 2, 4).astype(float), 0.3)]),
            GraphTargets(g2, [TargetSolution(rng.integers(0, 2, 6).astype(float), 1.0)]),
        ]
        assert self._fd_check(model, batch, mode) < 1e-4

    def test_zero_weights_zero_gradient(self):
        g = graph_with_binaries(4, seed=2)
        model = init_model(hidden_dim=4, seed=1)
        batch = [GraphTargets(g, [TargetSolution(np.zeros(4), 0.0)])]
        grads = backward(model, batch)
        assert all(np.all(arr == 0.0) for arr in grads.values())

    def test_duplicated_batch_gradient_invariance(self):
        g = graph_with_binaries(5, seed=4)
        model = init_model(hidden_dim=4, seed=2)
        item = GraphTargets(g, [TargetSolution(np.ones(5), 1.0)])
        single = backward(model, [item], "minibatch")
        double = backward(model, [item, item], "minibatch")
        for name in single:
            assert np.allclose(single[name], double[name], atol=1e-12)


class TestTrain:
    def _toy_dataset(self, count=8):
        ds = []
        for seed in range(count):
            inst = generate_covering(seed + 400, 8, 4)
            _, pool = solve(
                inst,
                {},
                SolverConfig(step_limit=60, heuristic_emphasis="aggressive",
                             collect_pool=True, pool_size=1),
            )
            g = encode(inst)
            ds.append(
                GraphTargets(g, [TargetSolution(pool.entries[0].values[g.binary_mask], 1.0)])
            )
        return ds

    def test_zero_lr_constant_curve(self):
        ds = self._toy_dataset()
        model = init_model(seed=0)
        _, curve = train(model, ds, TrainConfig(lr=0.0, epochs=5, batch_size=4, seed=0))
        # reshuffling only permutes float summation order
        assert max(curve) - min(curve) < 1e-12

    def test_training_reduces_loss(self):
        ds = self._toy_dataset()
        model = init_model(seed=0)
        trained, curve = train(model, ds, TrainConfig(lr=0.3, epochs=25, batch_size=4, seed=0))
        assert curve[-1] < 0.8 * curve[0]
        # the input model is untouched
        assert np.array_equal(
            dict(model.named_parameters())["head.w"],
            dict(init_model(seed=0).named_parameters())["head.w"],
        )

    def test_determinism(self):
        ds = self._toy_dataset()
        cfg = TrainConfig(lr=0.2, epochs=4, batch_size=4, seed=7)
        _, c1 = train(init_model(seed=1), ds, cfg)
        _, c2 = train(init_model(seed=1), ds, cfg)
        assert c1 == c2

    def test_divergence_detected(self):
        # one enormous step overflows the next forward pass into NaN
        ds = self._toy_dataset(4)
        model = init_model(seed=0)
        with np.errstate(all="ignore"), pytest.raises(DivergenceDetected):
            train(model, ds, TrainConfig(lr=1e150, epochs=5, batch_size=2, seed=0))

    def test_hundred_instances_thirty_epochs_halves_loss(self):
        # best-solution targets over 100 small coverings are cleanly learnable
        ds = []
        for seed in range(100):
            inst = generate_covering(seed + 1000, 12, 6)
            _, pool = solve(
                inst,
                {},
                SolverConfig(step_limit=100, heuristic_emphasis="aggressive",
                             collect_pool=True, pool_size=1),
            )
            g = encode(inst)
            ds.append(
                GraphTargets(g, [TargetSolution(pool.entries[0].values[g.binary_mask], 1.0)])
            )
        model = init_model(hidden_dim=16, seed=0)
        _, curve = train(model, ds, TrainConfig(lr=0.3, epochs=30, batch_size=8, seed=0))
        assert curve[-1] <= 0.5 * curve[0], (curve[0], curve[-1])


class TestSolutionWeights:
    def _pool(self, objectives):
        entries = tuple(
            Assignment(np.zeros(2), obj) for obj in objectives
        )
        return SolutionPool("p", entries)

    def test_single_solution(self):
        assert compute_solution_weights(self._pool([3.0])).tolist() == [1.0]

    def test_equal_objectives_split_evenly(self):
        assert compute_solution_weights(self._pool([2.0, 2.0])).tolist() == [0.5, 0.5]

    def test_softmax_of_normalized_objectives(self):
        w = compute_solution_weights(self._pool([-9.0, -7.0]), temperature=1.0)
        expected = np.array([math.e, 1.0]) / (math.e + 1.0)
        assert np.allclose(w, expected, atol=1e-12)
        assert w[0] == pytest.approx(0.7310585786300049, abs=1e-12)

    def test_uniform_flag(self):
        w = compute_solution_weights(self._pool([1.0, 5.0, 9.0]), temperature=math.inf)
        assert w.tolist() == [1 / 3] * 3

    def test_better_objective_never_lighter(self):
        w = compute_solution_weights(self._pool([1.0, 2.0, 8.0]))
        assert w[0] >= w[1] >= w[2]
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("temperature", [0.0, -1.0, float("nan")])
    def test_nonpositive_temperature_rejected(self, temperature):
        # at T=-1 the softmax would silently favour the worse objective
        with pytest.raises(ValueError, match="temperature"):
            compute_solution_weights(self._pool([1.0, 3.0]), temperature=temperature)


class TestSerialization:
    def test_round_trip_bitwise(self):
        model = init_model(hidden_dim=6, seed=13)
        text = save_model(model)
        back = load_model(text)
        for (name, a), (_, b) in zip(model.named_parameters(), back.named_parameters()):
            assert np.array_equal(a, b), name
        assert save_model(back) == text
        g = graph_with_binaries(5, seed=5)
        assert np.array_equal(forward(model, g), forward(back, g))

    def test_rows_are_written_as_the_repr_of_each_float(self):
        # row-wise repr over tolist() writes what repr(float(x)) per numpy scalar wrote
        model = init_model(hidden_dim=64, seed=3)
        model.var_embed.w[0, :3] = [-0.0, 5e-324, 1e308]
        model.head.b[:] = -1e-308
        text = save_model(model)
        lines = text.splitlines()[:4]  # the header
        for name, arr in model.named_parameters():
            lines.append(f"PARAM {name} {' '.join(map(str, arr.shape))}")
            lines += [" ".join(repr(float(x)) for x in row) for row in np.atleast_2d(arr)]
        assert text == "\n".join(lines) + "\n"
        assert "-0.0 5e-324 1e+308" in text

    def test_header_validation(self):
        with pytest.raises(ValueError):
            load_model("NOT A MODEL\n")
        model = init_model(hidden_dim=4, seed=0)
        text = save_model(model).replace("GCNN 1", "GCNN 9")
        with pytest.raises(ValueError):
            load_model(text)

    def test_training_then_pool_weights_integration(self):
        inst = generate_covering(500, 10, 5)
        _, pool = solve(
            inst,
            {},
            SolverConfig(step_limit=100, heuristic_emphasis="aggressive",
                         collect_pool=True, pool_size=3),
        )
        weights = compute_solution_weights(pool)
        assert weights.shape == (len(pool.entries),)
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)


class TestMalformedModelFiles:
    def _text(self):
        return save_model(init_model(hidden_dim=4, seed=1))

    def test_empty_file(self):
        with pytest.raises(ValueError, match="not a GCNN model file"):
            load_model("")

    @pytest.mark.parametrize("key", ["hidden_dim", "f_var", "f_con"])
    def test_header_key_missing(self, key):
        text = "".join(ln for ln in self._text().splitlines(True) if not ln.startswith(key))
        with pytest.raises(ValueError, match=f"misses {key}"):
            load_model(text)

    # a matrix without rows, a matrix cut short, a bias without its values
    @pytest.mark.parametrize("keep", [5, 7, 11])
    def test_truncated_parameter(self, keep):
        text = "\n".join(self._text().splitlines()[:keep]) + "\n"
        with pytest.raises(ValueError, match="truncated"):
            load_model(text)

    def test_values_disagree_with_declared_shape(self):
        lines = self._text().splitlines()
        bias = lines.index("PARAM var_embed.b 4") + 1
        short_bias = lines[:bias] + [lines[bias].rsplit(" ", 1)[0]] + lines[bias + 1 :]
        with pytest.raises(ValueError, match=r"var_embed.b has shape \(3,\), expected \(4,\)"):
            load_model("\n".join(short_bias) + "\n")
        row = lines.index("PARAM con_embed.w 2 4") + 1
        short_rows = lines[:row] + [ln.rsplit(" ", 1)[0] for ln in lines[row : row + 2]]
        with pytest.raises(ValueError, match=r"con_embed.w has shape \(2, 3\), expected \(2, 4\)"):
            load_model("\n".join(short_rows + lines[row + 2 :]) + "\n")

    def test_ragged_matrix_names_the_parameter(self):
        lines = self._text().splitlines()
        row = lines.index("PARAM con_embed.w 2 4") + 1
        lines[row] = lines[row].rsplit(" ", 1)[0]  # first row 3 values, second row 4
        with pytest.raises(ValueError, match=r"con_embed.w of declared shape \(2, 4\) is malformed"):
            load_model("\n".join(lines) + "\n")

    def test_non_numeric_value_names_the_parameter(self):
        lines = self._text().splitlines()
        bias = lines.index("PARAM var_embed.b 4") + 1
        lines[bias] = "0.5 x " + lines[bias].split(" ", 2)[2]
        with pytest.raises(ValueError, match=r"var_embed.b of declared shape \(4,\) is malformed"):
            load_model("\n".join(lines) + "\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_names_the_parameter(self, value):
        lines = self._text().splitlines()
        lines[lines.index("PARAM head.b 1") + 1] = value  # forward would give all-NaN probabilities
        with pytest.raises(ValueError, match="parameter head.b has a non-finite value"):
            load_model("\n".join(lines) + "\n")

    def test_non_integer_header_value_names_the_key(self):
        text = self._text().replace("hidden_dim 4", "hidden_dim four")
        with pytest.raises(ValueError, match="model header hidden_dim must be an integer, got 'four'"):
            load_model(text)

    def test_header_line_with_extra_token_is_quoted(self):
        text = self._text().replace("f_var 5", "f_var 5 6")
        with pytest.raises(ValueError, match="model header, got 'f_var 5 6'"):
            load_model(text)

    @pytest.mark.parametrize(
        "after, extra, named",
        [
            ("hidden_dim 4\n", "hidden_dims 3\n", "got 'hidden_dims 3'"),
            ("f_var 5\n", "f_var 5\n", "got 'f_var 5'"),
            (None, "PARAM bogus.b 1\n1.0\n", "parameter 'bogus.b'"),
            (None, "PARAM head.b 1\n123.0\n", "parameter 'head.b'"),  # would replace the first
        ],
        ids=["unknown-header-key", "repeated-header-key", "unknown-block", "repeated-block"],
    )
    def test_what_save_model_never_writes_is_rejected_by_name(self, after, extra, named):
        text = self._text()
        text = text + extra if after is None else text.replace(after, after + extra, 1)
        with pytest.raises(ValueError, match=named):
            load_model(text)

    def test_non_integer_parameter_shape_names_the_parameter(self):
        text = self._text().replace("PARAM var_embed.b 4", "PARAM var_embed.b x")
        with pytest.raises(ValueError, match="shape of parameter var_embed.b must be an integer, got 'x'"):
            load_model(text)

    def test_header_hidden_dim_disagrees_with_parameters(self):
        text = self._text().replace("hidden_dim 4", "hidden_dim 5")
        with pytest.raises(ValueError, match="var_embed"):
            load_model(text)

    def test_block_of_wrong_shape(self):
        # c2v_upd saved with the v2c_msg shape: every row of the right width, one row too many
        model = init_model(hidden_dim=4, seed=1)
        model.c2v_upd = init_model(hidden_dim=4, seed=2).c2v_msg
        with pytest.raises(ValueError, match="c2v_upd"):
            load_model(save_model(model))


def scatter(idx, rows, n):
    """``_scatter_add`` over the segments of ``idx``, into a block that starts as NaN.

    ``rows`` holds the edge rows and the spare row, which starts as NaN too;
    the edge rows must come back unchanged and the spare row zeroed."""
    seg = _segments(np.asarray(idx, dtype=np.int64), n, "idx")
    rows[-1] = np.nan
    edge_rows = rows[:-1].copy()
    got = _scatter_add(seg, rows, np.full((seg.gather.size, rows.shape[1]), np.nan))
    assert rows[:-1].tobytes() == edge_rows.tobytes()
    assert rows[-1].tobytes() == np.zeros(rows.shape[1]).tobytes()
    return got


class TestScatterAdd:
    """``_scatter_add``, the rank-major segment sum, against ``np.add.at`` into zeros, byte for byte.

    Each case passes the E edge rows and one spare row, as the GCNN does."""

    @staticmethod
    def _add_at(idx, rows, n):
        out = np.zeros((n, rows.shape[1]))
        np.add.at(out, idx, rows)
        return out

    def _check(self, idx, rows, n):
        expected = self._add_at(idx, rows[:-1], n)
        got = scatter(idx, rows, n)
        assert got.dtype == np.float64 and got.shape == (n, rows.shape[1])
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_add_at_bytes(self, seed):
        rng = np.random.default_rng(seed)
        n, h = int(rng.integers(1, 12)), int(rng.integers(1, 9))
        n_edges = int(rng.integers(0, 40))
        idx = rng.integers(0, n, n_edges)  # unsorted, repeated, some nodes without edges
        if seed % 2:  # a strided column slice
            rows = rng.normal(size=(n_edges + 1, 3 * h))[:, h : 2 * h]
        else:
            rows = rng.normal(size=(n_edges + 1, h))
        self._check(idx, rows, n)

    @pytest.mark.parametrize("chunk_cells", [1, 3, 8])
    @pytest.mark.parametrize("seed", range(8))
    def test_slab_groups_match_add_at_bytes(self, seed, chunk_cells, monkeypatch):
        """Small chunks split the slabs into several groups, each summed behind
        the running sum, in a block of exactly ``_block_rows`` rows."""
        monkeypatch.setattr(gcnn, "EDGE_CHUNK_CELLS", chunk_cells)
        rng = np.random.default_rng(50 + seed)
        n, h = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        idx = rng.integers(0, n, int(rng.integers(20, 60)))
        rows = rng.normal(size=(idx.size + 1, h))
        rows[rng.random(idx.size + 1) < 0.2] = -0.0
        seg = _segments(idx, n, "idx")
        assert seg.width > gcnn._group_slabs(seg, h)  # more than one group
        expected = self._add_at(idx, rows[:-1], n)
        block = np.full((gcnn._block_rows(seg, h), h), np.nan)
        assert _scatter_add(seg, rows, block).tobytes() == expected.tobytes()

    def test_one_node_holds_every_edge(self):
        rng = np.random.default_rng(3)
        rows = rng.normal(size=(36, 5))[::2]  # strided rows
        idx = np.full(17, 2)
        assert _segments(idx, 4, "idx").width == 17
        self._check(idx, rows, 4)

    @pytest.mark.parametrize("seed", range(5))
    def test_one_cell_slabs_add_in_input_order(self, seed):
        # one node at h=1: numpy would add one run of 8 or more slabs pairwise
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(41, 1)) * 10.0 ** rng.uniform(-6, 6, size=(41, 1))
        self._check(np.zeros(40, dtype=np.int64), rows, 1)

    def test_nodes_without_edges(self):
        idx = np.array([5, 1, 5, 5, 1])
        self._check(idx, np.random.default_rng(4).normal(size=(6, 3)), 8)

    def test_no_edges_and_empty_side(self):
        for n, h in ((3, 2), (0, 2)):
            got = scatter(np.zeros(0, dtype=np.int64), np.zeros((1, h)), n)
            assert got.dtype == np.float64
            assert got.tobytes() == np.zeros((n, h)).tobytes()

    def test_negative_zero_rows_sum_to_positive_zero_as_add_at_does(self):
        # cells start at +0.0 and +0.0 + -0.0 is +0.0, in np.add.at into zeros as here
        idx = np.array([0, 1, 1])
        rows = np.array([[2.0, -0.0], [-0.0, -0.0], [-0.0, 1.0], [np.nan, np.nan]])
        expected = self._add_at(idx, rows[:-1], 3)
        got = scatter(idx, rows, 3)
        assert not np.signbit(got).any()
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("extra", [0, 2])
    def test_rows_without_exactly_one_spare_row_are_rejected(self, extra):
        idx = np.array([0, 1, 1])
        seg = _segments(idx, 2, "idx")
        rows = np.arange(3.0 * (3 + extra)).reshape(3 + extra, 3)
        before = rows.copy()
        with pytest.raises(ValueError, match="3 edge rows and a spare row, got"):
            _scatter_add(seg, rows, np.full((seg.gather.size, 3), np.nan))
        assert rows.tobytes() == before.tobytes()

    def test_slots_rank_edges_in_input_order(self):
        seg = _segments(np.array([2, 0, 2, 2, 0]), 3, "idx")
        # block row rank * 3 + node holds that edge; 5 (= E) marks padding
        assert seg.gather.tolist() == [1, 5, 0, 4, 5, 2, 5, 5, 3]
        assert seg.degree.tolist() == [2, 1, 3] and seg.width == 3 and seg.n == 3


def random_graph(rng, n_vars, n_cons, n_edges):
    """Random bipartite graph in unsorted edge order; the last variable and the
    last constraint get no edges."""
    cells = rng.choice((n_vars - 1) * (n_cons - 1), size=n_edges, replace=False)
    return BipartiteGraph(
        var_feats=rng.uniform(-1, 1, (n_vars, VAR_FEATURE_DIM)),
        con_feats=rng.uniform(-1, 1, (n_cons, CON_FEATURE_DIM)),
        edge_con=cells // (n_vars - 1),
        edge_var=cells % (n_vars - 1),
        edge_feat=rng.uniform(-1, 1, n_edges),
        binary_mask=rng.random(n_vars) < 0.8,
    )


class TestProjectThenGather:
    """The node-projected message layer against the concatenated-edge reference in ``oracles``.

    The two sum in different orders, so they agree to rounding, not bit for bit.
    """

    CASES = [(h, seed) for h in (8, 16, 64) for seed in range(4)]

    def _batch(self, rng, h, seed):
        n_vars, n_cons = int(rng.integers(3, 30)), int(rng.integers(2, 20))
        n_edges = 0 if seed == 0 else int(rng.integers(1, (n_vars - 1) * (n_cons - 1) + 1))
        graph = random_graph(rng, n_vars, n_cons, n_edges)
        graph.binary_mask[0] = True
        k = int(graph.binary_mask.sum())
        targets = [TargetSolution(rng.integers(0, 2, k).astype(float), w) for w in (0.6, 0.4)]
        return init_model(hidden_dim=h, seed=seed), [GraphTargets(graph, targets)]

    def _reference(self, monkeypatch, fn):
        with monkeypatch.context() as patch:
            patch.setattr(gcnn, "_half_conv", concat_half_conv)
            patch.setattr(gcnn, "_half_conv_backward", concat_half_conv_backward)
            return fn()

    @pytest.mark.parametrize("h,seed", CASES)
    def test_probabilities_and_gradients_match_reference(self, h, seed, monkeypatch):
        rng = np.random.default_rng(100 * h + seed)
        model, batch = self._batch(rng, h, seed)
        graph = batch[0].graph
        p = forward(model, graph)
        p_ref = self._reference(monkeypatch, lambda: forward(model, graph))
        assert np.all(np.abs(p - p_ref) <= 1e-12 * np.abs(p_ref))
        grads = backward(model, batch)
        ref = self._reference(monkeypatch, lambda: backward(model, batch))
        for name, g_ref in ref.items():
            scale = np.abs(g_ref).max()
            assert np.abs(grads[name] - g_ref).max() <= 1e-10 * scale, name


def sized_targets(seed, n_vars, n_rows):
    """A covering graph of the given size with two random target solutions."""
    g = encode(generate_covering(seed, n_vars, n_rows))
    rng = np.random.default_rng(seed)
    k = int(g.binary_mask.sum())
    return GraphTargets(g, [TargetSolution(rng.integers(0, 2, k).astype(float), w) for w in (0.7, 0.3)])


class TestWorkspace:
    """One workspace serves every graph of a ``train`` call and leaks nothing between them."""

    LARGE, SMALL = (40, 30), (9, 5)

    def _fresh_workspace_per_graph(self, patch):
        original = gcnn._forward_cached
        patch.setattr(gcnn, "_forward_cached", lambda model, graph, ws: original(
            model, graph, gcnn._Workspace([graph], model.hidden_dim)))

    @pytest.mark.parametrize("sizes", [(LARGE, SMALL, LARGE), (SMALL, LARGE, SMALL)])
    def test_mixed_sizes_train_as_with_a_fresh_workspace_per_graph(self, sizes, monkeypatch):
        dataset = [sized_targets(700 + i, *size) for i, size in enumerate(sizes)]
        cfg = TrainConfig(lr=0.2, epochs=3, batch_size=2, seed=4)
        shared, curve = train(init_model(hidden_dim=8, seed=2), dataset, cfg)
        with monkeypatch.context() as patch:
            self._fresh_workspace_per_graph(patch)
            fresh, fresh_curve = train(init_model(hidden_dim=8, seed=2), dataset, cfg)
        assert save_model(shared) == save_model(fresh) and curve == fresh_curve

    def test_forward_is_unchanged_by_training_on_a_larger_graph(self):
        small, large = sized_targets(720, *self.SMALL), sized_targets(721, *self.LARGE)
        model = init_model(hidden_dim=8, seed=3)
        before = forward(model, small.graph)
        train(model, [large], TrainConfig(lr=0.2, epochs=2))
        assert forward(model, small.graph).tobytes() == before.tobytes()


class TestEdgeChunks:
    """Per-edge work in several edge chunks, and scatters in several slab groups,
    against one chunk and one group: forward, gradients and training, bit for bit."""

    @staticmethod
    def _outputs(monkeypatch, chunk_cells, h, batch, several):
        with monkeypatch.context() as patch:
            patch.setattr(gcnn, "EDGE_CHUNK_CELLS", chunk_cells)
            for item in batch:
                segs = item.graph.segments
                assert several == (item.graph.n_edges > gcnn._Workspace([item.graph], h).chunk)
                assert several == any(seg.width > gcnn._group_slabs(seg, h) for seg in segs)
            model = init_model(hidden_dim=h, seed=h)
            probs = [forward(model, item.graph).tobytes() for item in batch]
            grads = {name: g.tobytes() for name, g in backward(model, batch).items()}
            trained, curve = train(model, batch, TrainConfig(lr=0.2, epochs=3, batch_size=2, seed=1))
            return probs, grads, save_model(trained), curve

    def _check(self, monkeypatch, chunk_cells, h, batch):
        whole = self._outputs(monkeypatch, 1 << 40, h, batch, several=False)
        assert self._outputs(monkeypatch, chunk_cells, h, batch, several=True) == whole

    @pytest.mark.parametrize("h,chunk_cells", [(8, 100), (8, 1 << 9), (16, 1 << 11)])
    def test_covering_120x80(self, h, chunk_cells, monkeypatch):
        self._check(monkeypatch, chunk_cells, h, [sized_targets(730, 120, 80), sized_targets(731, 40, 30)])

    @pytest.mark.parametrize("h,chunk_cells", [(1, 1), (4, 5), (16, 16), (16, 200)])
    @pytest.mark.parametrize("seed", range(3))
    def test_random_graphs(self, h, chunk_cells, seed, monkeypatch):
        rng = np.random.default_rng(900 + seed)
        batch = []
        for n_vars, n_cons in ((int(rng.integers(20, 40)), int(rng.integers(12, 20))), (9, 6)):
            graph = random_graph(rng, n_vars, n_cons, int(rng.integers(100, 200)) if n_vars > 9 else 30)
            graph.binary_mask[0] = True
            k = int(graph.binary_mask.sum())
            batch.append(GraphTargets(graph, [TargetSolution(rng.integers(0, 2, k).astype(float), w)
                                              for w in (0.6, 0.4)]))
        self._check(monkeypatch, chunk_cells, h, batch)


#: Each case replaces one field of a good three-variable, two-edge graph.
MALFORMED = {
    "short edge_feat": ("edge_feat", np.array([0.5])),
    "short edge_var": ("edge_var", np.array([2])),
    "negative edge_con": ("edge_con", np.array([0, -1])),
    "edge_var past the last variable": ("edge_var", np.array([2, 3])),
    "edge_con past the last constraint": ("edge_con", np.array([0, 2])),
    "float edge_var": ("edge_var", np.array([2.0, 0.0])),
    "short binary_mask": ("binary_mask", np.ones(2, dtype=bool)),
    "integer binary_mask": ("binary_mask", np.ones(3, dtype=np.int64)),
}


def _malformed(case):
    field, value = MALFORMED[case]
    fields = dict(
        var_feats=np.zeros((3, VAR_FEATURE_DIM)),
        con_feats=np.zeros((2, CON_FEATURE_DIM)),
        edge_con=np.array([0, 1]),
        edge_var=np.array([2, 0]),
        edge_feat=np.array([0.5, -1.0]),
        binary_mask=np.ones(3, dtype=bool),
    )
    fields[field] = value
    return BipartiteGraph(**fields)


class TestMalformedGraphs:
    """A graph whose edge structure does not hold together is rejected, naming the field."""

    @pytest.mark.parametrize("case", MALFORMED)
    def test_forward_rejects(self, case):
        with pytest.raises(ShapeMismatch, match=MALFORMED[case][0]):
            forward(init_model(hidden_dim=4, seed=0), _malformed(case))

    @pytest.mark.parametrize("case", MALFORMED)
    def test_train_rejects(self, case):
        good = sized_targets(730, 6, 3)
        bad = GraphTargets(_malformed(case), [TargetSolution(np.zeros(3), 1.0)])
        with pytest.raises(ShapeMismatch, match=MALFORMED[case][0]):
            train(init_model(hidden_dim=4, seed=0), [good, bad], TrainConfig(lr=0.1, epochs=1))
