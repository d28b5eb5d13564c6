"""Bipartite graph net predicting P(binary variable = 1), trained by hand-rolled SGD.

Architecture: affine embeddings for both node sides, one variable-to-constraint
half-convolution, one constraint-to-variable half-convolution, then a logistic
head on the variable embeddings. Messages are ReLU affines over
[constraint embedding, variable embedding, edge coefficient]; updates are ReLU
affines over [old embedding, mean incoming message]. Forward, losses, and
gradients are explicit numpy; no autodiff framework.

Two loss normalizations are provided: the per-graph one (each graph's
log-likelihood is divided by its own node count before averaging over the
batch) and the pooled one (a single division by the total node count).
Training-target weights may be one scalar per solution or one weight per node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .bnb import SolutionPool
from .encoder import CON_FEATURE_DIM, VAR_FEATURE_DIM, BipartiteGraph

MODEL_FORMAT_VERSION = 1
PROB_CLAMP = 1e-7  # probabilities are clamped to [PROB_CLAMP, 1 - PROB_CLAMP] inside losses


class ShapeMismatch(ValueError):
    """Graph or target dimensions do not match the model."""


class DivergenceDetected(RuntimeError):
    """Training loss became non-finite."""


@dataclass(eq=False)
class Affine:
    w: np.ndarray  # [fan_in, fan_out]
    b: np.ndarray  # [fan_out]


@dataclass(eq=False)
class GcnnModel:
    hidden_dim: int
    var_embed: Affine
    con_embed: Affine
    v2c_msg: Affine
    v2c_upd: Affine
    c2v_msg: Affine
    c2v_upd: Affine
    head: Affine
    version: int = MODEL_FORMAT_VERSION

    @property
    def f_var(self) -> int:
        return self.var_embed.w.shape[0]

    @property
    def f_con(self) -> int:
        return self.con_embed.w.shape[0]

    def blocks(self) -> dict[str, Affine]:
        return {
            "var_embed": self.var_embed,
            "con_embed": self.con_embed,
            "v2c_msg": self.v2c_msg,
            "v2c_upd": self.v2c_upd,
            "c2v_msg": self.c2v_msg,
            "c2v_upd": self.c2v_upd,
            "head": self.head,
        }

    def named_parameters(self) -> Iterator[tuple[str, np.ndarray]]:
        for name, block in self.blocks().items():
            yield f"{name}.w", block.w
            yield f"{name}.b", block.b

    def copy(self) -> "GcnnModel":
        kwargs = {
            name: Affine(block.w.copy(), block.b.copy())
            for name, block in self.blocks().items()
        }
        return GcnnModel(hidden_dim=self.hidden_dim, version=self.version, **kwargs)


def init_model(
    f_var: int = VAR_FEATURE_DIM,
    f_con: int = CON_FEATURE_DIM,
    hidden_dim: int = 16,
    seed: int = 0,
) -> GcnnModel:
    """Seeded uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)] per block."""
    rng = np.random.default_rng(seed)
    h = hidden_dim

    def affine(fan_in: int, fan_out: int) -> Affine:
        s = 1.0 / math.sqrt(fan_in)
        return Affine(
            rng.uniform(-s, s, size=(fan_in, fan_out)),
            rng.uniform(-s, s, size=fan_out),
        )

    return GcnnModel(
        hidden_dim=h,
        var_embed=affine(f_var, h),
        con_embed=affine(f_con, h),
        v2c_msg=affine(2 * h + 1, h),
        v2c_upd=affine(2 * h, h),
        c2v_msg=affine(2 * h + 1, h),
        c2v_upd=affine(2 * h, h),
        head=affine(h, 1),
    )


@dataclass(eq=False)
class TargetSolution:
    """One target assignment over a graph's binary variables plus its weight.

    ``weight`` is a scalar shared by every node of the solution (the usual
    case, produced by :func:`compute_solution_weights`) or a per-node vector.
    """

    values: np.ndarray
    weight: float | np.ndarray


@dataclass(eq=False)
class GraphTargets:
    graph: BipartiteGraph
    solutions: list[TargetSolution]


TrainingBatch = Sequence[GraphTargets]


@dataclass(frozen=True)
class TrainConfig:
    lr: float
    momentum: float = 0.9
    epochs: int = 30
    batch_size: int = 8
    seed: int = 0
    loss_mode: str = "minibatch"

    def __post_init__(self):
        if self.lr < 0:
            raise ValueError("lr must be >= 0")
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be >= 1")
        if self.loss_mode not in ("minibatch", "fullbatch"):
            raise ValueError(f"unknown loss_mode {self.loss_mode!r}")


# ---------------------------------------------------------------------------
# Forward
# ---------------------------------------------------------------------------


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def _check_graph(model: GcnnModel, graph: BipartiteGraph) -> None:
    if graph.var_feats.shape[1] != model.f_var:
        raise ShapeMismatch(
            f"graph variable feature width {graph.var_feats.shape[1]} != model {model.f_var}"
        )
    if graph.con_feats.shape[1] != model.f_con:
        raise ShapeMismatch(
            f"graph constraint feature width {graph.con_feats.shape[1]} != model {model.f_con}"
        )


def _forward_cached(model: GcnnModel, graph: BipartiteGraph) -> dict:
    _check_graph(model, graph)
    h = model.hidden_dim
    ci, vi, ef = graph.edge_con, graph.edge_var, graph.edge_feat
    n, m = graph.n_vars, graph.n_cons

    zv0 = graph.var_feats @ model.var_embed.w + model.var_embed.b
    hv0 = _relu(zv0)
    zc0 = graph.con_feats @ model.con_embed.w + model.con_embed.b
    hc0 = _relu(zc0)

    m1in = np.concatenate([hc0[ci], hv0[vi], ef[:, None]], axis=1)
    z1 = m1in @ model.v2c_msg.w + model.v2c_msg.b
    h1 = _relu(z1)
    deg_c = np.maximum(np.bincount(ci, minlength=m), 1)
    s1 = np.zeros((m, h))
    np.add.at(s1, ci, h1)
    s1 /= deg_c[:, None]
    u1in = np.concatenate([hc0, s1], axis=1)
    z2 = u1in @ model.v2c_upd.w + model.v2c_upd.b
    hc1 = _relu(z2)

    m2in = np.concatenate([hc1[ci], hv0[vi], ef[:, None]], axis=1)
    z3 = m2in @ model.c2v_msg.w + model.c2v_msg.b
    h2 = _relu(z3)
    deg_v = np.maximum(np.bincount(vi, minlength=n), 1)
    s2 = np.zeros((n, h))
    np.add.at(s2, vi, h2)
    s2 /= deg_v[:, None]
    u2in = np.concatenate([hv0, s2], axis=1)
    z4 = u2in @ model.c2v_upd.w + model.c2v_upd.b
    hv1 = _relu(z4)

    logits = (hv1 @ model.head.w + model.head.b)[:, 0]
    with np.errstate(over="ignore"):  # saturated logits are fine, the clip handles them
        p = 1.0 / (1.0 + np.exp(-logits))
    p = np.clip(p, 1e-15, 1.0 - 1e-15)
    return dict(
        graph=graph, zv0=zv0, hv0=hv0, zc0=zc0, hc0=hc0,
        m1in=m1in, z1=z1, deg_c=deg_c, u1in=u1in, z2=z2,
        m2in=m2in, z3=z3, deg_v=deg_v, u2in=u2in, z4=z4,
        hv1=hv1, p=p,
    )


def forward(model: GcnnModel, graph: BipartiteGraph) -> np.ndarray:
    """Probabilities that each binary variable takes value 1, in mask order."""
    cache = _forward_cached(model, graph)
    return cache["p"][graph.binary_mask]


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


def _solution_weight_vector(sol: TargetSolution, n_nodes: int) -> np.ndarray:
    w = np.asarray(sol.weight, dtype=np.float64)
    if w.ndim == 0:
        w = np.full(n_nodes, float(w))
    if w.shape != (n_nodes,):
        raise ShapeMismatch(f"weight shape {w.shape} != ({n_nodes},)")
    if np.any(w < 0):
        raise ValueError("solution weights must be nonnegative")
    return w


def _graph_term(probs: np.ndarray, item: GraphTargets, want_grad: bool):
    """Weighted log-likelihood of the targets and, optionally, d(term)/d(probs)."""
    k = probs.shape[0]
    p = np.clip(probs, PROB_CLAMP, 1.0 - PROB_CLAMP)
    inside = (probs >= PROB_CLAMP) & (probs <= 1.0 - PROB_CLAMP)
    term = 0.0
    grad = np.zeros(k) if want_grad else None
    for sol in item.solutions:
        x = np.asarray(sol.values, dtype=np.float64)
        if x.shape != (k,):
            raise ShapeMismatch(f"target shape {x.shape} != ({k},)")
        if np.any((np.abs(x) > 1e-9) & (np.abs(x - 1.0) > 1e-9)):
            raise ValueError("target values must be 0 or 1")
        w = _solution_weight_vector(sol, k)
        term += float(np.sum(w * (x * np.log(p) + (1.0 - x) * np.log1p(-p))))
        if want_grad is True:
            grad += w * (x / p - (1.0 - x) / (1.0 - p)) * inside
    return term, grad


def loss_minibatch(model: GcnnModel, batch: TrainingBatch) -> float:
    """Average over graphs of (per-graph node-averaged negative log-likelihood)."""
    if not batch:
        raise ValueError("batch is empty")
    total = 0.0
    for item in batch:
        n_i = int(item.graph.binary_mask.sum())
        if n_i == 0 or not item.solutions:
            continue
        probs = forward(model, item.graph)
        term, _ = _graph_term(probs, item, want_grad=False)
        total += term / n_i
    return -total / len(batch)


def loss_fullbatch(model: GcnnModel, batch: TrainingBatch) -> float:
    """Negative log-likelihood normalized once by the total node count."""
    if not batch:
        raise ValueError("batch is empty")
    total = 0.0
    n_total = sum(int(item.graph.binary_mask.sum()) for item in batch)
    if n_total == 0:
        return 0.0
    for item in batch:
        if not item.solutions:
            continue
        probs = forward(model, item.graph)
        term, _ = _graph_term(probs, item, want_grad=False)
        total += term
    return -total / n_total


# ---------------------------------------------------------------------------
# Backward
# ---------------------------------------------------------------------------


def zero_gradients(model: GcnnModel) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(arr) for name, arr in model.named_parameters()}


def _backward_graph(
    model: GcnnModel, cache: dict, d_probs: np.ndarray, grads: dict[str, np.ndarray]
) -> None:
    graph: BipartiteGraph = cache["graph"]
    h = model.hidden_dim
    ci, vi = graph.edge_con, graph.edge_var
    p = cache["p"]

    g_logit = np.zeros(graph.n_vars)
    g_logit[graph.binary_mask] = d_probs * p[graph.binary_mask] * (1.0 - p[graph.binary_mask])

    grads["head.w"] += cache["hv1"].T @ g_logit[:, None]
    grads["head.b"] += np.array([g_logit.sum()])
    g_hv1 = np.outer(g_logit, model.head.w[:, 0])

    g_z4 = g_hv1 * (cache["z4"] > 0)
    grads["c2v_upd.w"] += cache["u2in"].T @ g_z4
    grads["c2v_upd.b"] += g_z4.sum(axis=0)
    g_u2in = g_z4 @ model.c2v_upd.w.T
    g_hv0 = g_u2in[:, :h].copy()
    g_s2 = g_u2in[:, h:]

    g_h2 = g_s2[vi] / cache["deg_v"][vi, None]
    g_z3 = g_h2 * (cache["z3"] > 0)
    grads["c2v_msg.w"] += cache["m2in"].T @ g_z3
    grads["c2v_msg.b"] += g_z3.sum(axis=0)
    g_m2in = g_z3 @ model.c2v_msg.w.T
    g_hc1 = np.zeros((graph.n_cons, h))
    np.add.at(g_hc1, ci, g_m2in[:, :h])
    np.add.at(g_hv0, vi, g_m2in[:, h : 2 * h])

    g_z2 = g_hc1 * (cache["z2"] > 0)
    grads["v2c_upd.w"] += cache["u1in"].T @ g_z2
    grads["v2c_upd.b"] += g_z2.sum(axis=0)
    g_u1in = g_z2 @ model.v2c_upd.w.T
    g_hc0 = g_u1in[:, :h].copy()
    g_s1 = g_u1in[:, h:]

    g_h1 = g_s1[ci] / cache["deg_c"][ci, None]
    g_z1 = g_h1 * (cache["z1"] > 0)
    grads["v2c_msg.w"] += cache["m1in"].T @ g_z1
    grads["v2c_msg.b"] += g_z1.sum(axis=0)
    g_m1in = g_z1 @ model.v2c_msg.w.T
    np.add.at(g_hc0, ci, g_m1in[:, :h])
    np.add.at(g_hv0, vi, g_m1in[:, h : 2 * h])

    g_zv0 = g_hv0 * (cache["zv0"] > 0)
    grads["var_embed.w"] += graph.var_feats.T @ g_zv0
    grads["var_embed.b"] += g_zv0.sum(axis=0)
    g_zc0 = g_hc0 * (cache["zc0"] > 0)
    grads["con_embed.w"] += graph.con_feats.T @ g_zc0
    grads["con_embed.b"] += g_zc0.sum(axis=0)


def _loss_and_gradients(
    model: GcnnModel, batch: TrainingBatch, loss_mode: str
) -> tuple[float, dict[str, np.ndarray]]:
    if not batch:
        raise ValueError("batch is empty")
    if loss_mode not in ("minibatch", "fullbatch"):
        raise ValueError(f"unknown loss_mode {loss_mode!r}")
    grads = zero_gradients(model)
    n_total = sum(int(item.graph.binary_mask.sum()) for item in batch)
    total = 0.0
    for item in batch:
        n_i = int(item.graph.binary_mask.sum())
        if n_i == 0 or not item.solutions:
            continue
        cache = _forward_cached(model, item.graph)
        probs = cache["p"][item.graph.binary_mask]
        term, term_grad = _graph_term(probs, item, want_grad=True)
        if loss_mode == "minibatch":
            scale = 1.0 / (len(batch) * n_i)
        else:
            scale = 1.0 / n_total
        total += term * scale
        _backward_graph(model, cache, -scale * term_grad, grads)
    return -total, grads


def backward(
    model: GcnnModel, batch: TrainingBatch, loss_mode: str = "minibatch"
) -> dict[str, np.ndarray]:
    """Analytic gradient of the selected loss, keyed like ``named_parameters``."""
    _, grads = _loss_and_gradients(model, batch, loss_mode)
    return grads


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def train(
    model: GcnnModel, dataset: Sequence[GraphTargets], config: TrainConfig
) -> tuple[GcnnModel, list[float]]:
    """SGD with momentum over shuffled batches; returns (trained model, epoch losses)."""
    if not dataset:
        raise ValueError("dataset is empty")
    model = model.copy()
    params = dict(model.named_parameters())
    velocity = {name: np.zeros_like(arr) for name, arr in params.items()}
    rng = np.random.default_rng(config.seed)
    curve: list[float] = []
    for _ in range(config.epochs):
        order = rng.permutation(len(dataset))
        epoch_losses: list[float] = []
        for start in range(0, len(dataset), config.batch_size):
            batch = [dataset[i] for i in order[start : start + config.batch_size]]
            loss, grads = _loss_and_gradients(model, batch, config.loss_mode)
            if not math.isfinite(loss):
                raise DivergenceDetected(f"loss became {loss}")
            epoch_losses.append(loss)
            for name, arr in params.items():
                velocity[name] = config.momentum * velocity[name] - config.lr * grads[name]
                arr += velocity[name]
        curve.append(float(np.mean(epoch_losses)))
    return model, curve


def compute_solution_weights(
    pool: SolutionPool, temperature: float = 1.0, uniform: bool = False
) -> np.ndarray:
    """Per-solution weights: softmax of negated min-max-normalized objectives.

    Better (lower) objectives get at least as much weight; equal objectives
    share weight equally; a single solution gets weight 1.
    """
    if not pool.entries:
        raise ValueError("solution pool is empty")
    objs = np.array([e.objective for e in pool.entries], dtype=np.float64)
    if uniform or objs.max() - objs.min() < 1e-12:
        return np.full(len(objs), 1.0 / len(objs))
    z = (objs - objs.min()) / (objs.max() - objs.min())
    w = np.exp(-z / temperature)
    return w / w.sum()


# ---------------------------------------------------------------------------
# Serialization (plain text, exact round-trip via repr floats)
# ---------------------------------------------------------------------------


def save_model(model: GcnnModel) -> str:
    lines = [
        f"GCNN {model.version}",
        f"hidden_dim {model.hidden_dim}",
        f"f_var {model.f_var}",
        f"f_con {model.f_con}",
    ]
    for name, arr in model.named_parameters():
        if arr.ndim == 2:
            lines.append(f"PARAM {name} {arr.shape[0]} {arr.shape[1]}")
            for row in arr:
                lines.append(" ".join(repr(float(x)) for x in row))
        else:
            lines.append(f"PARAM {name} {arr.shape[0]}")
            lines.append(" ".join(repr(float(x)) for x in arr))
    return "\n".join(lines) + "\n"


def load_model(text: str) -> GcnnModel:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    header = lines[0].split() if lines else []
    if len(header) != 2 or header[0] != "GCNN":
        raise ValueError("not a GCNN model file")
    version = int(header[1])
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version}")
    meta: dict[str, int] = {}
    i = 1
    while i < len(lines) and not lines[i].startswith("PARAM"):
        key, value = lines[i].split()
        meta[key] = int(value)
        i += 1
    missing = [key for key in ("hidden_dim", "f_var", "f_con") if key not in meta]
    if missing:
        raise ValueError(f"model header misses {', '.join(missing)}")
    arrays: dict[str, np.ndarray] = {}
    while i < len(lines):
        tokens = lines[i].split()
        if tokens[0] != "PARAM" or len(tokens) not in (3, 4):
            raise ValueError(f"expected PARAM <name> <shape>, got {lines[i]!r}")
        name = tokens[1]
        if len(tokens) == 4:
            rows, cols = int(tokens[2]), int(tokens[3])
            if i + rows >= len(lines):
                raise ValueError(f"parameter {name} is truncated")
            block = [
                np.array([float(x) for x in lines[i + 1 + r].split()], dtype=np.float64)
                for r in range(rows)
            ]
            arr = np.vstack(block)
            if arr.shape != (rows, cols):
                raise ValueError(f"parameter {name} has shape {arr.shape}, expected {(rows, cols)}")
            i += 1 + rows
        else:
            length = int(tokens[2])
            if i + 1 >= len(lines):
                raise ValueError(f"parameter {name} is truncated")
            arr = np.array([float(x) for x in lines[i + 1].split()], dtype=np.float64)
            if arr.shape != (length,):
                raise ValueError(f"parameter {name} has length {arr.shape[0]}, expected {length}")
            i += 2
        arrays[name] = arr
    blocks = {}
    for block_name in ("var_embed", "con_embed", "v2c_msg", "v2c_upd", "c2v_msg", "c2v_upd", "head"):
        try:
            blocks[block_name] = Affine(arrays[f"{block_name}.w"], arrays[f"{block_name}.b"])
        except KeyError as exc:
            raise ValueError(f"model file misses parameter block {block_name!r}") from exc
    model = GcnnModel(hidden_dim=meta["hidden_dim"], version=version, **blocks)
    if model.f_var != meta["f_var"] or model.f_con != meta["f_con"]:
        raise ValueError("header feature widths disagree with parameter shapes")
    return model
