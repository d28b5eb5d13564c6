"""Bipartite graph net predicting P(binary variable = 1), trained by hand-rolled SGD.

Architecture: affine embeddings for both node sides, one half-convolution
applied twice (variables to constraints, then constraints to variables), and a
logistic head on the variable embeddings. A half-convolution averages
ReLU-affine edge messages over [constraint embedding, variable embedding, edge
coefficient] into the receiving side, then updates that side by a ReLU affine
over [old embedding, mean message]. Forward, losses, and gradients are
explicit numpy; no autodiff framework.

The message affine projects, then gathers: each side's node embeddings are
multiplied by their slice of the message weights, and the products are
gathered per edge, so no edges x (2h+1) input is built. The forward cache
keeps only the message ReLU's bool mask, not its E x h pre-activation.
Backward divides the node-level message gradient by the degree, then gathers
it per edge, and sums the per-edge gradient into per-node gradients before its
matmuls. Every scatter over edges is a rank-major segment sum
(``_scatter_add``): the graph caches each side's ``Segments`` (edge index,
degree, and ``gather``, the edge at each row ``rank_within_node * n + node``
of a (width * n) x h block, or a zero row at padding), and the block's width
slabs are summed from +0.0, which adds each node's rows in input order and so
equals ``np.add.at`` into zeros bit for bit. Every E x h array lives in one
``_Workspace`` per ``train`` call (and per ``forward`` call), sized for the
largest graph and written with ``out=``, so training does not free and fault
in edge-sized pages between graphs. Gathers use ``np.take(..., mode="clip",
out=...)``, because the default ``mode="raise"`` buffers its output; the
graph rejects an out-of-range index once, when its segments are built.

Per-edge passes are cache-sized, with every floating-point operation and its
order kept. Forward runs in edge chunks of ``EDGE_CHUNK_CELLS`` cells (1024
edges at h=64): each chunk gathers both sides' projections, adds the edge
feature product (a broadcast copy multiplied in place), the bias, the mask
and the ReLU; backward gathers and masks its message gradient by the same
chunks. The edge-order reductions of backward run over all edges at once.
A scatter gathers its block from the E message rows and a spare zero row
after them, one group of slabs of about ``EDGE_CHUNK_CELLS`` cells at a time:
the first group is summed from +0.0, and each later one behind a copy of the
running sum, which adds the slabs in the order of one whole-block sum.

Two loss normalizations are provided: the per-graph one (each graph's
log-likelihood is divided by its own node count before averaging over the
batch) and the pooled one (a single division by the total node count).
``loss_minibatch`` and ``loss_fullbatch`` are the training loss itself: they
run the same code as ``train``, so they return the values it records, bit for
bit. Each target solution carries one weight. A graph's S targets are
checked and packed into an S x k value matrix and S weights once per
``train`` call (once per call of the loss and gradient functions), and a
graph's S per-solution terms are the row sums of one expression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterable, Iterator, Sequence

import numpy as np

from .bnb import SolutionPool
from .encoder import CON_FEATURE_DIM, VAR_FEATURE_DIM, BipartiteGraph, Segments, ShapeMismatch

MODEL_FORMAT_VERSION = 1
PROB_CLAMP = 1e-7  # probabilities are clamped to [PROB_CLAMP, 1 - PROB_CLAMP] inside losses


class DivergenceDetected(RuntimeError):
    """Training loss became non-finite."""


@dataclass(eq=False)
class Affine:
    w: np.ndarray  # [fan_in, fan_out]
    b: np.ndarray  # [fan_out]


@dataclass(eq=False)
class GcnnModel:
    var_embed: Affine
    con_embed: Affine
    v2c_msg: Affine
    v2c_upd: Affine
    c2v_msg: Affine
    c2v_upd: Affine
    head: Affine

    @property
    def hidden_dim(self) -> int:
        return self.head.w.shape[0]

    @property
    def f_var(self) -> int:
        return self.var_embed.w.shape[0]

    @property
    def f_con(self) -> int:
        return self.con_embed.w.shape[0]

    def blocks(self) -> dict[str, Affine]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def named_parameters(self) -> Iterator[tuple[str, np.ndarray]]:
        for name, block in self.blocks().items():
            yield f"{name}.w", block.w
            yield f"{name}.b", block.b

    def copy(self) -> "GcnnModel":
        return GcnnModel(**{k: Affine(a.w.copy(), a.b.copy()) for k, a in self.blocks().items()})


def _block_shapes(f_var: int, f_con: int, h: int) -> dict[str, tuple[int, int]]:
    """(fan_in, fan_out) of every parameter block, in GcnnModel field order."""
    return {
        "var_embed": (f_var, h),
        "con_embed": (f_con, h),
        "v2c_msg": (2 * h + 1, h),
        "v2c_upd": (2 * h, h),
        "c2v_msg": (2 * h + 1, h),
        "c2v_upd": (2 * h, h),
        "head": (h, 1),
    }


def init_model(
    f_var: int = VAR_FEATURE_DIM,
    f_con: int = CON_FEATURE_DIM,
    hidden_dim: int = 16,
    seed: int = 0,
) -> GcnnModel:
    """Seeded uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)] per block."""
    rng = np.random.default_rng(seed)
    blocks = {}
    for name, (fan_in, fan_out) in _block_shapes(f_var, f_con, hidden_dim).items():
        s = 1.0 / math.sqrt(fan_in)
        w = rng.uniform(-s, s, size=(fan_in, fan_out))
        blocks[name] = Affine(w, rng.uniform(-s, s, size=fan_out))
    return GcnnModel(**blocks)


@dataclass(eq=False)
class TargetSolution:
    """One target assignment over a graph's binary variables plus its weight.

    ``weight`` is one scalar, as :func:`compute_solution_weights` gives; a
    graph's S solutions pack into an S x k value matrix and S weights.
    """

    values: np.ndarray
    weight: float


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
        if not (self.lr >= 0 and math.isfinite(self.lr)):
            raise ValueError(f"lr must be >= 0 and finite, got {self.lr}")
        if not 0 <= self.momentum < 1:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be >= 1")
        if self.loss_mode not in ("minibatch", "fullbatch"):
            raise ValueError(f"unknown loss_mode {self.loss_mode!r}")


# ---------------------------------------------------------------------------
# Forward
# ---------------------------------------------------------------------------


def _affine_relu(x: np.ndarray, block: Affine) -> tuple[np.ndarray, np.ndarray]:
    """Pre-activation ``z = x @ w + b`` and ``relu(z)``."""
    z = x @ block.w + block.b
    return z, np.maximum(z, 0.0)


#: Cells (rows x h) of one cache-sized piece of per-edge work: an edge chunk of
#: forward and backward, and a group of scatter slabs. 1024 edges at h=64.
EDGE_CHUNK_CELLS = 1 << 16


def _group_slabs(seg: Segments, h: int) -> int:
    """Slabs per scatter group: as many ``n x h`` slabs as fit in EDGE_CHUNK_CELLS,
    and at least two, since a later group holds the running sum and one new slab.

    Slabs of one cell (``n * h == 1``) are summed by numpy as one contiguous
    run, which it adds pairwise from 8 values on; such a group holds 7.
    """
    cells = seg.n * h
    return max(2, EDGE_CHUNK_CELLS // cells) if cells > 1 else 7


def _block_rows(seg: Segments, h: int) -> int:
    """Rows of the scatter block that ``_scatter_add`` fills for ``seg``: its largest group."""
    return min(seg.width, _group_slabs(seg, h)) * seg.n


class _Workspace:
    """The per-edge buffers of one ``train`` or ``forward`` call, sized for its largest graph.

    Forward and backward write every per-edge array into these with ``out=``,
    so a training step allocates nothing of edge size, and glibc never trims
    and faults those pages in again between graphs. "msg" holds E + 1 rows:
    the edge rows and the zero row that pads a scatter block. "tmp" holds one
    edge chunk and "block" one scatter group. A graph's two message ReLU masks
    live here from its forward to its backward, which ``_loss_and_gradients``
    runs before the next graph's forward.
    """

    def __init__(self, graphs: Iterable[BipartiteGraph], h: int):
        graphs = list(graphs)
        edges = max((g.n_edges for g in graphs), default=0)
        block = max((_block_rows(seg, h) for g in graphs for seg in g.segments), default=0)
        self.h, self.chunk = h, max(1, EDGE_CHUNK_CELLS // h)  # edges per chunk
        msg, tmp = (edges + 1) * h, min(edges, self.chunk) * h
        # one float and one bool allocation: as five, glibc gave their pages
        # back and faulted them in again on every forward call (1.5k minor
        # faults per call on a covering 120x80 graph at h=64, against 30)
        floats, bools = np.empty(msg + tmp + block * h), np.empty(2 * edges * h, dtype=bool)
        self._buffers = {
            "msg": floats[:msg], "tmp": floats[msg : msg + tmp], "block": floats[msg + tmp :],
            "v2c": bools[: edges * h], "c2v": bools[edges * h :],
        }

    def rows(self, name: str, n_rows: int) -> np.ndarray:
        """The first ``n_rows`` x h of buffer ``name``: per-edge floats ("msg", "tmp"),
        a half-convolution's message mask ("v2c", "c2v") or the scatter block ("block")."""
        return self._buffers[name][: n_rows * self.h].reshape(n_rows, self.h)

    def block(self, seg: Segments) -> np.ndarray:
        """The scatter block for ``seg``: ``_block_rows(seg, h)`` rows."""
        return self.rows("block", _block_rows(seg, self.h))

    def chunks(self, n_edges: int) -> Iterator[slice]:
        """Consecutive edge slices of at most one chunk each."""
        for start in range(0, n_edges, self.chunk):
            yield slice(start, min(start + self.chunk, n_edges))


def _scatter_add(seg: Segments, rows: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Zero-start segment sum: row k of the result sums ``rows[e]`` over ``seg.index[e] == k``.

    ``rows`` holds the E edge rows and one spare row, which this zeroes; the
    first E rows are not changed. Rank-major: slab r of the ``(width * n) x h``
    block holds each node's r-th edge, and its padding is the zero row, so
    summing the slabs from +0.0 adds each node's rows in input order, padded
    with +0.0, and the result equals ``np.add.at`` into ``np.zeros((n, h))``
    bit for bit, ``-0.0`` rows included. The slabs are gathered
    (``seg.gather``) into ``block`` and summed one cache-sized group at a
    time: the first group from +0.0, each later one behind a copy of the
    running sum, which +0.0 leaves unchanged. ``block`` needs
    ``_block_rows(seg, h)`` rows. Node-major, ``(n, width, h)`` summed over
    axis 1, was slower at h=16 than the flat bincount this replaced;
    rank-major was faster at both h=16 and h=64.
    """
    n_edges, h = seg.index.shape[0], rows.shape[1]
    if rows.shape[0] != n_edges + 1:
        raise ValueError(f"_scatter_add needs {n_edges} edge rows and a spare row, "
                         f"got {rows.shape[0]} rows")
    rows[n_edges] = 0.0
    n, group = seg.n, _group_slabs(seg, h)
    count = min(seg.width, group)
    np.take(rows, seg.gather[: count * n], axis=0, mode="clip", out=block[: count * n])
    total = block[: count * n].reshape(count, n, h).sum(axis=0, initial=0.0)
    for first in range(count, seg.width, group - 1):
        count = min(group - 1, seg.width - first)
        block[:n] = total
        np.take(rows, seg.gather[first * n : (first + count) * n], axis=0, mode="clip",
                out=block[n : (count + 1) * n])
        np.sum(block[: (count + 1) * n].reshape(count + 1, n, h), axis=0, initial=0.0, out=total)
    return total


def _check_graph(model: GcnnModel, graph: BipartiteGraph) -> None:
    if graph.var_feats.shape[1] != model.f_var:
        raise ShapeMismatch(
            f"graph variable feature width {graph.var_feats.shape[1]} != model {model.f_var}"
        )
    if graph.con_feats.shape[1] != model.f_con:
        raise ShapeMismatch(
            f"graph constraint feature width {graph.con_feats.shape[1]} != model {model.f_con}"
        )


def _half_conv(model: GcnnModel, name: str, graph: BipartiteGraph, h_con, h_var, ws: _Workspace):
    """Half-convolution "v2c" (into constraints) or "c2v" (into variables).

    The message affine over [h_con[ci], h_var[vi], edge_feat] is computed as
    "project, then gather": each side's embeddings are multiplied by their
    slice of ``msg.w`` once per node, and the products are gathered per edge
    into ``ws``. Returns the receiving side's new embeddings and what the
    backward pass needs, which holds the message ReLU's mask (in ``ws``), not
    the E x h pre-activation.
    """
    msg, upd = getattr(model, f"{name}_msg"), getattr(model, f"{name}_upd")
    h = h_con.shape[1]
    con_seg, var_seg = graph.segments
    seg, own = (con_seg, h_con) if name == "v2c" else (var_seg, h_var)
    p_con, p_var = h_con @ msg.w[:h], h_var @ msg.w[h : 2 * h]
    e = graph.n_edges
    z_msg, active = ws.rows("msg", e + 1), ws.rows(name, e)
    # mode="clip" writes straight into out (the default "raise" buffers it);
    # BipartiteGraph.segments has checked every index
    for c in ws.chunks(e):
        z = np.take(p_con, graph.edge_con[c], axis=0, mode="clip", out=z_msg[c])
        tmp = ws.rows("tmp", z.shape[0])
        z += np.take(p_var, graph.edge_var[c], axis=0, mode="clip", out=tmp)
        tmp[...] = graph.edge_feat[c, None]
        tmp *= msg.w[2 * h]
        z += tmp
        z += msg.b
        np.greater(z, 0, out=active[c])
        np.maximum(z, 0.0, out=z)
    s = _scatter_add(seg, z_msg, ws.block(seg))
    s /= seg.degree[:, None]
    u_in = np.concatenate([own, s], axis=1)
    z_upd, h_upd = _affine_relu(u_in, upd)
    return h_upd, (h_con, h_var, active, u_in, z_upd)


def _forward_cached(model: GcnnModel, graph: BipartiteGraph, ws: _Workspace) -> dict:
    """Forward pass through ``ws``; the cache holds ``ws``, whose masks its backward reads."""
    _check_graph(model, graph)
    zv0, hv0 = _affine_relu(graph.var_feats, model.var_embed)
    zc0, hc0 = _affine_relu(graph.con_feats, model.con_embed)
    hc1, v2c = _half_conv(model, "v2c", graph, hc0, hv0, ws)
    hv1, c2v = _half_conv(model, "c2v", graph, hc1, hv0, ws)

    logits = (hv1 @ model.head.w + model.head.b)[:, 0]
    with np.errstate(over="ignore"):  # saturated logits are fine, the clip handles them
        p = 1.0 / (1.0 + np.exp(-logits))
    p = np.clip(p, 1e-15, 1.0 - 1e-15)
    return dict(graph=graph, ws=ws, zv0=zv0, zc0=zc0, v2c=v2c, c2v=c2v, hv1=hv1, p=p)


def forward(model: GcnnModel, graph: BipartiteGraph) -> np.ndarray:
    """Probabilities that each binary variable takes value 1, in mask order."""
    cache = _forward_cached(model, graph, _Workspace([graph], model.hidden_dim))
    return cache["p"][graph.binary_mask]


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class _PackedTargets:
    """A :class:`GraphTargets` checked once and stacked: row s is solution s."""

    graph: BipartiteGraph
    values: np.ndarray  # [S, k] targets, each within 1e-9 of 0 or 1
    weights: np.ndarray  # [S] finite, nonnegative solution weights


def _pack_targets(item: GraphTargets) -> _PackedTargets:
    """Check every solution of ``item`` against its graph and stack them."""
    k = int(item.graph.binary_mask.sum())
    values = np.empty((len(item.solutions), k))
    weights = np.empty(len(item.solutions))
    for s, sol in enumerate(item.solutions):
        x = np.asarray(sol.values, dtype=np.float64)
        if x.shape != (k,):
            raise ShapeMismatch(f"target shape {x.shape} != ({k},)")
        if not np.all((np.abs(x) <= 1e-9) | (np.abs(x - 1.0) <= 1e-9)):  # also rejects nan
            raise ValueError("target values must be 0 or 1")
        w = np.asarray(sol.weight, dtype=np.float64)
        if w.ndim:
            raise ShapeMismatch(f"weight shape {w.shape} != (), one weight per solution")
        if not (np.isfinite(w) and w >= 0):
            raise ValueError("solution weights must be finite and nonnegative")
        values[s], weights[s] = x, w
    return _PackedTargets(item.graph, values, weights)


def _pack_batch(batch: TrainingBatch) -> list[_PackedTargets]:
    return [_pack_targets(item) for item in batch]


def _graph_term(probs: np.ndarray, targets: _PackedTargets, want_grad: bool):
    """Weighted log-likelihood of the targets and, optionally, d(term)/d(probs).

    Solution s contributes the sum of row s of one S x k expression; the rows
    are added in solution order, so the result does not depend on S.
    """
    p = np.clip(probs, PROB_CLAMP, 1.0 - PROB_CLAMP)
    x, w = targets.values, targets.weights[:, None]
    term = 0.0
    for row_sum in (w * (x * np.log(p) + (1.0 - x) * np.log1p(-p))).sum(axis=1):
        term += float(row_sum)
    if not want_grad:
        return term, None
    inside = (probs >= PROB_CLAMP) & (probs <= 1.0 - PROB_CLAMP)
    grad = np.zeros(probs.shape[0])
    for row in w * (x / p - (1.0 - x) / (1.0 - p)) * inside:
        grad += row
    return term, grad


def loss_minibatch(model: GcnnModel, batch: TrainingBatch) -> float:
    """Average over graphs of (per-graph node-averaged negative log-likelihood)."""
    return _loss_and_gradients(model, _pack_batch(batch), "minibatch", want_grad=False)[0]


def loss_fullbatch(model: GcnnModel, batch: TrainingBatch) -> float:
    """Negative log-likelihood normalized once by the total node count."""
    return _loss_and_gradients(model, _pack_batch(batch), "fullbatch", want_grad=False)[0]


# ---------------------------------------------------------------------------
# Backward
# ---------------------------------------------------------------------------


def _affine_relu_backward(
    name: str, x: np.ndarray, z: np.ndarray, g_h: np.ndarray, grads: dict[str, np.ndarray]
) -> np.ndarray:
    """Back through :func:`_affine_relu` of block ``name`` from d(loss)/d(relu(z)).

    Adds the block's parameter gradients into ``grads`` and returns d(loss)/d(z).
    """
    g_z = g_h * (z > 0)
    grads[f"{name}.w"] += x.T @ g_z
    grads[f"{name}.b"] += g_z.sum(axis=0)
    return g_z


def _half_conv_backward(
    model: GcnnModel, name: str, graph: BipartiteGraph, saved: tuple,
    g_out: np.ndarray, grads: dict[str, np.ndarray], ws: _Workspace,
) -> tuple[np.ndarray, np.ndarray]:
    """Back through :func:`_half_conv` from d(loss)/d(its output).

    Sums the per-edge message gradient into node-level gradients, so the
    matmuls run over nodes, not edges. Returns d(loss)/d(h_con) and d(loss)/d(h_var).
    """
    msg, upd = getattr(model, f"{name}_msg"), getattr(model, f"{name}_upd")
    h_con, h_var, active, u_in, z_upd = saved
    h = g_out.shape[1]
    con_seg, var_seg = graph.segments
    seg = con_seg if name == "v2c" else var_seg
    g_u_in = _affine_relu_backward(f"{name}_upd", u_in, z_upd, g_out, grads) @ upd.w.T
    # divide per node, then gather per edge
    g_node = g_u_in[:, h:] / seg.degree[:, None]
    e = graph.n_edges
    g_rows = ws.rows("msg", e + 1)
    for c in ws.chunks(e):
        np.take(g_node, seg.index[c], axis=0, mode="clip", out=g_rows[c])
        g_rows[c] *= active[c]
    G_con = _scatter_add(con_seg, g_rows, ws.block(con_seg))
    G_var = _scatter_add(var_seg, g_rows, ws.block(var_seg))
    g_z = g_rows[:e]  # the edge-order reductions run whole, so their order is kept
    g_w = grads[f"{name}_msg.w"]
    g_w[:h] += h_con.T @ G_con
    g_w[h : 2 * h] += h_var.T @ G_var
    g_w[2 * h] += graph.edge_feat @ g_z
    grads[f"{name}_msg.b"] += g_z.sum(axis=0)
    g_con, g_var = G_con @ msg.w[:h].T, G_var @ msg.w[h : 2 * h].T
    if name == "v2c":
        g_con += g_u_in[:, :h]
    else:
        g_var += g_u_in[:, :h]
    return g_con, g_var


def _backward_graph(
    model: GcnnModel, cache: dict, d_probs: np.ndarray, grads: dict[str, np.ndarray]
) -> None:
    graph: BipartiteGraph = cache["graph"]
    p = cache["p"]

    g_logit = np.zeros(graph.n_vars)
    g_logit[graph.binary_mask] = d_probs * p[graph.binary_mask] * (1.0 - p[graph.binary_mask])

    grads["head.w"] += cache["hv1"].T @ g_logit[:, None]
    grads["head.b"] += np.array([g_logit.sum()])
    g_hv1 = np.outer(g_logit, model.head.w[:, 0])

    ws = cache["ws"]
    g_hc1, g_hv0 = _half_conv_backward(model, "c2v", graph, cache["c2v"], g_hv1, grads, ws)
    g_hc0, g_hv0_v2c = _half_conv_backward(model, "v2c", graph, cache["v2c"], g_hc1, grads, ws)
    g_hv0 += g_hv0_v2c

    _affine_relu_backward("var_embed", graph.var_feats, cache["zv0"], g_hv0, grads)
    _affine_relu_backward("con_embed", graph.con_feats, cache["zc0"], g_hc0, grads)


def _loss_and_gradients(
    model: GcnnModel, batch: Sequence[_PackedTargets], loss_mode: str, want_grad: bool = True,
    ws: _Workspace | None = None,
) -> tuple[float, dict[str, np.ndarray] | None]:
    """The ``loss_mode`` loss of ``batch`` and, if ``want_grad``, its parameter gradients.

    The only place that scales each graph's term by its minibatch or fullbatch weight.
    ``ws`` must fit every graph of ``batch``; by default one is made for them.
    """
    if not batch:
        raise ValueError("batch is empty")
    if loss_mode not in ("minibatch", "fullbatch"):
        raise ValueError(f"unknown loss_mode {loss_mode!r}")
    if ws is None:
        ws = _Workspace((item.graph for item in batch), model.hidden_dim)
    grads = {name: np.zeros_like(arr) for name, arr in model.named_parameters()} if want_grad else None
    n_total = sum(int(item.graph.binary_mask.sum()) for item in batch)
    total = 0.0
    for item in batch:
        n_i = int(item.graph.binary_mask.sum())
        if n_i == 0 or not len(item.values):
            continue
        cache = _forward_cached(model, item.graph, ws)
        probs = cache["p"][item.graph.binary_mask]
        term, term_grad = _graph_term(probs, item, want_grad)
        scale = 1.0 / (len(batch) * n_i if loss_mode == "minibatch" else n_total)
        total += term * scale
        if want_grad:
            _backward_graph(model, cache, -scale * term_grad, grads)
    return -total, grads


def backward(
    model: GcnnModel, batch: TrainingBatch, loss_mode: str = "minibatch"
) -> dict[str, np.ndarray]:
    """Analytic gradient of the selected loss, keyed like ``named_parameters``."""
    _, grads = _loss_and_gradients(model, _pack_batch(batch), loss_mode)
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
    ws = _Workspace((item.graph for item in dataset), model.hidden_dim)  # checks every graph
    packed = _pack_batch(dataset)  # targets never change, so they are checked once
    model = model.copy()
    params = dict(model.named_parameters())
    velocity = {name: np.zeros_like(arr) for name, arr in params.items()}
    rng = np.random.default_rng(config.seed)
    curve: list[float] = []
    for _ in range(config.epochs):
        order = rng.permutation(len(dataset))
        epoch_losses: list[float] = []
        for start in range(0, len(dataset), config.batch_size):
            batch = [packed[i] for i in order[start : start + config.batch_size]]
            loss, grads = _loss_and_gradients(model, batch, config.loss_mode, True, ws)
            if not math.isfinite(loss):
                raise DivergenceDetected(f"loss became {loss}")
            epoch_losses.append(loss)
            for name, arr in params.items():
                velocity[name] = config.momentum * velocity[name] - config.lr * grads[name]
                arr += velocity[name]
        curve.append(float(np.mean(epoch_losses)))
    return model, curve


def compute_solution_weights(pool: SolutionPool, temperature: float = 1.0) -> np.ndarray:
    """Per-solution weights: softmax of negated min-max-normalized objectives.

    Better (lower) objectives get at least as much weight; equal objectives
    share it equally, as all do at ``temperature=inf``; one solution gets 1.
    """
    if not temperature > 0:
        raise ValueError(f"temperature must be > 0, got {temperature}")
    if not pool.entries:
        raise ValueError("solution pool is empty")
    objs = np.array([e.objective for e in pool.entries], dtype=np.float64)
    if objs.max() - objs.min() < 1e-12:
        return np.full(len(objs), 1.0 / len(objs))
    z = (objs - objs.min()) / (objs.max() - objs.min())
    w = np.exp(-z / temperature)
    return w / w.sum()


def pool_targets(
    graph: BipartiteGraph, pool: SolutionPool, temperature: float = 1.0
) -> GraphTargets:
    """Each pooled solution's binary values, weighted by :func:`compute_solution_weights`."""
    return GraphTargets(graph, [
        TargetSolution(entry.values[graph.binary_mask].copy(), float(w))
        for entry, w in zip(pool.entries, compute_solution_weights(pool, temperature))
    ])


# ---------------------------------------------------------------------------
# Serialization (plain text, exact round-trip via repr floats)
# ---------------------------------------------------------------------------


def save_model(model: GcnnModel) -> str:
    lines = [
        f"GCNN {MODEL_FORMAT_VERSION}",
        f"hidden_dim {model.hidden_dim}",
        f"f_var {model.f_var}",
        f"f_con {model.f_con}",
    ]
    for name, arr in model.named_parameters():
        lines.append(f"PARAM {name} {' '.join(map(str, arr.shape))}")
        lines += [" ".join(map(repr, row)) for row in np.atleast_2d(arr).tolist()]
    return "\n".join(lines) + "\n"


def _int_field(value: str, what: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def load_model(text: str) -> GcnnModel:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    header = lines[0].split() if lines else []
    if len(header) != 2 or header[0] != "GCNN":
        raise ValueError("not a GCNN model file")
    version = _int_field(header[1], "model format version")
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version}")
    keys = ("hidden_dim", "f_var", "f_con")
    meta: dict[str, int] = {}
    i = 1
    while i < len(lines) and not lines[i].startswith("PARAM"):
        parts = lines[i].split()
        if len(parts) != 2 or parts[0] not in keys or parts[0] in meta:
            raise ValueError(f"expected one '<key> <integer>' line per key of {keys} "
                             f"in the model header, got {lines[i]!r}")
        meta[parts[0]] = _int_field(parts[1], f"model header {parts[0]}")
        i += 1
    missing = [key for key in keys if key not in meta]
    if missing:
        raise ValueError(f"model header misses {', '.join(missing)}")
    shapes = _block_shapes(meta["f_var"], meta["f_con"], meta["hidden_dim"])
    arrays: dict[str, np.ndarray] = {}
    while i < len(lines):
        tokens = lines[i].split()
        if tokens[0] != "PARAM" or len(tokens) not in (3, 4):
            raise ValueError(f"expected PARAM <name> <shape>, got {lines[i]!r}")
        name = tokens[1]
        if name in arrays or name not in {f"{block}.{p}" for block in shapes for p in "wb"}:
            raise ValueError(f"unknown or repeated parameter {name!r}")
        shape = tuple(_int_field(t, f"shape of parameter {name}") for t in tokens[2:])
        n_lines = shape[0] if len(shape) == 2 else 1  # a matrix has one line per row
        if i + n_lines >= len(lines):
            raise ValueError(f"parameter {name} is truncated")
        try:
            rows = [[float(x) for x in ln.split()] for ln in lines[i + 1 : i + 1 + n_lines]]
            arr = np.array(rows if len(shape) == 2 else rows[0], dtype=np.float64)
        except ValueError as exc:  # a non-numeric token, or matrix rows of different lengths
            raise ValueError(f"parameter {name} of declared shape {shape} is malformed: {exc}") from exc
        if arr.shape != shape:
            raise ValueError(f"parameter {name} has shape {arr.shape}, expected {shape}")
        if not np.isfinite(arr).all():
            raise ValueError(f"parameter {name} has a non-finite value")
        i += 1 + n_lines
        arrays[name] = arr
    blocks = {}
    for name, (fan_in, fan_out) in shapes.items():
        try:
            w, b = arrays[f"{name}.w"], arrays[f"{name}.b"]
        except KeyError as exc:
            raise ValueError(f"model file misses parameter block {name!r}") from exc
        if w.shape != (fan_in, fan_out) or b.shape != (fan_out,):
            raise ValueError(
                f"parameter block {name!r} has shapes {w.shape} and {b.shape}, "
                f"but the header implies {(fan_in, fan_out)} and {(fan_out,)}"
            )
        blocks[name] = Affine(w, b)
    return GcnnModel(**blocks)
