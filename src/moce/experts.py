"""Task-conditioned noisy top-k routing and collaborative experts.

A router scores experts from the graph readout and the task embedding,
keeps the top k_t candidates through a minimum-fill mask, perturbs scores
with learned per-expert noise during training, and dispatches each sample
to its top k_s experts. Every expert sees the graph through its own
self-attention pooling projection before voting; gate-weighted votes form
the layer output. Discrete selections (top-k indices, pooled node choices)
are constants of the forward pass; gradients flow through values only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Module, Tensor
from .encoder import BatchedGraph, segment_mean_pool


class BadK(ValueError):
    """k_s and k_t must satisfy 1 <= k_s <= k_t <= num_experts."""


class MissingTaskEmbedding(LookupError):
    """No embedding for a task id and the fallback embedder is disabled."""


class TaskEmbeddingError(ValueError):
    """Malformed task embedding file."""


_SIGMA_FLOOR = 1e-3  # lower bound on the routing noise scale


@dataclass
class TaskDescriptor:
    """A prediction task's embedding."""

    embedding: np.ndarray


def fnv1a_64(text: str) -> int:
    """64-bit FNV-1a hash of the UTF-8 encoding of ``text``."""
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def fallback_embedding(text: str, dim: int) -> np.ndarray:
    """Deterministic pseudo-random unit vector hashed from ``text``."""
    rng = np.random.Generator(np.random.PCG64(fnv1a_64(text)))
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def load_task_embeddings(path) -> dict[str, np.ndarray]:
    """Read tab-separated ``task_id<TAB>v1,v2,...`` rows; one per task. Ids
    are stripped, as dataset cells are; a leading byte-order mark is not data."""
    table: dict[str, np.ndarray] = {}
    dim = None
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise TaskEmbeddingError(f"{path} is not UTF-8 text ({exc.reason})") from None
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise TaskEmbeddingError(
                f"line {lineno}: expected task_id<TAB>values, got {len(parts)} fields")
        task_id, values = parts[0].strip(), parts[1]
        try:
            vec = np.array([float(x) for x in values.split(",")])
        except ValueError as exc:
            raise TaskEmbeddingError(f"line {lineno}: {exc}") from None
        if not np.all(np.isfinite(vec)):
            raise TaskEmbeddingError(f"line {lineno}: non-finite embedding value")
        if dim is None:
            dim = vec.size
        elif vec.size != dim:
            raise TaskEmbeddingError(
                f"line {lineno}: embedding length {vec.size} != {dim} of earlier rows")
        if task_id in table:
            raise TaskEmbeddingError(f"line {lineno}: duplicate task id {task_id!r}")
        table[task_id] = vec
    return table


def resolve_tasks(task_ids, embeddings: dict[str, np.ndarray] | None,
                  allow_fallback: bool = True, *,
                  fallback_dim: int) -> dict[str, TaskDescriptor]:
    """Build a TaskDescriptor per task id from a loaded embedding table,
    falling back to the hash embedder over the id for ids the table lacks.
    Every vector of the table must have ``fallback_dim`` values, the
    model's task_dim."""
    embeddings = embeddings or {}
    dims = sorted({v.size for v in embeddings.values()})
    if len(dims) > 1:
        raise TaskEmbeddingError(
            f"task embeddings have mixed dimensions {dims}")
    if dims and dims[0] != fallback_dim:
        raise TaskEmbeddingError(
            f"embeddings have {dims[0]} values, but the model's task_dim "
            f"is {fallback_dim}")
    out: dict[str, TaskDescriptor] = {}
    for task_id in sorted(set(task_ids)):
        if task_id in embeddings:
            out[task_id] = TaskDescriptor(embeddings[task_id])
        elif allow_fallback:
            out[task_id] = TaskDescriptor(fallback_embedding(task_id, fallback_dim))
        else:
            raise MissingTaskEmbedding(
                f"no embedding for task {task_id!r} and fallback is disabled")
    return out


@dataclass
class RouterParams(Module):
    """Gating weights: sample scores from the readout, task scores from the
    task embedding, separate heads for the mean and noise scale."""

    w_mu1: Tensor
    w_mu2: Tensor
    w_sigma1: Tensor
    w_sigma2: Tensor
    k_s: int
    k_t: int

    @classmethod
    def create(cls, rng: np.random.Generator, feat_dim: int, task_dim: int,
               num_experts: int, k_s: int, k_t: int) -> "RouterParams":
        validate_k(k_s, k_t, num_experts)
        s1 = 1.0 / np.sqrt(feat_dim)
        s2 = 1.0 / np.sqrt(task_dim)
        def w(rows, cols, scale):
            return Tensor(rng.normal(0.0, scale, size=(rows, cols)),
                          requires_grad=True)
        return cls(
            w_mu1=w(feat_dim, num_experts, s1),
            w_mu2=w(task_dim, num_experts, s2),
            w_sigma1=w(feat_dim, num_experts, s1),
            w_sigma2=w(task_dim, num_experts, s2),
            k_s=k_s, k_t=k_t,
        )


@dataclass
class ExpertParams(Module):
    """One expert: an attention projection for pooling and a d->d->1 MLP."""

    theta_att: Tensor
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor

    @classmethod
    def create(cls, rng: np.random.Generator, dim: int) -> "ExpertParams":
        scale = 1.0 / np.sqrt(dim)
        return cls(
            theta_att=Tensor(rng.normal(0.0, 1.0, size=(dim, 1)), requires_grad=True),
            w1=Tensor(rng.normal(0.0, scale, size=(dim, dim)), requires_grad=True),
            b1=Tensor(np.zeros(dim), requires_grad=True),
            w2=Tensor(rng.normal(0.0, scale, size=(dim, 1)), requires_grad=True),
            b2=Tensor(np.zeros(1), requires_grad=True),
        )


@dataclass
class IntegratorParams(Module):
    """Task-conditioned softmax weights over per-layer logits."""

    map_w: Tensor
    bias: Tensor

    @classmethod
    def create(cls, rng: np.random.Generator, task_dim: int,
               num_layers: int) -> "IntegratorParams":
        scale = 1.0 / np.sqrt(task_dim)
        return cls(
            map_w=Tensor(rng.normal(0.0, scale, size=(task_dim, num_layers)),
                         requires_grad=True),
            bias=Tensor(np.zeros(num_layers), requires_grad=True),
        )


@dataclass
class RouteBatch:
    """Routing outcome for a whole batch; (batch, experts) tensors."""

    mu: Tensor
    sigma: Tensor
    h: Tensor
    gates: Tensor
    selected: np.ndarray
    p_choose: Tensor


def validate_k(k_s: int, k_t: int, num_experts: int) -> None:
    if k_s < 1:
        raise BadK(f"k_s must be at least 1, got {k_s}")
    if k_s > k_t:
        raise BadK(f"k_s must not exceed k_t, got k_s={k_s}, k_t={k_t}")
    if k_t > num_experts:
        raise BadK(f"k_t must not exceed num_experts, got k_t={k_t}, num_experts={num_experts}")


def topk_indices(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest entries per row, ties going to the lower
    index (stable sort on the negated values)."""
    # ndarray methods skip the np.* wrappers, whose overhead dominates at B=1.
    return (-values).argsort(axis=-1, kind="stable")[..., :k]


def gamma_mask(v: Tensor, k_t: int) -> Tensor:
    """Keep the top k_t entries of each row of a (rows, m) matrix, fill the
    rest with the row minimum. Implemented as a gather with constant
    indices, so the filled positions pass their gradient to the (first)
    argmin entry."""
    m = v.shape[-1]
    if not 1 <= k_t <= m:
        raise BadK(f"k_t must be in [1, {m}], got {k_t}")
    keep = np.zeros(v.shape, dtype=bool)
    np.put_along_axis(keep, topk_indices(v.data, k_t), True, axis=-1)
    argmin = np.argmin(v.data, axis=-1)
    return ad.gather_cols(v, np.where(keep, np.arange(m), argmin[..., None]))


def route_batch(x_hat: Tensor, tasks: Tensor, r: RouterParams,
                rng: np.random.Generator | None = None) -> RouteBatch:
    """Noisy top-k gating for a batch of readout vectors.

    mu adds masked sample scores to task scores; sigma gets its own heads, a
    softplus, and a floor. Given an ``rng`` (training), h = mu + sigma * z
    with z drawn from it; without one (evaluation), h = mu. Gates are the
    softmax over the k_s selected entries (exact zeros elsewhere), and
    p_choose is the probability that each expert would be selected under
    fresh noise, a normal CDF around the k_s-th largest competing score.
    """
    m = r.w_mu1.shape[1]
    validate_k(r.k_s, r.k_t, m)
    dtype = x_hat.dtype

    mu = ad.add(gamma_mask(ad.matmul(x_hat, r.w_mu1), r.k_t),
                ad.matmul(tasks, r.w_mu2))
    raw_sigma = ad.add(gamma_mask(ad.matmul(x_hat, r.w_sigma1), r.k_t),
                       ad.matmul(tasks, r.w_sigma2))
    sigma = ad.add(ad.softplus(raw_sigma),
                   Tensor(np.asarray(_SIGMA_FLOOR, dtype=dtype)))

    if rng is not None:
        z = rng.standard_normal(size=mu.shape).astype(dtype)
        h = ad.add(mu, ad.mul(sigma, Tensor(z)))
    else:
        h = mu

    # one column past k_s holds the threshold of the selected entries
    order = topk_indices(h.data, r.k_s + 1)
    selected = order[:, : r.k_s]
    keep = np.zeros(h.shape, dtype=bool)
    np.put_along_axis(keep, selected, True, axis=1)
    gates = ad.softmax(ad.mask_fill(h, keep, ad.neg_inf(dtype)), axis=1)

    if r.k_s >= m:
        p_choose = Tensor(np.ones(h.shape, dtype=dtype))
    else:
        kth = order[:, r.k_s - 1][:, None]
        next_kth = order[:, r.k_s][:, None]
        thresh_idx = np.where(keep, next_kth, kth)
        thresholds = ad.gather_cols(h, thresh_idx)
        p_choose = ad.normal_cdf(ad.div(ad.sub(mu, thresholds), sigma))

    return RouteBatch(mu=mu, sigma=sigma, h=h, gates=gates,
                      selected=selected, p_choose=p_choose)


@dataclass
class SagLayout:
    """``_sag_weights``' plan of a batch for one pool ratio kappa, shared by
    the experts of a block: graph g keeps its top ``n_sel[g]`` =
    ceil(kappa * n_g) rows. For several graphs, row r's score goes to cell
    ``cells[r]`` of a (B, n_max) grid whose row g starts at node
    ``starts[g]``; ``keep`` marks each grid row's first n_sel[g] columns,
    and ``values`` holds 1/n_sel[g] per kept cell, in grid order."""

    n_sel: np.ndarray
    starts: np.ndarray | None = None
    cells: np.ndarray | None = None
    keep: np.ndarray | None = None
    values: np.ndarray | None = None


def sag_layout(offsets: np.ndarray, pool_ratio: float) -> SagLayout:
    """The ``SagLayout`` of a batch whose graph g owns rows
    offsets[g]:offsets[g + 1], for kappa in (0, 1]. One graph gets no grid:
    ``topk_indices`` ranks it faster."""
    if not 0.0 < pool_ratio <= 1.0:
        raise ValueError(f"pool_ratio must be in (0, 1], got {pool_ratio}")
    sizes = np.diff(offsets)
    n_sel = np.ceil(pool_ratio * sizes).astype(np.intp)
    if sizes.size == 1:
        return SagLayout(n_sel)
    starts = offsets[:-1]
    width = int(sizes.max())
    cells = np.arange(offsets[-1]) + np.repeat(
        np.arange(sizes.size) * width - starts, sizes)
    return SagLayout(n_sel, starts, cells, keep=np.arange(width) < n_sel[:, None],
                     values=np.repeat(1.0 / n_sel, n_sel))


def _sag_weights(scores: np.ndarray, layout: SagLayout) -> np.ndarray:
    """Constant per-node weights: 1/n_selected on each graph's top
    ceil(kappa * n) rows by score (ties to the lower row), 0 off.

    One graph takes ``topk_indices`` directly. A batch writes the negated
    scores into a (B, n_max) grid padded with NaN and sorts every row at
    once, stably: NaN sorts last, so row g's first n_g columns are graph
    g's own ``topk_indices`` order, NaN scores included, and the first
    ceil(kappa * n_g) of them are its selection.
    """
    weights = np.zeros_like(scores)
    if layout.cells is None:
        n_sel = int(layout.n_sel[0])
        weights[topk_indices(scores, n_sel)] = 1.0 / n_sel
        return weights
    grid = np.full(layout.keep.size, np.nan, dtype=scores.dtype)
    grid[layout.cells] = -scores
    order = grid.reshape(layout.keep.shape).argsort(axis=1, kind="stable")
    weights[(order + layout.starts[:, None])[layout.keep]] = layout.values
    return weights


def sag_project_batch(nodes: Tensor, batch: BatchedGraph, expert: ExpertParams,
                      layout: SagLayout) -> Tensor:
    """Expert-specific pooled view of every graph in the batch: (B, dim).

    Scores are tanh of the symmetric-normalized (A + I) propagation of the
    attention projection; the output is the mean of the selected nodes'
    feature rows, each scaled by its score, so the projection receives
    gradient through both the scale and the selection values. Each graph
    keeps its top ceil(pool_ratio * n) nodes, as ``layout`` (the batch's
    ``sag_layout``) says.
    """
    z_tilde = ad.sag_scores(nodes, expert.theta_att,
                            batch.prop_dinv.astype(nodes.dtype, copy=False),
                            batch.prop_src, batch.prop_dst)
    weights = _sag_weights(z_tilde.data[:, 0], layout)
    return ad.pool_rows(nodes, z_tilde, weights, batch.graph_ids, batch.num_graphs)


def expert_mlp(expert: ExpertParams, pooled: Tensor) -> Tensor:
    """Per-expert vote: relu-hidden d->d->1 perceptron on pooled features."""
    hidden = ad.dense(pooled, expert.w1, expert.b1, relu=True)
    return ad.dense(hidden, expert.w2, expert.b2)


@dataclass
class LayerResult:
    """One processing layer's outputs for a batch."""

    output: Tensor
    route: RouteBatch
    expert_logits: Tensor


def layer_forward(nodes: Tensor, batch: BatchedGraph, tasks: Tensor,
                  experts: list[ExpertParams], router: RouterParams,
                  pool_ratio: float,
                  rng: np.random.Generator | None = None) -> LayerResult:
    """Route a batch and form its (batch, 1) column of gate-weighted expert
    votes; routing noise is drawn from ``rng`` when one is given.

    Every expert's logits are computed for the full batch and retained (the
    expert-specific loss needs them); unselected positions have an exact
    zero gate, so they contribute nothing to the output or its gradient.
    """
    x_hat = segment_mean_pool(nodes, batch.graph_ids, batch.num_graphs)
    rb = route_batch(x_hat, tasks, router, rng)
    layout = sag_layout(batch.offsets, pool_ratio)
    columns = []
    for expert in experts:
        pooled = sag_project_batch(nodes, batch, expert, layout)
        columns.append(expert_mlp(expert, pooled))
    expert_logits = ad.concat(columns, axis=1)
    output = ad.reduce_sum(ad.mul(rb.gates, expert_logits), axis=1, keepdims=True)
    return LayerResult(output=output, route=rb, expert_logits=expert_logits)


def integrate_outputs(per_layer_logits: Tensor, tasks: Tensor,
                      p: IntegratorParams) -> tuple[Tensor, Tensor]:
    """Blend a (batch, layers) logit matrix with task-conditioned softmax
    weights from the (batch, task_dim) tasks. Returns (final logits,
    weights)."""
    weights = ad.softmax(ad.dense(tasks, p.map_w, p.bias), axis=1)
    return ad.reduce_sum(ad.mul(weights, per_layer_logits), axis=1), weights
