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

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .encoder import EmptyGraph, segment_mean_pool


class BadK(ValueError):
    """k_s and k_t must satisfy 1 <= k_s <= k_t <= num_experts."""


class MissingTaskEmbedding(KeyError):
    """No embedding for a task id and the fallback embedder is disabled."""


class TaskEmbeddingError(ValueError):
    """Malformed task embedding file."""


_SIGMA_FLOOR = 1e-3  # lower bound on the routing noise scale


@dataclass
class TaskDescriptor:
    """A prediction task: identifier and embedding."""

    task_id: str
    embedding: np.ndarray


def fnv1a_64(text: str) -> int:
    """64-bit FNV-1a hash of the UTF-8 encoding of ``text``."""
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def fallback_embedding(text: str, dim: int = 64) -> np.ndarray:
    """Deterministic pseudo-random unit vector hashed from ``text``."""
    rng = np.random.Generator(np.random.PCG64(fnv1a_64(text)))
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def load_task_embeddings(path) -> dict[str, np.ndarray]:
    """Read tab-separated ``task_id<TAB>v1,v2,...`` rows; one per task."""
    table: dict[str, np.ndarray] = {}
    dim = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise TaskEmbeddingError(
                    f"line {lineno}: expected task_id<TAB>values, got {len(parts)} fields")
            task_id, values = parts
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
                  allow_fallback: bool = True,
                  fallback_dim: int = 64) -> dict[str, TaskDescriptor]:
    """Build a TaskDescriptor per task id from a loaded embedding table,
    falling back to the hash embedder over the id for ids the table lacks."""
    embeddings = embeddings or {}
    out: dict[str, TaskDescriptor] = {}
    for task_id in sorted(set(task_ids)):
        if task_id in embeddings:
            out[task_id] = TaskDescriptor(task_id, embeddings[task_id])
        elif allow_fallback:
            out[task_id] = TaskDescriptor(task_id,
                                          fallback_embedding(task_id, fallback_dim))
        else:
            raise MissingTaskEmbedding(
                f"no embedding for task {task_id!r} and fallback is disabled")
    dims = {d.embedding.size for d in out.values()}
    if len(dims) > 1:
        raise TaskEmbeddingError(
            f"task embeddings have mixed dimensions {sorted(dims)}")
    return out


@dataclass
class RouterParams:
    """Gating weights: sample scores from the readout, task scores from the
    task embedding, separate heads for the mean and noise scale."""

    w_mu1: Tensor
    w_mu2: Tensor
    w_sigma1: Tensor
    w_sigma2: Tensor
    k_s: int
    k_t: int

    @property
    def num_experts(self) -> int:
        return self.w_mu1.shape[1]

    @classmethod
    def create(cls, rng: np.random.Generator, feat_dim: int, task_dim: int,
               num_experts: int, k_s: int, k_t: int, dtype=np.float64) -> "RouterParams":
        validate_k(k_s, k_t, num_experts)
        s1 = 1.0 / np.sqrt(feat_dim)
        s2 = 1.0 / np.sqrt(task_dim)
        def w(rows, cols, scale):
            return Tensor(rng.normal(0.0, scale, size=(rows, cols)),
                          requires_grad=True, dtype=dtype)
        return cls(
            w_mu1=w(feat_dim, num_experts, s1),
            w_mu2=w(task_dim, num_experts, s2),
            w_sigma1=w(feat_dim, num_experts, s1),
            w_sigma2=w(task_dim, num_experts, s2),
            k_s=k_s, k_t=k_t,
        )

    def parameters(self) -> dict[str, Tensor]:
        return {"w_mu1": self.w_mu1, "w_mu2": self.w_mu2,
                "w_sigma1": self.w_sigma1, "w_sigma2": self.w_sigma2}


@dataclass
class ExpertParams:
    """One expert: an attention projection for pooling and a d->d->1 MLP."""

    theta_att: Tensor
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor
    pool_ratio: float = 0.5

    @classmethod
    def create(cls, rng: np.random.Generator, dim: int, pool_ratio: float = 0.5,
               dtype=np.float64) -> "ExpertParams":
        if not 0.0 < pool_ratio <= 1.0:
            raise ValueError(f"pool_ratio must be in (0, 1], got {pool_ratio}")
        scale = 1.0 / np.sqrt(dim)
        return cls(
            theta_att=Tensor(rng.normal(0.0, 1.0, size=(dim, 1)),
                             requires_grad=True, dtype=dtype),
            w1=Tensor(rng.normal(0.0, scale, size=(dim, dim)),
                      requires_grad=True, dtype=dtype),
            b1=Tensor(np.zeros(dim), requires_grad=True, dtype=dtype),
            w2=Tensor(rng.normal(0.0, scale, size=(dim, 1)),
                      requires_grad=True, dtype=dtype),
            b2=Tensor(np.zeros(1), requires_grad=True, dtype=dtype),
            pool_ratio=pool_ratio,
        )

    def parameters(self) -> dict[str, Tensor]:
        return {"theta_att": self.theta_att, "w1": self.w1, "b1": self.b1,
                "w2": self.w2, "b2": self.b2}


@dataclass
class IntegratorParams:
    """Task-conditioned softmax weights over per-layer logits."""

    map_w: Tensor
    bias: Tensor

    @classmethod
    def create(cls, rng: np.random.Generator, task_dim: int, num_layers: int,
               dtype=np.float64) -> "IntegratorParams":
        scale = 1.0 / np.sqrt(task_dim)
        return cls(
            map_w=Tensor(rng.normal(0.0, scale, size=(task_dim, num_layers)),
                         requires_grad=True, dtype=dtype),
            bias=Tensor(np.zeros(num_layers), requires_grad=True, dtype=dtype),
        )

    def parameters(self) -> dict[str, Tensor]:
        return {"map_w": self.map_w, "bias": self.bias}


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
    order = np.argsort(-values, axis=-1, kind="stable")
    return order[..., :k]


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
                noise_on: bool, rng: np.random.Generator | None = None) -> RouteBatch:
    """Noisy top-k gating for a batch of readout vectors.

    mu adds masked sample scores to task scores; sigma gets its own heads, a
    softplus, and a floor. Training draws h = mu + sigma * z; evaluation
    uses h = mu. Gates are the softmax over the k_s selected entries (exact
    zeros elsewhere), and p_choose is the probability that each expert would
    be selected under fresh noise, a normal CDF around the k_s-th largest
    competing score.
    """
    m = r.num_experts
    validate_k(r.k_s, r.k_t, m)
    dtype = x_hat.dtype

    mu = ad.add(gamma_mask(ad.matmul(x_hat, r.w_mu1), r.k_t),
                ad.matmul(tasks, r.w_mu2))
    raw_sigma = ad.add(gamma_mask(ad.matmul(x_hat, r.w_sigma1), r.k_t),
                       ad.matmul(tasks, r.w_sigma2))
    sigma = ad.add(ad.softplus(raw_sigma),
                   Tensor(np.asarray(_SIGMA_FLOOR, dtype=dtype)))

    if noise_on:
        if rng is None:
            raise ValueError("noise_on route needs an rng")
        z = rng.standard_normal(size=mu.shape).astype(dtype)
        h = ad.add(mu, ad.mul(sigma, Tensor(z)))
    else:
        h = mu

    order = np.argsort(-h.data, axis=1, kind="stable")
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


def _sag_weights(scores: np.ndarray, graph_ids: np.ndarray, num_graphs: int,
                 pool_ratio: float) -> np.ndarray:
    """Constant per-node weights: 1/n_selected on each graph's top
    ceil(kappa * n) nodes by score (ties to the lower node index), 0 off."""
    weights = np.zeros_like(scores)
    for g in range(num_graphs):
        member_idx = np.nonzero(graph_ids == g)[0]
        n = member_idx.size
        n_sel = int(math.ceil(pool_ratio * n))
        local = scores[member_idx]
        order = np.argsort(-local, kind="stable")[:n_sel]
        weights[member_idx[order]] = 1.0 / n_sel
    return weights


def sag_project_batch(nodes: Tensor, edge_index: np.ndarray,
                      graph_ids: np.ndarray, num_graphs: int,
                      expert: ExpertParams) -> Tensor:
    """Expert-specific pooled view of every graph in the batch: (B, dim).

    Scores are tanh of the symmetric-normalized (A + I) propagation of the
    attention projection; the output is the mean of the selected nodes'
    feature rows, each scaled by its score, so the projection receives
    gradient through both the scale and the selection values.
    """
    n = nodes.shape[0]
    if n == 0:
        raise EmptyGraph("projection over zero nodes")
    if not 0.0 < expert.pool_ratio <= 1.0:
        raise ValueError(f"pool_ratio must be in (0, 1], got {expert.pool_ratio}")

    deg = np.bincount(edge_index[:, 1], minlength=n)
    dinv = Tensor((1.0 / np.sqrt(deg + 1.0))[:, None].astype(nodes.dtype))

    z = ad.matmul(nodes, expert.theta_att)
    u = ad.mul(z, dinv)
    au = ad.scatter_segment_sum(ad.gather_rows(u, edge_index[:, 0]),
                                edge_index[:, 1], n)
    z_tilde = ad.tanh(ad.mul(ad.add(au, u), dinv))

    weights = _sag_weights(z_tilde.data[:, 0], graph_ids, num_graphs,
                           expert.pool_ratio)
    scaled = ad.mul(z_tilde, Tensor(weights[:, None].astype(nodes.dtype)))
    weighted_rows = ad.mul(nodes, scaled)
    return ad.scatter_segment_sum(weighted_rows, graph_ids, num_graphs)


def expert_mlp(expert: ExpertParams, pooled: Tensor) -> Tensor:
    """Per-expert vote: relu-hidden d->d->1 perceptron on pooled features."""
    hidden = ad.relu(ad.add(ad.matmul(pooled, expert.w1), expert.b1))
    return ad.add(ad.matmul(hidden, expert.w2), expert.b2)


@dataclass
class LayerResult:
    """One processing layer's outputs for a batch."""

    output: Tensor
    route: RouteBatch
    expert_logits: Tensor


def layer_forward(nodes: Tensor, edge_index: np.ndarray, graph_ids: np.ndarray,
                  num_graphs: int, tasks: Tensor, experts: list[ExpertParams],
                  r: RouterParams, noise_on: bool,
                  rng: np.random.Generator | None = None) -> LayerResult:
    """Route a batch and form gate-weighted expert votes.

    Every expert's logits are computed for the full batch and retained (the
    expert-specific loss needs them); unselected positions have an exact
    zero gate, so they contribute nothing to the output or its gradient.
    """
    x_hat = segment_mean_pool(nodes, graph_ids, num_graphs)
    rb = route_batch(x_hat, tasks, r, noise_on, rng)
    columns = []
    for expert in experts:
        pooled = sag_project_batch(nodes, edge_index, graph_ids, num_graphs, expert)
        columns.append(expert_mlp(expert, pooled))
    expert_logits = ad.concat(columns, axis=1)
    output = ad.reduce_sum(ad.mul(rb.gates, expert_logits), axis=1)
    return LayerResult(output=output, route=rb, expert_logits=expert_logits)


def integrate_outputs(per_layer_logits: Tensor, tasks: Tensor,
                      p: IntegratorParams) -> tuple[Tensor, Tensor]:
    """Blend a (batch, layers) logit matrix with task-conditioned softmax
    weights from the (batch, task_dim) tasks. Returns (final logits,
    weights)."""
    weights = ad.softmax(ad.add(ad.matmul(tasks, p.map_w), p.bias), axis=1)
    return ad.reduce_sum(ad.mul(weights, per_layer_logits), axis=1), weights
