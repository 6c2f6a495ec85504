"""A slow reference for the MoCE forward pass and training loss.

It is written in the paper's terms, one graph and one expert at a time,
with generic ``autodiff`` ops only (``gather_rows``, ``scatter_segment_sum``,
``relu``, ``tanh``, ``matmul``, ``softmax`` and their elementwise kin), and
none of the fused primitives, row-sparse gradients or batched layouts of
``moce.experts`` and ``moce.encoder``. It reads the fast model's
parameters by their checkpoint names, as ``Model.parameters()`` gives
them, and takes the routing noise z as input, so that its loss, logits,
discrete choices and gradients can be set against ``Model.forward`` and
``model_loss``. The two agree to round-off, not bit for bit: the
reference sums in its own order.

Per graph, with d-dimensional node states:

- embedding: each node (edge) row sums one lookup per feature column;
- GIN: h' = MLP((1 + eps) h_v + sum over edges w->v of relu(h_w + e_wv)),
  MLP(x) = relu(x W1 + b1) W2 + b2;
- readout: the mean of the node states;
- router: mu = gamma(x W_mu1) + t W_mu2, where gamma keeps the top k_t
  entries and sets the others to the row minimum (their gradient goes to
  the first minimum); sigma = softplus(gamma(x W_s1) + t W_s2) + 1e-3;
  h = mu + sigma z in training, mu otherwise. The k_s largest entries of h
  are selected (ties to the lower index), gates are the softmax over them,
  and p_j = Phi((mu_j - c_j) / sigma_j), with c_j the k_s-th largest h
  among the other experts;
- expert j: scores s = tanh(D^-1/2 (A + I) D^-1/2 X theta_j); the graph
  keeps its top ceil(kappa n) nodes by score (ties to the lower node) and
  the view is their mean of s_i x_i; the vote is MLP_j(view) with a scalar
  output;
- block output: the gate-weighted sum of the selected experts' votes;
- integrator: a softmax over t W_map + bias weights the block outputs.

Loss: mean BCE of the final logits, plus beta times the sum of the
attention term (mean pairwise cosine of each block's theta_j, diagonal
included, averaged over blocks), the expert-specific term (BCE of every
selected (sample, expert) vote, summed over blocks), the importance term
(squared coefficient of variation of each expert's total gate) and the
load term (coefficient of variation of each expert's total p), both
averaged over blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from moce import autodiff as ad
from moce.autodiff import Tensor

SIGMA_FLOOR = 1e-3
EPS_MEAN = 1e-10

# the fast path against the reference, in float64
REFERENCE_TOL = 1e-10
# a sum with its exact-zero terms dropped, the rest added in another
# order, against the full sum
REORDER_TOL = {np.dtype(np.float64): 1e-12, np.dtype(np.float32): 1e-5}


def rel_error(got, want) -> float:
    """||got - want|| / ||want|| in the 2-norm over all entries; 0 when the
    two are equal, inf when only want is zero."""
    got, want = (np.asarray(a, dtype=np.float64) for a in (got, want))
    if got.shape != want.shape:
        raise ValueError(f"shapes {got.shape} and {want.shape} differ")
    diff = float(np.linalg.norm(got - want))
    if diff == 0.0:
        return 0.0
    norm = float(np.linalg.norm(want))
    return diff / norm if norm else math.inf


@dataclass
class ReferenceResult:
    """Everything the reference computes for one batch.

    ``loss`` maps base, att, exp, imp, lod and overall to scalar tensors.
    ``expert_logits[b]`` is a (B, E) array, ``selected[b]`` the (B, k_s)
    selected experts in descending order of h, and ``kept[b][j]`` the
    sorted batch rows that expert j keeps in block b."""

    loss: dict[str, Tensor]
    logits: np.ndarray
    per_layer_logits: np.ndarray
    expert_logits: list[np.ndarray]
    selected: list[np.ndarray]
    kept: list[list[np.ndarray]]


def _const(value) -> Tensor:
    return Tensor(np.asarray(value, dtype=np.float64))


def _top(values: np.ndarray, k: int) -> list[int]:
    """Indices of the k largest values, ties to the lower index."""
    return sorted(range(len(values)), key=lambda i: (-values[i], i))[:k]


def _embed(tables: list[Tensor], features: np.ndarray) -> Tensor:
    out = ad.gather_rows(tables[0], features[:, 0])
    for col in range(1, len(tables)):
        out = ad.add(out, ad.gather_rows(tables[col], features[:, col]))
    return out


def _mlp(x: Tensor, w1, b1, w2, b2) -> Tensor:
    return ad.add(ad.matmul(ad.relu(ad.add(ad.matmul(x, w1), b1)), w2), b2)


def _gin(p: dict, key: str, h: Tensor, e: Tensor, edges: np.ndarray) -> Tensor:
    n = h.shape[0]
    messages = ad.relu(ad.add(ad.gather_rows(h, edges[:, 0]), e))
    summed = ad.scatter_segment_sum(messages, edges[:, 1], n)
    scaled = ad.mul(h, ad.add(p[f"{key}.epsilon"], _const(1.0)))
    return _mlp(ad.add(scaled, summed), *(p[f"{key}.{name}"]
                                          for name in ("w1", "b1", "w2", "b2")))


def _gamma(v: Tensor, k_t: int) -> Tensor:
    """Keep the top k_t entries of a (1, m) row, the row minimum elsewhere."""
    row = v.data[0]
    keep = set(_top(row, k_t))
    low = int(np.argmin(row))
    return ad.gather_cols(v, np.array([[j if j in keep else low
                                        for j in range(row.size)]]))


def _bce(z: Tensor, y: float) -> Tensor:
    """BCE from a logit and a 0/1 label: softplus(-z) for y = 1,
    softplus(z) for y = 0."""
    return ad.softplus(ad.mul(z, _const(1.0 - 2.0 * y)))


def _cv_parts(totals: Tensor) -> tuple[Tensor, Tensor]:
    """Population variance and mean + EPS_MEAN of a (1, m) row."""
    mean = ad.reduce_mean(totals)
    centered = ad.sub(totals, mean)
    return (ad.reduce_mean(ad.mul(centered, centered)),
            ad.add(mean, _const(EPS_MEAN)))


def _attention(thetas: list[Tensor]) -> Tensor:
    units = [ad.div(t, ad.sqrt(ad.reduce_sum(ad.mul(t, t)))) for t in thetas]
    total = _const(0.0)
    for a in units:
        for b in units:
            total = ad.add(total, ad.reduce_sum(ad.mul(a, b)))
    return ad.mul(total, _const(1.0 / len(units) ** 2))


def _expert_view(x: Tensor, edges: np.ndarray, theta: Tensor,
                 pool_ratio: float) -> tuple[Tensor, list[int]]:
    """One graph's view for one expert, and the nodes it keeps."""
    n = x.shape[0]
    loops = np.arange(n)
    src = np.concatenate((edges[:, 0], loops))
    dst = np.concatenate((edges[:, 1], loops))
    dinv = _const((1.0 / np.sqrt(np.bincount(dst, minlength=n)))[:, None])
    u = ad.mul(ad.matmul(x, theta), dinv)
    s = ad.tanh(ad.mul(ad.scatter_segment_sum(ad.gather_rows(u, src), dst, n),
                       dinv))
    kept = sorted(_top(s.data[:, 0], math.ceil(pool_ratio * n)))
    weighted = ad.mul(ad.gather_rows(x, kept), ad.gather_rows(s, kept))
    view = ad.mul(ad.reduce_sum(weighted, axis=0, keepdims=True),
                  _const(1.0 / len(kept)))
    return view, kept


def _route(p: dict, key: str, x_hat: Tensor, task: Tensor, k_s: int, k_t: int,
           z: np.ndarray | None):
    """Selected experts, their gates (1, k_s) and the row p (1, m)."""
    mu = ad.add(_gamma(ad.matmul(x_hat, p[f"{key}.w_mu1"]), k_t),
                ad.matmul(task, p[f"{key}.w_mu2"]))
    raw = ad.add(_gamma(ad.matmul(x_hat, p[f"{key}.w_sigma1"]), k_t),
                 ad.matmul(task, p[f"{key}.w_sigma2"]))
    sigma = ad.add(ad.softplus(raw), _const(SIGMA_FLOOR))
    h = mu if z is None else ad.add(mu, ad.mul(sigma, _const(z[None, :])))
    m = h.shape[1]
    order = _top(h.data[0], m)
    selected = order[:k_s]
    gates = ad.softmax(ad.gather_cols(h, np.array([selected])), axis=1)
    if k_s >= m:
        return selected, gates, _const(np.ones((1, m)))
    rivals = [[i for i in order if i != j][k_s - 1] for j in range(m)]
    c = ad.gather_cols(h, np.array([rivals]))
    return selected, gates, ad.normal_cdf(ad.div(ad.sub(mu, c), sigma))


def reference_forward(params: dict[str, Tensor], config, graphs, tasks,
                      labels, beta: float, toggles,
                      noise: list[np.ndarray] | None = None) -> ReferenceResult:
    """The loss and logits of ``Model.forward`` and ``model_loss`` for the
    graphs in ``graphs`` (``FeaturizedGraph``s), one row of the (B, task_dim)
    array ``tasks`` and one 0/1 label per graph.

    ``noise`` is None for an evaluation pass, or one (B, E) array of
    standard normal draws z per block, the ones the fast path's routing
    generators give. Gradients reach the tensors of ``params``.
    """
    p = params
    num_blocks, m = config.num_processing_layers, config.num_experts
    node_tables = [t for k, t in p.items() if k.startswith("input.node_embed.")]
    edge_tables = [t for k, t in p.items() if k.startswith("input.edge_embed.")]
    task_rows = [_const(tasks[g][None, :]) for g in range(len(graphs))]
    offsets = np.cumsum([0] + [g.num_nodes for g in graphs])

    states = [_embed(node_tables, g.node_features) for g in graphs]
    edge_states = [_embed(edge_tables, g.edge_features) for g in graphs]
    outputs = [[] for _ in graphs]
    expert_logits, selected_all, kept_all = [], [], []
    att, exp, imp, lod = [], [], [], []
    for b in range(num_blocks):
        block = f"block{b}"
        thetas = [p[f"{block}.expert{j}.theta_att"] for j in range(m)]
        logits_b = np.zeros((len(graphs), m))
        kept_b = [[] for _ in range(m)]
        selected_b = []
        importance = load = None
        for gi, graph in enumerate(graphs):
            h = states[gi]
            for layer in range(config.num_gnn_layers):
                h = _gin(p, f"{block}.gin{layer}", h, edge_states[gi],
                         graph.edge_index)
            states[gi] = h
            x_hat = ad.reduce_mean(h, axis=0, keepdims=True)
            selected, gates, p_row = _route(
                p, f"{block}.router", x_hat, task_rows[gi], config.k_s,
                config.k_t, None if noise is None else noise[b][gi])
            votes = []
            for j in range(m):
                view, kept = _expert_view(h, graph.edge_index, thetas[j],
                                          config.pool_ratio)
                kept_b[j].extend(int(offsets[gi]) + i for i in kept)
                votes.append(_mlp(view, *(p[f"{block}.expert{j}.{name}"]
                                          for name in ("w1", "b1", "w2", "b2"))))
                logits_b[gi, j] = votes[j].data.item()
            picked = ad.concat([votes[j] for j in selected], axis=1)
            outputs[gi].append(ad.reduce_sum(ad.mul(gates, picked), axis=1,
                                             keepdims=True))
            exp.extend(_bce(votes[j], labels[gi]) for j in selected)
            spread = ad.reshape(ad.scatter_segment_sum(
                ad.reshape(gates, (-1, 1)), np.array(selected), m), (1, m))
            importance = spread if importance is None else ad.add(importance, spread)
            load = p_row if load is None else ad.add(load, p_row)
            selected_b.append(selected)
        att.append(_attention(thetas))
        var, mean = _cv_parts(importance)
        imp.append(ad.div(var, ad.mul(mean, mean)))
        var, mean = _cv_parts(load)
        lod.append(ad.div(ad.sqrt(var), mean))
        expert_logits.append(logits_b)
        selected_all.append(np.array(selected_b))
        kept_all.append([np.array(rows) for rows in kept_b])

    finals, per_layer = [], []
    for gi in range(len(graphs)):
        weights = ad.softmax(ad.add(ad.matmul(task_rows[gi], p["integrator.map_w"]),
                                    p["integrator.bias"]), axis=1)
        layer_logits = ad.concat(outputs[gi], axis=1)
        finals.append(ad.reduce_sum(ad.mul(weights, layer_logits)))
        per_layer.append(layer_logits.data[0])

    def total(terms, on, scale=1.0):
        if not on:
            return _const(0.0)
        out = terms[0]
        for t in terms[1:]:
            out = ad.add(out, t)
        return ad.mul(ad.reduce_sum(out), _const(scale))

    base = total([_bce(f, labels[gi]) for gi, f in enumerate(finals)], True,
                 1.0 / len(graphs))
    loss = {"base": base,
            "att": total(att, toggles.att, 1.0 / num_blocks),
            "exp": total(exp, toggles.exp),
            "imp": total(imp, toggles.imp, 1.0 / num_blocks),
            "lod": total(lod, toggles.lod, 1.0 / num_blocks)}
    collab = ad.add(ad.add(loss["att"], loss["exp"]), ad.add(loss["imp"], loss["lod"]))
    loss["overall"] = ad.add(base, ad.mul(collab, _const(beta)))
    return ReferenceResult(
        loss=loss, logits=np.array([f.data.item() for f in finals]),
        per_layer_logits=np.array(per_layer), expert_logits=expert_logits,
        selected=selected_all, kept=kept_all)
