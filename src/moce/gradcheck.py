"""Finite-difference verification of the whole differentiable stack.

Each check builds a small deterministic problem, ``(f, inputs)`` or, for
a sampled check, ``(f, inputs, coordinates per tensor)``; the suite runs
one reverse pass on it and compares every tape gradient against central
differences at the suite's tolerance. Elementwise and structural
operations are checked coordinate by coordinate; the encoder and the full
model are checked on a random sample of coordinates per parameter
tensor, which keeps the complete suite fast while still touching every
parameter family. Inputs are drawn away from the kinks of
non-smooth operations (relu at zero, top-k selection boundaries) so the
comparison is meaningful.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import FdReport, Tensor, check_rel_tol, finite_diff_check
from .encoder import (EncoderConfig, GinLayer, batch_graphs, embed_inputs,
                      encode_from, segment_mean_pool)
from .experts import ExpertParams, RouterParams, route_batch, sag_project_batch
from .losses import (attention_cosine_loss, bce, expert_specific_loss,
                     importance_loss, load_loss)
from .model import Model, ModelConfig, model_loss
from .molgraph import featurize, parse_smiles

DEFAULT_TOL = 1e-4


@dataclass
class CheckResult:
    name: str
    report: FdReport
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.report.passed else "FAIL"
        return (f"{status}  {self.name:<24s} {self.report.coordinates_checked:>5d} "
                f"coords  max rel err {self.report.max_rel_error:.3e}  "
                f"({self.seconds:.2f}s)")


def _param(rng, shape, low=-1.5, high=1.5) -> Tensor:
    return Tensor(rng.uniform(low, high, size=shape), requires_grad=True)


def _sq_sum(t: Tensor) -> Tensor:
    return ad.reduce_sum(ad.mul(t, t))


def _check_unary(rng, op, positive=False, away_from_zero=False) -> tuple:
    data = rng.uniform(0.3, 1.8, size=(3, 4))
    if not positive:
        signs = np.where(rng.uniform(size=data.shape) < 0.5, -1.0, 1.0)
        data = data * signs
    if away_from_zero:
        data = np.where(np.abs(data) < 0.2, 0.2, data)
    x = Tensor(data, requires_grad=True)
    return (lambda t: _sq_sum(op(t))), [x]


def _check_binary(rng, op, shapes, positive_b=False) -> tuple:
    a = _param(rng, shapes[0])
    b_data = rng.uniform(0.5, 2.0, size=shapes[1])
    if not positive_b:
        b_data = b_data * np.where(rng.uniform(size=shapes[1]) < 0.5, -1.0, 1.0)
        b_data = np.where(np.abs(b_data) < 0.4, 0.6, b_data)
    b = Tensor(b_data, requires_grad=True)
    return (lambda u, v: _sq_sum(op(u, v))), [a, b]


def _check_matmul(rng) -> tuple:
    a = _param(rng, (3, 4))
    b = _param(rng, (4, 2))
    return (lambda u, v: _sq_sum(ad.matmul(u, v))), [a, b]


def _check_softmax(rng) -> tuple:
    x = _param(rng, (3, 5))
    w = Tensor(rng.uniform(0.5, 1.5, size=(3, 5)))
    return (lambda t: ad.reduce_sum(ad.mul(ad.softmax(t, axis=-1), w))), [x]


def _check_masked_softmax(rng) -> tuple:
    x = _param(rng, (3, 5))
    keep = rng.uniform(size=(3, 5)) < 0.7
    keep[:, 0] = True
    w = Tensor(rng.uniform(0.5, 1.5, size=(3, 5)))

    def f(t):
        masked = ad.mask_fill(t, keep, ad.neg_inf())
        return ad.reduce_sum(ad.mul(ad.softmax(masked, axis=-1), w))

    return f, [x]


def _check_reductions(rng) -> tuple:
    x = _param(rng, (3, 4), low=-2.0, high=2.0)

    def f(t):
        a = ad.reduce_sum(t, axis=0)
        b = ad.reduce_mean(t, axis=1, keepdims=True)
        return ad.add(_sq_sum(a), _sq_sum(b))

    return f, [x]


def _check_structure(rng) -> tuple:
    x = _param(rng, (4, 3))
    y = _param(rng, (2, 3))
    rows = np.array([0, 2, 2, 3, 1])
    cols = np.array([[0], [2], [1], [0]])
    seg = np.array([0, 0, 1, 2])

    def f(u, v):
        stacked = ad.concat([u, v], axis=0)
        flat = ad.reshape(stacked, (2, 9))
        picked = ad.gather_rows(u, rows)
        col = ad.gather_cols(u, cols)
        summed = ad.scatter_segment_sum(picked, np.array([0, 1, 1, 0, 2]), 3)
        pooled = segment_mean_pool(u, seg, 3)
        total = ad.add(_sq_sum(flat), _sq_sum(col))
        total = ad.add(total, _sq_sum(summed))
        return ad.add(total, _sq_sum(pooled))

    return f, [x, y]


def _check_pool_rows(rng) -> tuple:
    x = _param(rng, (8, 3))
    scores = _param(rng, (8, 1))
    # segment 2 keeps no row; rows 1 and 4 are dropped; segment 4 keeps
    # rows 6 and 7, but the loss does not read it
    weights = np.array([0.5, 0.0, 1.0, 0.5, 0.0, 1.0, 0.5, 0.5])
    ids = np.array([1, 3, 0, 1, 2, 3, 4, 4])
    read = np.arange(4)
    return ((lambda u, s: _sq_sum(ad.gather_rows(
                ad.pool_rows(u, s, weights, ids, 5), read))),
            [x, scores])


def _check_gin_messages(rng) -> tuple:
    nodes, edges = _param(rng, (4, 3)), _param(rng, (5, 3))
    src, dst = np.array([0, 1, 2, 3, 3]), np.array([1, 0, 1, 2, 1])
    pre = nodes.data[src] + edges.data  # keep each message 0.2 off the kink
    edges.data += np.where(np.abs(pre) < 0.2, np.copysign(0.2, pre), 0.0)
    return (lambda u, e: _sq_sum(ad.gin_messages(u, e, src, dst))), [nodes, edges]


def _check_sag_scores(rng) -> tuple:
    # edges 0-1 and 1-2 both ways, then the self-loops; the loss reads the
    # scores of nodes 0 and 3, which no row of node 2 reaches, so theta's
    # gradient sums over the other rows only
    src = np.array([0, 1, 1, 2, 0, 1, 2, 3])
    dst = np.array([1, 0, 2, 1, 0, 1, 2, 3])
    dinv = 1.0 / np.sqrt(np.bincount(dst)[:, None])
    read = np.array([0, 3])
    return ((lambda x, t: _sq_sum(ad.gather_rows(
                ad.sag_scores(x, t, dinv, src, dst), read))),
            [_param(rng, (4, 3)), _param(rng, (3, 1))])


def _check_dense(rng) -> tuple:
    # the loss reads rows 0, 2 and 3, so the backward reads only those
    read = np.array([0, 2, 3])

    def f(x, w, b):
        return ad.add(_sq_sum(ad.gather_rows(ad.dense(x, w, b, relu=True), read)),
                      _sq_sum(ad.gather_rows(ad.dense(x, w, b), read)))

    return f, [_param(rng, (5, 4)), _param(rng, (4, 2)), _param(rng, (2,))]


def _check_bce(rng) -> tuple:
    z = _param(rng, (6,), low=-2.0, high=2.0)
    y = (rng.uniform(size=6) < 0.5).astype(np.float64)
    return (lambda t: ad.reduce_sum(bce(t, y))), [z]


def _check_attention_loss(rng) -> tuple:
    thetas = [_param(rng, (4, 1), low=0.5, high=1.5) for _ in range(3)]
    return (lambda *ts: attention_cosine_loss(list(ts))), thetas


def _check_expert_loss(rng) -> tuple:
    logits = _param(rng, (4, 3))
    labels = (rng.uniform(size=4) < 0.5).astype(np.float64)
    assignment = (rng.uniform(size=(4, 3)) < 0.5).astype(np.float64)
    assignment[0, 0] = 1.0
    return (lambda t: expert_specific_loss(t, labels, assignment)), [logits]


def _check_balance_losses(rng) -> tuple:
    x = _param(rng, (5, 4))

    def f(t):
        gates = ad.softmax(t, axis=-1)
        probs = ad.normal_cdf(t)
        return ad.add(importance_loss(gates), load_loss(probs))

    return f, [x]


def _check_routing(rng) -> tuple:
    m, d, td = 5, 4, 3
    router = RouterParams.create(rng, d, td, num_experts=m, k_s=2, k_t=3)
    x = _param(rng, (3, d))
    t = _param(rng, (3, td))
    inputs = [x, t, router.w_mu1, router.w_mu2, router.w_sigma1,
              router.w_sigma2]

    def f(*unused):
        rb = route_batch(x, t, router)
        part = ad.add(importance_loss(rb.gates), load_loss(rb.p_choose))
        return ad.add(part, _sq_sum(rb.gates))

    return f, inputs


def _check_sag(rng) -> tuple:
    expert = ExpertParams.create(rng, dim=3)
    nodes = _param(rng, (5, 3))
    # edges 0-1, 1-2 and 3-4, each in both directions
    batch = batch_graphs([featurize(parse_smiles(s)) for s in ("CCC", "CC")])
    inputs = [nodes, expert.theta_att]

    def f(*unused):
        pooled = sag_project_batch(nodes, batch, expert, 0.5)
        return _sq_sum(pooled)

    return f, inputs


def _tiny_batch():
    graphs = [featurize(parse_smiles(s)) for s in ("CCO", "C=O", "CC(N)C")]
    return batch_graphs(graphs)


def _jitter(tensors, rng, scale=0.05):
    """Move every parameter to a generic point: zero-initialized biases sit
    exactly on the relu kink, where finite differences are meaningless."""
    for t in tensors:
        offset = rng.uniform(0.02, scale, size=t.data.shape)
        sign = np.where(rng.uniform(size=t.data.shape) < 0.5, -1.0, 1.0)
        t.data += offset * sign


def _check_encoder(rng) -> tuple:
    batch = _tiny_batch()
    cfg = EncoderConfig.create(rng, embed_dim=3)
    gins = [GinLayer.create(rng, 3) for _ in range(2)]
    inputs = list(cfg.parameters().values())
    for layer in gins:
        inputs.extend(layer.parameters().values())
    _jitter(inputs, rng)
    readout = Tensor(rng.uniform(0.5, 1.5, size=(3, 3)))

    def f(*unused):
        nodes, edges = embed_inputs(batch, cfg)
        final = encode_from(nodes, edges, batch.edge_index, gins)
        pooled = segment_mean_pool(final, batch.graph_ids, 3)
        return ad.reduce_sum(ad.mul(pooled, readout))

    return f, inputs, 4


def _check_full_model(rng) -> tuple:
    batch = _tiny_batch()
    config = ModelConfig(embed_dim=3, num_gnn_layers=1,
                         num_processing_layers=2, num_experts=3, k_s=2,
                         k_t=3, pool_ratio=0.5, task_dim=4)
    model = Model.create(config, seed=21)
    tasks = Tensor(rng.uniform(-1.0, 1.0, size=(3, 4)))
    labels = np.array([1.0, 0.0, 1.0])
    inputs = list(model.parameters().values())
    _jitter(inputs, rng)

    def f(*unused):
        result = model.forward(batch, tasks, noise_on=False)
        return model_loss(model, result, labels, beta=0.5).overall

    return f, inputs, 3


def _run_check(problem: tuple, rng: np.random.Generator,
               rel_tol: float = DEFAULT_TOL) -> FdReport:
    """Run one check's problem; a sampled check draws its coordinates from
    ``rng``, the generator that built it."""
    f, inputs, *per_tensor = problem
    return finite_diff_check(f, inputs, rel_tol=rel_tol,
                             per_tensor=per_tensor[0] if per_tensor else None,
                             rng=rng)


def _row_rng(seed: int, name: str) -> np.random.Generator:
    """The generator that row ``name`` of ``run_all(seed)`` draws from."""
    return np.random.Generator(np.random.PCG64([seed, zlib.crc32(name.encode())]))


def run_all(seed: int = 0, rel_tol: float = DEFAULT_TOL) -> list[CheckResult]:
    """Run every gradient check; returns one result row per family.

    Each row draws from its own generator keyed on (seed, crc32 of the row
    name), so adding or removing a row leaves every other row's inputs as
    they were. ``rel_tol`` must be a finite positive number.
    """
    check_rel_tol(rel_tol)
    checks = [
        ("relu", lambda rng: _check_unary(rng, ad.relu, away_from_zero=True)),
        ("tanh", lambda rng: _check_unary(rng, ad.tanh)),
        ("softplus", lambda rng: _check_unary(rng, ad.softplus)),
        ("sqrt", lambda rng: _check_unary(rng, ad.sqrt, positive=True)),
        ("normal_cdf", lambda rng: _check_unary(rng, ad.normal_cdf)),
        ("add-broadcast", lambda rng: _check_binary(rng, ad.add, ((3, 4), (4,)))),
        ("sub", lambda rng: _check_binary(rng, ad.sub, ((3, 4), (3, 4)))),
        ("mul-broadcast", lambda rng: _check_binary(rng, ad.mul, ((3, 1), (3, 4)))),
        ("div", lambda rng: _check_binary(rng, ad.div, ((3, 4), (4,)))),
        ("matmul", _check_matmul),
        ("softmax", _check_softmax),
        ("masked-softmax", _check_masked_softmax),
        ("reductions", _check_reductions),
        ("structure-ops", _check_structure),
        ("pool-rows", _check_pool_rows),
        ("gin-messages", _check_gin_messages),
        ("sag-scores", _check_sag_scores),
        ("dense", _check_dense),
        ("bce", _check_bce),
        ("attention-loss", _check_attention_loss),
        ("expert-loss", _check_expert_loss),
        ("balance-losses", _check_balance_losses),
        ("routing", _check_routing),
        ("sag-projection", _check_sag),
        ("encoder", _check_encoder),
        ("full-model", _check_full_model),
    ]
    results = []
    for name, build in checks:
        rng = _row_rng(seed, name)
        start = time.perf_counter()
        report = _run_check(build(rng), rng, rel_tol)
        elapsed = time.perf_counter() - start
        results.append(CheckResult(name, report, elapsed))
    return results


def all_passed(results: list[CheckResult]) -> bool:
    return all(r.report.passed for r in results)


def format_results(results: list[CheckResult]) -> str:
    lines = [r.line() for r in results]
    total = sum(r.seconds for r in results)
    bad = [r.name for r in results if not r.report.passed]
    if bad:
        lines.append(f"FAILED: {', '.join(bad)} ({total:.2f}s total)")
    else:
        lines.append(f"all {len(results)} checks passed ({total:.2f}s total)")
    return "\n".join(lines)
