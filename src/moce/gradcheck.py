"""Finite-difference verification of the whole differentiable stack.

Each check builds a small deterministic problem, runs one reverse pass,
and compares every tape gradient against central differences. Elementwise
and structural operations are checked coordinate by coordinate; the
encoder and the full model are checked on a random sample of coordinates
per parameter tensor, which keeps the complete suite fast while still
touching every parameter family. Inputs are drawn away from the kinks of
non-smooth operations (relu at zero, top-k selection boundaries) so the
comparison is meaningful.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import FdReport, Tensor, finite_diff_check
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


def _check_unary(rng, op, positive=False, away_from_zero=False) -> FdReport:
    data = rng.uniform(0.3, 1.8, size=(3, 4))
    if not positive:
        signs = np.where(rng.uniform(size=data.shape) < 0.5, -1.0, 1.0)
        data = data * signs
    if away_from_zero:
        data = np.where(np.abs(data) < 0.2, 0.2, data)
    x = Tensor(data, requires_grad=True)
    return finite_diff_check(lambda t: _sq_sum(op(t)), [x])


def _check_binary(rng, op, shapes, positive_b=False) -> FdReport:
    a = _param(rng, shapes[0])
    b_data = rng.uniform(0.5, 2.0, size=shapes[1])
    if not positive_b:
        b_data = b_data * np.where(rng.uniform(size=shapes[1]) < 0.5, -1.0, 1.0)
        b_data = np.where(np.abs(b_data) < 0.4, 0.6, b_data)
    b = Tensor(b_data, requires_grad=True)
    return finite_diff_check(lambda u, v: _sq_sum(op(u, v)), [a, b])


def _check_matmul(rng) -> FdReport:
    a = _param(rng, (3, 4))
    b = _param(rng, (4, 2))
    return finite_diff_check(lambda u, v: _sq_sum(ad.matmul(u, v)), [a, b])


def _check_softmax(rng) -> FdReport:
    x = _param(rng, (3, 5))
    w = Tensor(rng.uniform(0.5, 1.5, size=(3, 5)))
    return finite_diff_check(
        lambda t: ad.reduce_sum(ad.mul(ad.softmax(t, axis=-1), w)), [x])


def _check_masked_softmax(rng) -> FdReport:
    x = _param(rng, (3, 5))
    keep = rng.uniform(size=(3, 5)) < 0.7
    keep[:, 0] = True
    w = Tensor(rng.uniform(0.5, 1.5, size=(3, 5)))

    def f(t):
        masked = ad.mask_fill(t, keep, ad.neg_inf())
        return ad.reduce_sum(ad.mul(ad.softmax(masked, axis=-1), w))

    return finite_diff_check(f, [x])


def _check_reductions(rng) -> FdReport:
    base = rng.uniform(-2.0, 2.0, size=12)
    # distinct values keep reduce_max away from tie subgradients
    spread = np.sort(base) + 0.05 * np.arange(12)
    x = Tensor(rng.permutation(spread).reshape(3, 4), requires_grad=True)

    def f(t):
        a = ad.reduce_sum(t, axis=0)
        b = ad.reduce_mean(t, axis=1, keepdims=True)
        c = ad.reduce_max(t, axis=1)
        return ad.add(ad.add(_sq_sum(a), _sq_sum(b)), _sq_sum(c))

    return finite_diff_check(f, [x])


def _check_structure(rng) -> FdReport:
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

    return finite_diff_check(f, [x, y])


def _check_bce(rng) -> FdReport:
    z = _param(rng, (6,), low=-2.0, high=2.0)
    y = (rng.uniform(size=6) < 0.5).astype(np.float64)
    return finite_diff_check(lambda t: ad.reduce_sum(bce(t, y)), [z])


def _check_attention_loss(rng) -> FdReport:
    thetas = [_param(rng, (4, 1), low=0.5, high=1.5) for _ in range(3)]
    return finite_diff_check(lambda *ts: attention_cosine_loss(list(ts)), thetas)


def _check_expert_loss(rng) -> FdReport:
    logits = _param(rng, (4, 3))
    labels = (rng.uniform(size=4) < 0.5).astype(np.float64)
    assignment = (rng.uniform(size=(4, 3)) < 0.5).astype(np.float64)
    assignment[0, 0] = 1.0
    return finite_diff_check(
        lambda t: expert_specific_loss(t, labels, assignment), [logits])


def _check_balance_losses(rng) -> FdReport:
    x = _param(rng, (5, 4))

    def f(t):
        gates = ad.softmax(t, axis=-1)
        probs = ad.sigmoid(t)
        return ad.add(importance_loss(gates), load_loss(probs))

    return finite_diff_check(f, [x])


def _check_routing(rng) -> FdReport:
    m, d, td = 5, 4, 3
    router = RouterParams.create(rng, d, td, num_experts=m, k_s=2, k_t=3)
    x = _param(rng, (3, d))
    t = _param(rng, (3, td))
    inputs = [x, t, router.w_mu1, router.w_mu2, router.w_sigma1,
              router.w_sigma2]

    def f(*unused):
        rb = route_batch(x, t, router, noise_on=False)
        part = ad.add(importance_loss(rb.gates), load_loss(rb.p_choose))
        return ad.add(part, _sq_sum(rb.gates))

    return finite_diff_check(f, inputs)


def _check_sag(rng) -> FdReport:
    expert = ExpertParams.create(rng, dim=3, pool_ratio=0.5)
    nodes = _param(rng, (5, 3))
    edge_index = np.array([[0, 1], [1, 0], [1, 2], [2, 1], [3, 4], [4, 3]])
    graph_ids = np.array([0, 0, 0, 1, 1])
    inputs = [nodes, expert.theta_att]

    def f(*unused):
        pooled = sag_project_batch(nodes, edge_index, graph_ids, 2, expert)
        return _sq_sum(pooled)

    return finite_diff_check(f, inputs)


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


def _check_encoder(rng) -> FdReport:
    batch = _tiny_batch()
    cfg = EncoderConfig.create(rng, embed_dim=3)
    gins = [GinLayer.create(rng, 3) for _ in range(2)]
    inputs = list(cfg.parameters().values())
    for layer in gins:
        inputs.extend(layer.parameters().values())
    readout = Tensor(rng.uniform(0.5, 1.5, size=(3, 3)))

    def f(*unused):
        nodes, edges = embed_inputs(batch, cfg)
        states = encode_from(nodes, edges, batch.edge_index, gins)
        pooled = segment_mean_pool(states[-1], batch.graph_ids, 3)
        return ad.reduce_sum(ad.mul(pooled, readout))

    return finite_diff_check(f, inputs, per_tensor=4, rng=rng)


def _check_full_model(rng) -> FdReport:
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

    return finite_diff_check(f, inputs, per_tensor=3, rng=rng)


def run_all(seed: int = 0, rel_tol: float = DEFAULT_TOL) -> list[CheckResult]:
    """Run every gradient check; returns one result row per family."""
    rng = np.random.Generator(np.random.PCG64(seed))
    checks = [
        ("relu", lambda: _check_unary(rng, ad.relu, away_from_zero=True)),
        ("tanh", lambda: _check_unary(rng, ad.tanh)),
        ("sigmoid", lambda: _check_unary(rng, ad.sigmoid)),
        ("softplus", lambda: _check_unary(rng, ad.softplus)),
        ("exp", lambda: _check_unary(rng, ad.exp)),
        ("log", lambda: _check_unary(rng, ad.log, positive=True)),
        ("sqrt", lambda: _check_unary(rng, ad.sqrt, positive=True)),
        ("normal_cdf", lambda: _check_unary(rng, ad.normal_cdf)),
        ("negate", lambda: _check_unary(rng, ad.negate)),
        ("add-broadcast", lambda: _check_binary(rng, ad.add, ((3, 4), (4,)))),
        ("sub", lambda: _check_binary(rng, ad.sub, ((3, 4), (3, 4)))),
        ("mul-broadcast", lambda: _check_binary(rng, ad.mul, ((3, 1), (3, 4)))),
        ("div", lambda: _check_binary(rng, ad.div, ((3, 4), (4,)))),
        ("matmul", lambda: _check_matmul(rng)),
        ("softmax", lambda: _check_softmax(rng)),
        ("masked-softmax", lambda: _check_masked_softmax(rng)),
        ("reductions", lambda: _check_reductions(rng)),
        ("structure-ops", lambda: _check_structure(rng)),
        ("bce", lambda: _check_bce(rng)),
        ("attention-loss", lambda: _check_attention_loss(rng)),
        ("expert-loss", lambda: _check_expert_loss(rng)),
        ("balance-losses", lambda: _check_balance_losses(rng)),
        ("routing", lambda: _check_routing(rng)),
        ("sag-projection", lambda: _check_sag(rng)),
        ("encoder", lambda: _check_encoder(rng)),
        ("full-model", lambda: _check_full_model(rng)),
    ]
    results = []
    for name, runner in checks:
        start = time.perf_counter()
        report = runner()
        elapsed = time.perf_counter() - start
        report.passed = report.max_rel_error <= rel_tol
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
