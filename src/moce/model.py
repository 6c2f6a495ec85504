"""Full predictor: input embeddings, stacked processing blocks, integration.

Each processing block owns a GIN stack, a router, and an expert pool; block
t message-passes over the node states left by block t-1 and emits one logit
per sample. A task-conditioned softmax blends the per-block logits into the
final prediction. Edge embeddings are computed once at the input and reused
by every block (bond features never change).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, fields
from functools import reduce

import numpy as np

from . import autodiff as ad
from .autodiff import Module, Tensor
from .encoder import BatchedGraph, EncoderConfig, GinLayer, embed_inputs, encode_from
from .experts import (
    ExpertParams,
    IntegratorParams,
    LayerResult,
    RouterParams,
    integrate_outputs,
    layer_forward,
    sag_layout,
    validate_k,
)
from .losses import (
    LossBreakdown,
    LossToggles,
    attention_cosine_loss,
    bce,
    expert_specific_loss,
    importance_loss,
    load_loss,
    overall_loss,
)


@dataclass
class ModelConfig:
    """Architecture shape; every count is per processing block."""

    embed_dim: int = 300
    num_gnn_layers: int = 6
    num_processing_layers: int = 2
    num_experts: int = 60
    k_s: int = 4
    k_t: int = 12
    pool_ratio: float = 0.5
    task_dim: int = 64

    def validate(self) -> None:
        validate_k(self.k_s, self.k_t, self.num_experts)
        if self.embed_dim < 1:
            raise ValueError(f"embed_dim must be positive, got {self.embed_dim}")
        if self.num_gnn_layers < 1:
            raise ValueError(
                f"num_gnn_layers must be positive, got {self.num_gnn_layers}")
        if self.num_processing_layers < 1:
            raise ValueError(
                f"num_processing_layers must be positive, got {self.num_processing_layers}")
        if self.task_dim < 1:
            raise ValueError(f"task_dim must be positive, got {self.task_dim}")
        if not 0.0 < self.pool_ratio <= 1.0:
            raise ValueError(
                f"pool_ratio must be in (0, 1], got {self.pool_ratio}")


@dataclass
class ProcessingBlock(Module):
    """One encode-route-vote stage."""

    gin_layers: list[GinLayer] = field(metadata={"key": "gin"})
    router: RouterParams
    experts: list[ExpertParams] = field(metadata={"key": "expert"})


@dataclass
class ForwardResult:
    """Batch forward pass: final logits plus per-block diagnostics."""

    logits: Tensor
    per_layer_logits: Tensor
    layer_weights: Tensor
    layers: list[LayerResult] = field(default_factory=list)


@dataclass
class Model(Module):
    config: ModelConfig
    input_tables: EncoderConfig = field(metadata={"key": "input"})
    blocks: list[ProcessingBlock] = field(metadata={"key": "block"})
    integrator: IntegratorParams

    @classmethod
    def create(cls, config: ModelConfig, seed: int, dtype=np.float64) -> "Model":
        """Build all parameters from one seeded generator in a fixed order,
        so (config, seed, precision) fully determine the initial state. Each
        parameter is drawn in float64 and cast to ``dtype`` once, here, by
        the copy into one ``ad.arena`` buffer (``ad.pack``), in
        ``parameters()`` order; each parameter's ``data`` is a view of that
        buffer."""
        config.validate()
        rng = np.random.Generator(np.random.PCG64(seed))
        tables = EncoderConfig.create(rng, config.embed_dim)
        blocks = []
        for _ in range(config.num_processing_layers):
            gins = [GinLayer.create(rng, config.embed_dim)
                    for _ in range(config.num_gnn_layers)]
            router = RouterParams.create(rng, config.embed_dim, config.task_dim,
                                         config.num_experts, config.k_s,
                                         config.k_t)
            experts = [ExpertParams.create(rng, config.embed_dim)
                       for _ in range(config.num_experts)]
            blocks.append(ProcessingBlock(gins, router, experts))
        integrator = IntegratorParams.create(rng, config.task_dim,
                                             config.num_processing_layers)
        model = cls(config=config, input_tables=tables, blocks=blocks,
                    integrator=integrator)
        ad.pack(list(model.parameters().values()), dtype)
        return model

    def __deepcopy__(self, memo) -> "Model":
        """An independent copy whose parameters are the views of one new
        arena, as ``create`` lays them out: each is copied straight into
        its place there."""
        params = [t.data for t in self.parameters().values()]
        memo.update(zip(map(id, params), ad.arena_copies(params, self.dtype)))
        return type(self)(**{f.name: copy.deepcopy(getattr(self, f.name), memo)
                             for f in fields(self)})

    @property
    def dtype(self):
        """The floating-point type of every parameter, set by ``create``."""
        return self.integrator.bias.dtype

    def forward(self, batch: BatchedGraph, tasks: Tensor, noise_on: bool,
                rngs: list[np.random.Generator] | None = None) -> ForwardResult:
        """Run the full pipeline on a block-diagonal batch.

        ``tasks`` is the (batch, task_dim) matrix of task embeddings, one
        row per graph. With noise on, ``rngs`` supplies one generator per
        processing block so routing noise is reproducible per block. The
        batch's ``sag_layout`` is built once and pools every block.
        """
        if noise_on:
            if rngs is None or len(rngs) != len(self.blocks):
                raise ValueError("noise_on forward needs one rng per block")
        nodes, edges = embed_inputs(batch, self.input_tables)
        layout = sag_layout(batch.offsets, self.config.pool_ratio)
        columns = []
        layer_results = []
        state = nodes
        for b, block in enumerate(self.blocks):
            state = encode_from(state, edges, batch.src, batch.dst,
                                block.gin_layers)
            res = layer_forward(state, batch, tasks, block.experts,
                                block.router, layout,
                                rngs[b] if noise_on else None)
            columns.append(res.output)
            layer_results.append(res)
        per_layer = ad.concat(columns, axis=1)
        logits, weights = integrate_outputs(per_layer, tasks, self.integrator)
        return ForwardResult(logits=logits, per_layer_logits=per_layer,
                             layer_weights=weights, layers=layer_results)

    def attention_vectors(self) -> list[list[Tensor]]:
        return [[e.theta_att for e in block.experts] for block in self.blocks]


def model_loss(model: Model, result: ForwardResult, labels, beta: float,
               toggles: LossToggles = LossToggles()) -> LossBreakdown:
    """Compose the training objective for one forward pass.

    The base term is the mean BCE of the integrated logits. Attention,
    importance, and load terms are averaged over processing blocks (each
    block has its own expert pool); the expert-specific term is a raw sum
    over the pairs in each block's ``route.routed`` mask, so it stays a sum
    across blocks too. Terms switched off in ``toggles`` are exact zeros
    and are never computed.
    """
    y = np.asarray(labels, dtype=model.dtype)
    base = ad.reduce_mean(bce(result.logits, y))
    zero = Tensor(0.0, dtype=y.dtype)
    scale = Tensor(1.0 / len(model.blocks), dtype=y.dtype)

    def term(on, loss, inputs, averaged=True):
        if not on:
            return zero
        total = reduce(ad.add, [loss(x) for x in inputs])
        return ad.mul(total, scale) if averaged else total

    att = term(toggles.att, attention_cosine_loss, model.attention_vectors())
    exp = term(toggles.exp, lambda res: expert_specific_loss(
        res.expert_logits, y, res.route.routed), result.layers, averaged=False)
    imp = term(toggles.imp, lambda res: importance_loss(res.route.gates),
               result.layers)
    lod = term(toggles.lod, lambda res: load_loss(res.route.p_choose),
               result.layers)
    return overall_loss(base, att, exp, imp, lod, beta)
