"""Full predictor: input embeddings, stacked processing blocks, integration.

Each processing block owns a GIN stack, a router, and an expert pool; block
t message-passes over the node states left by block t-1 and emits one logit
per sample. A task-conditioned softmax blends the per-block logits into the
final prediction. Edge embeddings are computed once at the input and reused
by every block (bond features never change).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .encoder import BatchedGraph, EncoderConfig, GinLayer, embed_inputs, encode_from
from .experts import (
    ExpertParams,
    IntegratorParams,
    LayerResult,
    RouterParams,
    integrate_outputs,
    layer_forward,
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
class ProcessingBlock:
    """One encode-route-vote stage."""

    gin_layers: list[GinLayer]
    router: RouterParams
    experts: list[ExpertParams]

    def parameters(self, prefix: str) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for g, layer in enumerate(self.gin_layers):
            for name, t in layer.parameters().items():
                out[f"{prefix}.gin{g}.{name}"] = t
        for name, t in self.router.parameters().items():
            out[f"{prefix}.router.{name}"] = t
        for j, expert in enumerate(self.experts):
            for name, t in expert.parameters().items():
                out[f"{prefix}.expert{j}.{name}"] = t
        return out


@dataclass
class ForwardResult:
    """Batch forward pass: final logits plus per-block diagnostics."""

    logits: Tensor
    per_layer_logits: Tensor
    layer_weights: Tensor
    layers: list[LayerResult] = field(default_factory=list)


@dataclass
class Model:
    config: ModelConfig
    input_tables: EncoderConfig
    blocks: list[ProcessingBlock]
    integrator: IntegratorParams

    @classmethod
    def create(cls, config: ModelConfig, seed: int, dtype=np.float64) -> "Model":
        """Build all parameters from one seeded generator in a fixed order,
        so (config, seed, precision) fully determine the initial state."""
        config.validate()
        rng = np.random.Generator(np.random.PCG64(seed))
        tables = EncoderConfig.create(rng, config.embed_dim, dtype=dtype)
        blocks = []
        for _ in range(config.num_processing_layers):
            gins = [GinLayer.create(rng, config.embed_dim, dtype=dtype)
                    for _ in range(config.num_gnn_layers)]
            router = RouterParams.create(rng, config.embed_dim, config.task_dim,
                                         config.num_experts, config.k_s,
                                         config.k_t, dtype=dtype)
            experts = [ExpertParams.create(rng, config.embed_dim,
                                           config.pool_ratio, dtype=dtype)
                       for _ in range(config.num_experts)]
            blocks.append(ProcessingBlock(gins, router, experts))
        integrator = IntegratorParams.create(rng, config.task_dim,
                                             config.num_processing_layers,
                                             dtype=dtype)
        return cls(config=config, input_tables=tables, blocks=blocks,
                   integrator=integrator)

    def parameters(self) -> dict[str, Tensor]:
        """Stable name -> tensor mapping; the checkpoint format keys off it."""
        out: dict[str, Tensor] = {}
        for name, t in self.input_tables.parameters().items():
            out[f"input.{name}"] = t
        for b, block in enumerate(self.blocks):
            out.update(block.parameters(f"block{b}"))
        for name, t in self.integrator.parameters().items():
            out[f"integrator.{name}"] = t
        return out

    def forward(self, batch: BatchedGraph, tasks: Tensor, noise_on: bool,
                rngs: list[np.random.Generator] | None = None) -> ForwardResult:
        """Run the full pipeline on a block-diagonal batch.

        ``tasks`` is the (batch, task_dim) matrix of task embeddings, one
        row per graph. With noise on, ``rngs`` supplies one generator per
        processing block so routing noise is reproducible per block.
        """
        if noise_on:
            if rngs is None or len(rngs) != len(self.blocks):
                raise ValueError("noise_on forward needs one rng per block")
        nodes, edges = embed_inputs(batch, self.input_tables)
        columns = []
        layer_results = []
        state = nodes
        for b, block in enumerate(self.blocks):
            states = encode_from(state, edges, batch.edge_index, block.gin_layers)
            state = states[-1]
            res = layer_forward(state, batch.edge_index, batch.graph_ids,
                                batch.num_graphs, tasks, block.experts,
                                block.router, noise_on,
                                rngs[b] if noise_on else None)
            columns.append(ad.reshape(res.output, (batch.num_graphs, 1)))
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
    block has its own expert pool); the expert-specific term is a raw sum,
    so it stays a sum across blocks too. Terms switched off in ``toggles``
    are exact zeros.
    """
    y = np.asarray(labels, dtype=model.integrator.bias.dtype)
    base = ad.reduce_mean(bce(result.logits, y))

    def accumulate(pieces):
        total = pieces[0]
        for piece in pieces[1:]:
            total = ad.add(total, piece)
        return total

    zero = Tensor(0.0, dtype=y.dtype)
    scale = Tensor(1.0 / len(model.blocks), dtype=y.dtype)
    if toggles.att:
        att = ad.mul(accumulate([
            attention_cosine_loss([e.theta_att for e in block.experts])
            for block in model.blocks]), scale)
    else:
        att = zero
    if toggles.exp:
        exp = accumulate([
            expert_specific_loss(res.expert_logits, y,
                                 (res.route.gates.data > 0).astype(float))
            for res in result.layers])
    else:
        exp = zero
    if toggles.imp:
        imp = ad.mul(accumulate([importance_loss(res.route.gates)
                                 for res in result.layers]), scale)
    else:
        imp = zero
    if toggles.lod:
        lod = ad.mul(accumulate([load_loss(res.route.p_choose)
                                 for res in result.layers]), scale)
    else:
        lod = zero
    return overall_loss(base, att, exp, imp, lod, beta)
