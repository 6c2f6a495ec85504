"""GIN message-passing encoder over featurized molecular graphs.

Node and edge integer features are embedded as sums of per-column table
lookups. Each GIN layer aggregates relu(p_w + e_vw) over incoming directed
edges and applies a two-layer MLP to (1 + eps) * p_v + m_v. Batches are
block-diagonal: node matrices are concatenated and a graph-id vector routes
per-graph pooling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .molgraph import EDGE_VOCAB_SIZES, NODE_VOCAB_SIZES, FeaturizedGraph


class EmptyGraph(ValueError):
    """An operation needed at least one node."""


@dataclass
class GinLayer:
    """One GIN update: learnable epsilon and a d->d->d MLP."""

    epsilon: Tensor
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor

    @classmethod
    def create(cls, rng: np.random.Generator, dim: int, dtype=np.float64) -> "GinLayer":
        scale = 1.0 / np.sqrt(dim)
        return cls(
            epsilon=Tensor(np.zeros(()), requires_grad=True, dtype=dtype),
            w1=Tensor(rng.normal(0.0, scale, size=(dim, dim)), requires_grad=True, dtype=dtype),
            b1=Tensor(np.zeros(dim), requires_grad=True, dtype=dtype),
            w2=Tensor(rng.normal(0.0, scale, size=(dim, dim)), requires_grad=True, dtype=dtype),
            b2=Tensor(np.zeros(dim), requires_grad=True, dtype=dtype),
        )

    def parameters(self) -> dict[str, Tensor]:
        return {"epsilon": self.epsilon, "w1": self.w1, "b1": self.b1,
                "w2": self.w2, "b2": self.b2}


@dataclass
class EncoderConfig:
    """Embedding tables and stack shape for one encoder block.

    ``node_embed`` holds one (vocab, dim) table per node feature column;
    ``edge_embed`` the same per edge feature column, shared by every GIN
    layer of the stack.
    """

    num_gnn_layers: int
    embed_dim: int
    node_embed: list[Tensor] = field(default_factory=list)
    edge_embed: list[Tensor] = field(default_factory=list)

    @classmethod
    def create(cls, rng: np.random.Generator, embed_dim: int,
               num_gnn_layers: int, dtype=np.float64) -> "EncoderConfig":
        scale = 1.0 / np.sqrt(embed_dim)
        node_embed = [
            Tensor(rng.normal(0.0, scale, size=(v, embed_dim)),
                   requires_grad=True, dtype=dtype)
            for v in NODE_VOCAB_SIZES
        ]
        edge_embed = [
            Tensor(rng.normal(0.0, scale, size=(v, embed_dim)),
                   requires_grad=True, dtype=dtype)
            for v in EDGE_VOCAB_SIZES
        ]
        return cls(num_gnn_layers=num_gnn_layers, embed_dim=embed_dim,
                   node_embed=node_embed, edge_embed=edge_embed)

    def parameters(self) -> dict[str, Tensor]:
        out = {}
        for i, t in enumerate(self.node_embed):
            out[f"node_embed.{i}"] = t
        for i, t in enumerate(self.edge_embed):
            out[f"edge_embed.{i}"] = t
        return out


@dataclass
class BatchedGraph:
    """Several graphs stacked block-diagonally."""

    node_features: np.ndarray
    edge_index: np.ndarray
    edge_features: np.ndarray
    graph_ids: np.ndarray
    num_graphs: int
    num_nodes: int


def batch_graphs(graphs: list[FeaturizedGraph]) -> BatchedGraph:
    if not graphs:
        raise EmptyGraph("cannot batch zero graphs")
    node_rows = []
    edge_rows = []
    efeat_rows = []
    ids = []
    offset = 0
    for gid, g in enumerate(graphs):
        if g.num_nodes == 0:
            raise EmptyGraph("graph with zero atoms in batch")
        node_rows.append(g.node_features)
        edge_rows.append(g.edge_index + offset)
        efeat_rows.append(g.edge_features)
        ids.append(np.full(g.num_nodes, gid, dtype=np.int64))
        offset += g.num_nodes
    return BatchedGraph(
        node_features=np.concatenate(node_rows, axis=0),
        edge_index=np.concatenate(edge_rows, axis=0) if edge_rows else np.zeros((0, 2), np.int64),
        edge_features=np.concatenate(efeat_rows, axis=0),
        graph_ids=np.concatenate(ids),
        num_graphs=len(graphs),
        num_nodes=offset,
    )


def embed_features(tables: list[Tensor], features: np.ndarray) -> Tensor:
    """Sum per-column table lookups into one (rows, dim) matrix."""
    dim = tables[0].shape[1]
    if features.shape[0] == 0:
        return Tensor(np.zeros((0, dim), dtype=tables[0].dtype))
    out = ad.gather_rows(tables[0], features[:, 0])
    for col in range(1, len(tables)):
        out = ad.add(out, ad.gather_rows(tables[col], features[:, col]))
    return out


def embed_inputs(g, cfg: EncoderConfig) -> tuple[Tensor, Tensor]:
    """Embed node and edge integer features of a (batched) graph."""
    if g.num_nodes == 0:
        raise EmptyGraph("graph has no atoms")
    nodes = embed_features(cfg.node_embed, g.node_features)
    edges = embed_features(cfg.edge_embed, g.edge_features)
    return nodes, edges


def gin_forward(layer: GinLayer, nodes: Tensor, edges: Tensor,
                edge_index: np.ndarray) -> Tensor:
    """One GIN update on a node matrix.

    ``edge_index`` rows are directed (source, destination) pairs aligned
    with the rows of ``edges``; both directions of every bond must be
    present for symmetric message passing.
    """
    n = nodes.shape[0]
    if edge_index.shape[0] > 0:
        src = edge_index[:, 0]
        dst = edge_index[:, 1]
        messages = ad.relu(ad.add(ad.gather_rows(nodes, src), edges))
        agg = ad.scatter_segment_sum(messages, dst, n)
    else:
        agg = Tensor(np.zeros_like(nodes.data))
    scaled = ad.mul(nodes, ad.add(layer.epsilon, Tensor(np.ones((), dtype=nodes.dtype))))
    h = ad.add(scaled, agg)
    hidden = ad.relu(ad.add(ad.matmul(h, layer.w1), layer.b1))
    return ad.add(ad.matmul(hidden, layer.w2), layer.b2)


def encode_from(nodes: Tensor, edges: Tensor, edge_index: np.ndarray,
                layers: list[GinLayer]) -> list[Tensor]:
    """Run the GIN stack from an embedded node matrix; returns the node
    matrix after every layer."""
    out = []
    for layer in layers:
        nodes = gin_forward(layer, nodes, edges, edge_index)
        out.append(nodes)
    return out


def segment_mean_pool(nodes: Tensor, graph_ids: np.ndarray,
                      num_graphs: int) -> Tensor:
    """Per-graph mean readout over a block-diagonal batch: (B, dim)."""
    if nodes.shape[0] == 0:
        raise EmptyGraph("mean pool over zero nodes")
    sums = ad.scatter_segment_sum(nodes, graph_ids, num_graphs)
    counts = np.bincount(graph_ids, minlength=num_graphs).astype(nodes.dtype)
    if np.any(counts == 0):
        raise EmptyGraph("a graph in the batch has zero nodes")
    return ad.div(sums, Tensor(counts[:, None]))
