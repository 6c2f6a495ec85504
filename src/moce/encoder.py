"""GIN message-passing encoder over featurized molecular graphs.

Node and edge integer features are embedded as sums of per-column table
lookups. Each GIN layer aggregates relu(p_w + e_vw) over incoming directed
edges and applies a two-layer MLP to (1 + eps) * p_v + m_v. Batches are
block-diagonal: node matrices are concatenated, each graph owns a
contiguous range of node rows, and a graph-id vector routes per-graph
pooling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Module, Tensor
from .molgraph import EDGE_VOCAB_SIZES, NODE_VOCAB_SIZES, FeaturizedGraph


class EmptyGraph(ValueError):
    """An operation needed at least one node."""


@dataclass
class GinLayer(Module):
    """One GIN update: learnable epsilon and a d->d->d MLP."""

    epsilon: Tensor
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor

    @classmethod
    def create(cls, rng: np.random.Generator, dim: int) -> "GinLayer":
        scale = 1.0 / np.sqrt(dim)
        return cls(
            epsilon=Tensor(np.zeros(()), requires_grad=True),
            w1=Tensor(rng.normal(0.0, scale, size=(dim, dim)), requires_grad=True),
            b1=Tensor(np.zeros(dim), requires_grad=True),
            w2=Tensor(rng.normal(0.0, scale, size=(dim, dim)), requires_grad=True),
            b2=Tensor(np.zeros(dim), requires_grad=True),
        )


@dataclass
class EncoderConfig(Module):
    """Input embedding tables.

    ``node_embed`` holds one (vocab, dim) table per node feature column;
    ``edge_embed`` the same per edge feature column, shared by every GIN
    layer of every block.
    """

    node_embed: list[Tensor]
    edge_embed: list[Tensor]

    @classmethod
    def create(cls, rng: np.random.Generator, embed_dim: int) -> "EncoderConfig":
        scale = 1.0 / np.sqrt(embed_dim)
        node_embed = [
            Tensor(rng.normal(0.0, scale, size=(v, embed_dim)), requires_grad=True)
            for v in NODE_VOCAB_SIZES
        ]
        edge_embed = [
            Tensor(rng.normal(0.0, scale, size=(v, embed_dim)), requires_grad=True)
            for v in EDGE_VOCAB_SIZES
        ]
        return cls(node_embed=node_embed, edge_embed=edge_embed)


@dataclass
class BatchedGraph:
    """Several graphs stacked block-diagonally: graph g owns the contiguous
    node rows ``offsets[g]:offsets[g + 1]``.

    The expert views propagate over A + I: ``prop_src`` and ``prop_dst``
    hold the directed edges followed by one self-loop per node, so a
    node's own term adds last, and ``prop_dinv`` is the (N, 1) float64
    column D̃^-1/2, each node's (in-degree + 1)^-1/2.
    """

    node_features: np.ndarray
    edge_index: np.ndarray
    edge_features: np.ndarray
    graph_ids: np.ndarray
    offsets: np.ndarray
    prop_src: np.ndarray
    prop_dst: np.ndarray
    prop_dinv: np.ndarray
    num_graphs: int
    num_nodes: int


def batch_graphs(graphs: list[FeaturizedGraph]) -> BatchedGraph:
    if not graphs:
        raise EmptyGraph("cannot batch zero graphs")
    node_rows = []
    edge_rows = []
    efeat_rows = []
    ids = []
    offsets = [0]
    for gid, g in enumerate(graphs):
        if g.num_nodes == 0:
            raise EmptyGraph("graph with zero atoms in batch")
        node_rows.append(g.node_features)
        edge_rows.append(g.edge_index + offsets[-1])
        efeat_rows.append(g.edge_features)
        ids.append(np.full(g.num_nodes, gid, dtype=np.int64))
        offsets.append(offsets[-1] + g.num_nodes)
    edge_index = np.concatenate(edge_rows, axis=0)
    num_nodes = offsets[-1]
    loops = np.arange(num_nodes)
    in_degree = np.bincount(edge_index[:, 1], minlength=num_nodes)
    return BatchedGraph(
        node_features=np.concatenate(node_rows, axis=0),
        edge_index=edge_index,
        edge_features=np.concatenate(efeat_rows, axis=0),
        graph_ids=np.concatenate(ids),
        offsets=np.array(offsets, dtype=np.int64),
        prop_src=np.concatenate((edge_index[:, 0], loops)),
        prop_dst=np.concatenate((edge_index[:, 1], loops)),
        prop_dinv=(1.0 / np.sqrt(in_degree + 1.0))[:, None],
        num_graphs=len(graphs),
        num_nodes=num_nodes,
    )


def embed_features(tables: list[Tensor], features: np.ndarray) -> Tensor:
    """Sum per-column table lookups into one (rows, dim) matrix."""
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
    agg = ad.gin_messages(nodes, edges, edge_index[:, 0], edge_index[:, 1])
    scaled = ad.mul(nodes, ad.add(layer.epsilon, Tensor(np.ones((), dtype=nodes.dtype))))
    h = ad.add(scaled, agg)
    hidden = ad.dense(h, layer.w1, layer.b1, relu=True)
    return ad.dense(hidden, layer.w2, layer.b2)


def encode_from(nodes: Tensor, edges: Tensor, edge_index: np.ndarray,
                layers: list[GinLayer]) -> Tensor:
    """Run the GIN stack from an embedded node matrix; returns the node
    matrix after the last layer."""
    for layer in layers:
        nodes = gin_forward(layer, nodes, edges, edge_index)
    return nodes


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
