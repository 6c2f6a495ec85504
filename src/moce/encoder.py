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

    The index vectors are ``ad.Index`` plans, checked once here and shared
    by every gather and scatter of the batch: ``src`` and ``dst`` are the
    directed edges, aligned with the rows of ``edge_features``, and
    ``graph_ids`` each node's graph. The expert views propagate over
    A + I: ``prop_src`` and ``prop_dst`` hold the directed edges followed
    by one self-loop per node, so a node's own term adds last, and
    ``prop_dinv`` is the (N, 1) float64 column D̃^-1/2, each node's
    (in-degree + 1)^-1/2.
    """

    node_features: np.ndarray
    edge_features: np.ndarray
    src: ad.Index
    dst: ad.Index
    graph_ids: ad.Index
    offsets: np.ndarray
    prop_src: ad.Index
    prop_dst: ad.Index
    prop_dinv: np.ndarray
    num_graphs: int
    num_nodes: int


def batch_graphs(graphs: list[FeaturizedGraph]) -> BatchedGraph:
    """Stack ``graphs`` into one batch. Each graph's edges must join its
    own atoms: an endpoint outside [0, num_nodes) of its graph raises
    IndexOutOfRange naming the graph."""
    if not graphs:
        raise EmptyGraph("cannot batch zero graphs")
    sizes = np.array([g.num_nodes for g in graphs], dtype=np.int64)
    if not sizes.all():
        raise EmptyGraph("graph with zero atoms in batch")
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    edge_graph = np.repeat(np.arange(len(graphs)),
                           [len(g.edge_index) for g in graphs])
    local = np.concatenate([g.edge_index for g in graphs], axis=0)
    outside = ((local < 0) | (local >= sizes[edge_graph, None])).any(axis=1)
    if outside.any():
        gid = edge_graph[outside.argmax()]
        raise ad.IndexOutOfRange(
            f"graph {gid}: edge endpoint outside [0, {sizes[gid]})")
    edge_index = local + offsets[edge_graph, None]
    num_nodes = int(offsets[-1])
    loops = np.arange(num_nodes)
    src, dst = edge_index[:, 0], edge_index[:, 1]
    return BatchedGraph(
        node_features=np.concatenate([g.node_features for g in graphs], axis=0),
        edge_features=np.concatenate([g.edge_features for g in graphs], axis=0),
        src=ad.Index(src, num_nodes, "row index"),
        dst=ad.Index(dst, num_nodes, "segment id"),
        graph_ids=ad.Index(np.repeat(np.arange(len(graphs)), sizes),
                           len(graphs), "segment id"),
        offsets=offsets,
        prop_src=ad.Index(np.concatenate((src, loops)), num_nodes, "row index"),
        prop_dst=ad.Index(np.concatenate((dst, loops)), num_nodes, "segment id"),
        prop_dinv=(1.0 / np.sqrt(np.bincount(dst, minlength=num_nodes)
                                 + 1.0))[:, None],
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


def gin_forward(layer: GinLayer, nodes: Tensor, edges: Tensor, src,
                dst) -> Tensor:
    """One GIN update on a node matrix.

    Directed edge i runs from node ``src[i]`` to node ``dst[i]`` (index
    vectors or ``ad.Index`` plans) and has the feature row ``edges[i]``;
    both directions of every bond must be present for symmetric message
    passing.
    """
    agg = ad.gin_messages(nodes, edges, src, dst)
    scaled = ad.mul(nodes, ad.add(layer.epsilon, Tensor(np.ones((), dtype=nodes.dtype))))
    h = ad.add(scaled, agg)
    hidden = ad.dense(h, layer.w1, layer.b1, relu=True)
    return ad.dense(hidden, layer.w2, layer.b2)


def encode_from(nodes: Tensor, edges: Tensor, src, dst,
                layers: list[GinLayer]) -> Tensor:
    """Run the GIN stack from an embedded node matrix; returns the node
    matrix after the last layer."""
    for layer in layers:
        nodes = gin_forward(layer, nodes, edges, src, dst)
    return nodes


def segment_mean_pool(nodes: Tensor, graph_ids, num_graphs: int) -> Tensor:
    """Per-graph mean readout over a block-diagonal batch: (B, dim).
    ``graph_ids`` is each node's graph, a vector or an ``ad.Index``; an
    Index keeps the per-graph counts for the batch's next readout."""
    if nodes.shape[0] == 0:
        raise EmptyGraph("mean pool over zero nodes")
    ids = ad.Index.of(graph_ids, num_graphs, "segment id")
    sums = ad.scatter_segment_sum(nodes, ids, num_graphs)
    counts = ids.counts()
    if not counts.all():
        raise EmptyGraph("a graph in the batch has zero nodes")
    return ad.div(sums, Tensor(counts.astype(nodes.dtype)[:, None]))
