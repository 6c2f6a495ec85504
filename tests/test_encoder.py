"""GIN encoder: embedding lookups, message passing, pooling, batching."""

from dataclasses import replace

import numpy as np
import pytest

from moce import autodiff as ad
from moce.autodiff import Tape, Tensor, finite_diff_check
from moce.encoder import (
    BatchedGraph,
    EmptyGraph,
    EncoderConfig,
    GinLayer,
    batch_graphs,
    embed_features,
    embed_inputs,
    encode_from,
    gin_forward,
    segment_mean_pool,
)
from moce.molgraph import FeaturizedGraph, featurize, parse_smiles


def graph_of(smiles: str) -> FeaturizedGraph:
    return featurize(parse_smiles(smiles))


def zero_node_graph() -> FeaturizedGraph:
    return FeaturizedGraph(
        node_features=np.zeros((0, 5), dtype=np.int64),
        edge_index=np.zeros((0, 2), dtype=np.int64),
        edge_features=np.zeros((0, 2), dtype=np.int64),
        num_nodes=0,
    )


def identity_gin(dim: int) -> GinLayer:
    """eps=0 and identity MLP halves, so output = relu(x + agg)."""
    return GinLayer(
        epsilon=Tensor(np.zeros(()), requires_grad=True),
        w1=Tensor(np.eye(dim), requires_grad=True),
        b1=Tensor(np.zeros(dim), requires_grad=True),
        w2=Tensor(np.eye(dim), requires_grad=True),
        b2=Tensor(np.zeros(dim), requires_grad=True),
    )


class TestBatching:
    def test_offsets_and_ids(self):
        ethanol = graph_of("CCO")
        ethane = graph_of("CC")
        batch = batch_graphs([ethanol, ethane])
        assert batch.num_graphs == 2
        assert batch.num_nodes == 5
        np.testing.assert_array_equal(batch.graph_ids.ids, [0, 0, 0, 1, 1])
        # ethane's single bond sits after ethanol's two, shifted by 3 nodes
        edge_index = np.stack((batch.src.ids, batch.dst.ids), axis=1)
        np.testing.assert_array_equal(edge_index[:4], ethanol.edge_index)
        np.testing.assert_array_equal(edge_index[4:], ethane.edge_index + 3)
        np.testing.assert_array_equal(
            batch.node_features,
            np.vstack([ethanol.node_features, ethane.node_features]))

    def test_empty_list_rejected(self):
        with pytest.raises(EmptyGraph):
            batch_graphs([])

    def test_zero_atom_graph_rejected(self):
        with pytest.raises(EmptyGraph):
            batch_graphs([graph_of("CC"), zero_node_graph()])

    @pytest.mark.parametrize("edge", [(1, -1), (1, 4), (9, 1)],
                             ids=["negative", "into-the-next-graph",
                                  "past-the-batch"])
    def test_edge_outside_its_graph_rejected(self, edge):
        """An edge of ethanol's (atoms 0-2) to atom -1, to atom 4 (ethane's
        second atom once batched) or from atom 9 (past the batch) raises
        naming ethanol, before anything is built from it."""
        ethanol = graph_of("CCO")
        bad = replace(ethanol,
                      edge_index=np.vstack([ethanol.edge_index, edge]),
                      edge_features=np.vstack([ethanol.edge_features,
                                               ethanol.edge_features[:1]]))
        with pytest.raises(ad.IndexOutOfRange,
                           match=r"^graph 0: edge endpoint outside \[0, 3\)$"):
            batch_graphs([bad, graph_of("CC")])
        with pytest.raises(ad.IndexOutOfRange, match=r"^graph 1: "):
            batch_graphs([graph_of("CC"), bad])

    @pytest.mark.parametrize("seed", range(4))
    def test_offsets_and_in_degrees(self, seed):
        # bondless molecules give empty edge lists and zero in-degrees, so
        # their nodes propagate over the self-loop alone with D̃^-1/2 = 1
        pool = ["C", "[NH4+]", "CCO", "c1ccccc1", "CC(=O)N", "C1CC1", "O=C=O"]
        rng = np.random.default_rng(seed)
        smiles = ["C", "[NH4+]"] + list(rng.choice(pool, size=int(rng.integers(0, 10))))
        graphs = [graph_of(smiles[i]) for i in rng.permutation(len(smiles))]
        batch = batch_graphs(graphs)
        sizes = [g.num_nodes for g in graphs]
        np.testing.assert_array_equal(batch.offsets,
                                      np.concatenate(([0], np.cumsum(sizes))))
        loops = np.arange(batch.num_nodes)
        np.testing.assert_array_equal(
            batch.prop_src.ids, np.concatenate((batch.src.ids, loops)))
        np.testing.assert_array_equal(
            batch.prop_dst.ids, np.concatenate((batch.dst.ids, loops)))
        in_degree = np.bincount(batch.dst.ids, minlength=batch.num_nodes)
        assert batch.prop_dinv.shape == (batch.num_nodes, 1)
        assert batch.prop_dinv.dtype == np.float64
        assert batch.prop_dinv[:, 0].tobytes() == (
            1.0 / np.sqrt(in_degree + 1.0)).tobytes()
        assert np.any(batch.prop_dinv == 1.0)
        for g, (lo, hi) in enumerate(zip(batch.offsets, batch.offsets[1:])):
            assert np.all(batch.graph_ids.ids[lo:hi] == g)

    def test_single_graph_is_unchanged(self):
        g = graph_of("C1CC1")
        batch = batch_graphs([g])
        np.testing.assert_array_equal(batch.node_features, g.node_features)
        np.testing.assert_array_equal(batch.src.ids, g.edge_index[:, 0])
        np.testing.assert_array_equal(batch.dst.ids, g.edge_index[:, 1])
        np.testing.assert_array_equal(batch.graph_ids.ids,
                                      np.zeros(3, dtype=np.int64))


class TestEmbedding:
    def test_zero_tables_embed_to_zeros(self):
        rng = np.random.default_rng(0)
        cfg = EncoderConfig.create(rng, embed_dim=4)
        for t in cfg.node_embed + cfg.edge_embed:
            t.data[:] = 0.0
        nodes, edges = embed_inputs(graph_of("CCO"), cfg)
        np.testing.assert_array_equal(nodes.data, np.zeros((3, 4)))
        np.testing.assert_array_equal(edges.data, np.zeros((4, 4)))

    def test_lookup_sums_feature_columns(self):
        # two tiny tables writing into separate components makes the sum visible
        t0 = Tensor(np.array([[1.0, 0.0], [10.0, 0.0]]))
        t1 = Tensor(np.array([[0.0, 2.0], [0.0, 20.0], [0.0, 200.0]]))
        feats = np.array([[0, 2], [1, 0]])
        out = embed_features([t0, t1], feats)
        np.testing.assert_array_equal(out.data, [[1.0, 200.0], [10.0, 2.0]])

    def test_identical_atoms_share_rows(self):
        rng = np.random.default_rng(1)
        cfg = EncoderConfig.create(rng, embed_dim=6)
        nodes, _ = embed_inputs(graph_of("c1ccccc1"), cfg)
        for row in range(1, 6):
            np.testing.assert_array_equal(nodes.data[row], nodes.data[0])

    def test_no_bonds_gives_empty_edge_matrix(self):
        rng = np.random.default_rng(2)
        cfg = EncoderConfig.create(rng, embed_dim=3)
        nodes, edges = embed_inputs(graph_of("C"), cfg)
        assert nodes.shape == (1, 3)
        assert edges.shape == (0, 3)

    def test_zero_node_graph_rejected(self):
        rng = np.random.default_rng(3)
        cfg = EncoderConfig.create(rng, embed_dim=3)
        with pytest.raises(EmptyGraph):
            embed_inputs(zero_node_graph(), cfg)


class TestGinForward:
    def test_two_node_hand_computation(self):
        layer = identity_gin(2)
        nodes = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        edges = Tensor(np.array([[0.5, 0.5], [0.5, 0.5]]))
        out = gin_forward(layer, nodes, edges, [0, 1], [1, 0])
        # message into 1: relu([1,0]+[.5,.5]) = [1.5,.5]; into 0: [.5,1.5]
        # h = x + agg = [[1.5,1.5],[1.5,1.5]], identity MLP keeps it
        np.testing.assert_allclose(out.data, [[1.5, 1.5], [1.5, 1.5]], rtol=0, atol=0)

    def test_epsilon_scales_self_term(self):
        layer = identity_gin(2)
        layer.epsilon.data[()] = 0.5
        nodes = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        edges = Tensor(np.array([[0.5, 0.5], [0.5, 0.5]]))
        out = gin_forward(layer, nodes, edges, [0, 1], [1, 0])
        np.testing.assert_allclose(out.data, [[2.0, 1.5], [1.5, 2.0]], rtol=0, atol=0)

    def test_isolated_node_keeps_self_term_only(self):
        layer = identity_gin(3)
        nodes = Tensor(np.array([[0.2, -0.4, 1.0]]))
        no_edges = np.zeros(0, dtype=np.int64)
        out = gin_forward(layer, nodes, Tensor(np.zeros((0, 3))), no_edges,
                          no_edges)
        np.testing.assert_allclose(out.data, [[0.2, 0.0, 1.0]], rtol=0, atol=0)

    def test_messages_follow_edge_direction(self):
        layer = identity_gin(1)
        nodes = Tensor(np.array([[1.0], [0.0]]))
        edges = Tensor(np.array([[0.0]]))
        out = gin_forward(layer, nodes, edges, [0], [1])  # 0 -> 1 only
        # node 1 hears node 0; node 0 hears nothing
        np.testing.assert_allclose(out.data, [[1.0], [1.0]], rtol=0, atol=0)


def gin_stack(batch: BatchedGraph, cfg: EncoderConfig,
              layers: list[GinLayer]) -> Tensor:
    """Embed a batch and run the GIN stack over it."""
    nodes, edges = embed_inputs(batch, cfg)
    return encode_from(nodes, edges, batch.src, batch.dst, layers)


def mean_readout(nodes: Tensor) -> Tensor:
    """Readout of a single graph, pooled as a B=1 batch."""
    return segment_mean_pool(nodes, np.zeros(nodes.shape[0], dtype=np.int64), 1)


class TestEncode:
    def test_layer_count_and_shapes(self):
        rng = np.random.default_rng(7)
        cfg = EncoderConfig.create(rng, embed_dim=5)
        layers = [GinLayer.create(rng, 5) for _ in range(3)]
        out = gin_stack(batch_graphs([graph_of("c1ccccc1")]), cfg, layers)
        assert out.shape == (6, 5)

    def test_encode_matches_manual_chain(self):
        rng = np.random.default_rng(8)
        cfg = EncoderConfig.create(rng, embed_dim=4)
        layers = [GinLayer.create(rng, 4) for _ in range(2)]
        g = graph_of("CC(=O)O")
        nodes, edges = embed_inputs(g, cfg)
        src, dst = g.edge_index[:, 0], g.edge_index[:, 1]
        out = encode_from(nodes, edges, src, dst, layers)
        step1 = gin_forward(layers[0], nodes, edges, src, dst)
        step2 = gin_forward(layers[1], step1, edges, src, dst)
        np.testing.assert_array_equal(out.data, step2.data)

    def test_batched_encode_matches_per_graph(self):
        rng = np.random.default_rng(9)
        cfg = EncoderConfig.create(rng, embed_dim=6)
        layers = [GinLayer.create(rng, 6) for _ in range(2)]
        g1 = graph_of("CCO")
        g2 = graph_of("c1ccncc1")
        batched = gin_stack(batch_graphs([g1, g2]), cfg, layers)
        solo1 = gin_stack(batch_graphs([g1]), cfg, layers)
        solo2 = gin_stack(batch_graphs([g2]), cfg, layers)
        np.testing.assert_allclose(
            batched.data, np.vstack([solo1.data, solo2.data]), rtol=1e-12,
            atol=1e-14)

    def test_atom_order_does_not_change_readout(self):
        # the same molecule written from either end pools identically
        rng = np.random.default_rng(10)
        cfg = EncoderConfig.create(rng, embed_dim=5)
        layers = [GinLayer.create(rng, 5) for _ in range(2)]
        a = mean_readout(gin_stack(batch_graphs([graph_of("CCO")]), cfg, layers))
        b = mean_readout(gin_stack(batch_graphs([graph_of("OCC")]), cfg, layers))
        np.testing.assert_allclose(a.data, b.data, rtol=1e-10, atol=1e-12)


class TestPooling:
    def test_global_mean_matches_numpy(self):
        x = np.random.default_rng(11).normal(size=(7, 3))
        np.testing.assert_allclose(mean_readout(Tensor(x)).data,
                                   x.mean(axis=0, keepdims=True), rtol=1e-15)

    def test_global_mean_rejects_empty(self):
        with pytest.raises(EmptyGraph):
            mean_readout(Tensor(np.zeros((0, 3))))

    def test_segment_mean_matches_per_graph(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(5, 4))
        ids = np.array([0, 0, 0, 1, 1])
        pooled = segment_mean_pool(Tensor(x), ids, 2)
        np.testing.assert_allclose(pooled.data[0], x[:3].mean(axis=0), rtol=1e-15)
        np.testing.assert_allclose(pooled.data[1], x[3:].mean(axis=0), rtol=1e-15)
        # a planned index, read twice, counts each graph's nodes the same
        planned = ad.Index(ids, 2)
        for _ in range(2):
            again = segment_mean_pool(Tensor(x), planned, 2)
            assert again.data.tobytes() == pooled.data.tobytes()

    def test_segment_mean_rejects_empty_segment(self):
        with pytest.raises(EmptyGraph):
            segment_mean_pool(Tensor(np.ones((2, 2))), np.array([0, 0]), 2)
        # graphs 1 and 2 of a planned index hold no node
        with pytest.raises(EmptyGraph):
            segment_mean_pool(Tensor(np.ones((2, 2))), ad.Index([0, 3], 4), 4)


def gin_forward_chain(layer: GinLayer, nodes: Tensor, edges: Tensor, src,
                      dst) -> Tensor:
    """``gin_forward`` as the chain of generic ops its fused primitives
    replace."""
    messages = ad.relu(ad.add(ad.gather_rows(nodes, src), edges))
    agg = ad.scatter_segment_sum(messages, dst, nodes.shape[0])
    one = Tensor(np.ones((), dtype=nodes.dtype))
    h = ad.add(ad.mul(nodes, ad.add(layer.epsilon, one)), agg)
    hidden = ad.relu(ad.add(ad.matmul(h, layer.w1), layer.b1))
    return ad.add(ad.matmul(hidden, layer.w2), layer.b2)


class TestGinMatchesChain:
    """Two GIN layers through ``gin_forward`` and through the op chain give
    the same output and parameter gradients bit for bit."""

    @staticmethod
    def _run(forward, smiles, dtype):
        rng = np.random.default_rng(31)
        cfg = EncoderConfig.create(rng, embed_dim=4)
        layers = [GinLayer.create(rng, 4) for _ in range(2)]
        params = list(cfg.parameters().values())
        for layer in layers:
            params.extend(layer.parameters().values())
        for p in params:
            p.data = p.data.astype(dtype)
        batch = batch_graphs([graph_of(s) for s in smiles])
        g = Tensor(rng.normal(size=(batch.num_nodes, 4)).astype(dtype))
        with Tape() as tape:
            nodes, edges = embed_inputs(batch, cfg)
            for layer in layers:
                nodes = forward(layer, nodes, edges, batch.src, batch.dst)
            grads = tape.backward(ad.reduce_sum(ad.mul(nodes, g)))
        return [nodes.data] + [grads[p] for p in params]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("smiles", [("C", "[NH4+]", "O"), ("CCO",),
                                        ("c1ccccc1O", "CC(N)C=O", "C")])
    def test_bits(self, smiles, dtype):
        got = self._run(gin_forward, smiles, dtype)
        want = self._run(gin_forward_chain, smiles, dtype)
        for a, b in zip(got, want, strict=True):
            assert a.dtype == b.dtype == dtype
            assert a.tobytes() == b.tobytes()


class TestEncoderGradients:
    def test_finite_diff_through_full_encoder(self):
        rng = np.random.default_rng(13)
        cfg = EncoderConfig.create(rng, embed_dim=4)
        layers = [GinLayer.create(rng, 4) for _ in range(2)]
        batch = batch_graphs([graph_of("CCO"), graph_of("C=O")])
        params = list(cfg.parameters().values())
        for layer in layers:
            params.extend(layer.parameters().values())

        def loss_fn(*_):
            out = gin_stack(batch, cfg, layers)
            pooled = segment_mean_pool(out, batch.graph_ids, 2)
            return ad.reduce_sum(ad.mul(pooled, pooled))

        report = finite_diff_check(loss_fn, params, rel_tol=1e-4)
        assert report.passed, str(report)

    def test_epsilon_receives_gradient(self):
        layer = identity_gin(2)
        nodes = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        edges = Tensor(np.array([[0.1, 0.1], [0.1, 0.1]]))
        with Tape() as tape:
            out = gin_forward(layer, nodes, edges, [0, 1], [1, 0])
            loss = ad.reduce_sum(out)
            grads = tape.backward(loss)
        # d/d eps of sum(relu(x*(1+eps) + agg)) = sum(x) while everything
        # stays positive
        np.testing.assert_allclose(grads[layer.epsilon], 10.0, rtol=1e-12)
