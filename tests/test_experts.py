"""Routing, expert pooling, vote integration, task embeddings."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moce import autodiff as ad
from moce import experts as experts_module
from moce.autodiff import Tape, Tensor
from moce.encoder import EmptyGraph, batch_graphs, segment_mean_pool
from moce.experts import (
    BadK,
    ExpertParams,
    IntegratorParams,
    MissingTaskEmbedding,
    RouterParams,
    TaskEmbeddingError,
    fallback_embedding,
    fnv1a_64,
    gamma_mask,
    integrate_outputs,
    expert_mlp,
    layer_forward,
    load_task_embeddings,
    resolve_tasks,
    route_batch,
    sag_project_batch,
    topk_indices,
)
from moce.experts import _sag_weights
from moce.model import Model, ModelConfig
from moce.molgraph import FeaturizedGraph, featurize, parse_smiles

from reference_model import REORDER_TOL, rel_error


def zero_router(e_f: int, e_t: int, m: int, k_s: int, k_t: int) -> RouterParams:
    z = lambda r, c: Tensor(np.zeros((r, c)), requires_grad=True)
    return RouterParams(w_mu1=z(e_f, m), w_mu2=z(e_t, m),
                        w_sigma1=z(e_f, m), w_sigma2=z(e_t, m),
                        k_s=k_s, k_t=k_t)


def constant_expert(dim: int, logit: float) -> ExpertParams:
    """Expert whose MLP ignores its input and votes ``logit``."""
    return ExpertParams(
        theta_att=Tensor(np.zeros((dim, 1)), requires_grad=True),
        w1=Tensor(np.zeros((dim, dim)), requires_grad=True),
        b1=Tensor(np.zeros(dim), requires_grad=True),
        w2=Tensor(np.zeros((dim, 1)), requires_grad=True),
        b2=Tensor(np.array([logit]), requires_grad=True),
    )


def row(*values) -> Tensor:
    """One sample as a B=1 batch."""
    return Tensor(np.array([values], dtype=np.float64))


def graph_with(num_nodes: int, edge_index) -> FeaturizedGraph:
    """A graph of ``num_nodes`` featureless nodes and the given directed
    edges."""
    edge_index = np.asarray(edge_index, dtype=np.int64).reshape(-1, 2)
    return FeaturizedGraph(
        node_features=np.zeros((num_nodes, 5), dtype=np.int64),
        edge_index=edge_index,
        edge_features=np.zeros((len(edge_index), 2), dtype=np.int64),
        num_nodes=num_nodes)


def sag_one(nodes: Tensor, edge_index: np.ndarray, expert: ExpertParams,
            pool_ratio: float) -> Tensor:
    """Pooled view of a single graph, as a B=1 batch."""
    batch = batch_graphs([graph_with(nodes.shape[0], edge_index)])
    return sag_project_batch(nodes, batch, expert, pool_ratio)


def expert_of(rng, dim: int, dtype) -> ExpertParams:
    """An expert drawn in float64 and cast to ``dtype``, as Model.create
    does."""
    expert = ExpertParams.create(rng, dim)
    for t in expert.parameters().values():
        t.data = t.data.astype(dtype)
    return expert


NO_EDGES = np.zeros((0, 2), dtype=np.int64)


def sag_weights_per_graph(scores, graph_ids, num_graphs, pool_ratio):
    """Reference for ``_sag_weights``: one scan of every node per graph."""
    weights = np.zeros_like(scores)
    for g in range(num_graphs):
        member_idx = np.nonzero(graph_ids == g)[0]
        n_sel = int(math.ceil(pool_ratio * member_idx.size))
        order = np.argsort(-scores[member_idx], kind="stable")[:n_sel]
        weights[member_idx[order]] = 1.0 / n_sel
    return weights


@st.composite
def sag_weight_cases(draw):
    """(scores, offsets, pool_ratio) of one dtype: one graph or several,
    one-node graphs, scores with ties, signed zeros and NaN."""
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    sizes = draw(st.lists(st.integers(1, 9), min_size=1, max_size=10))
    score = st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, math.nan]) | st.floats(
        -2.0, 2.0, width=32)
    scores = np.array(draw(st.lists(score, min_size=sum(sizes),
                                    max_size=sum(sizes))), dtype=dtype)
    offsets = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
    return scores, offsets, draw(st.sampled_from([0.01, 0.5, 1.0]))


def sag_case(sizes, scores, ratio, dtype=np.float64):
    return (np.array(scores, dtype=dtype),
            np.concatenate(([0], np.cumsum(sizes))).astype(np.int64), ratio)


class TestSagWeightsGrid:
    """``_sag_weights`` sorts every graph of a batch in one NaN-padded grid;
    its bytes are those of the per-graph loop, kept here as the reference."""

    @settings(deadline=None, max_examples=300)
    @given(sag_weight_cases())
    @example(sag_case([1], [math.nan], 0.01))
    @example(sag_case([3], [0.5, math.nan, 0.5], 0.5, np.float32))
    @example(sag_case([1, 1, 1], [-0.0, 0.0, math.nan], 1.0))
    @example(sag_case([4, 1, 2], [0.5, 0.5, math.nan, 0.5, 1.0, -0.0, 0.0],
                      0.5, np.float32))
    @example(sag_case([2, 5], [math.nan, math.nan, 1.0, math.nan, 1.0, 1.0,
                               -1.0], 0.5))
    def test_matches_per_graph_loop(self, case):
        scores, offsets, ratio = case
        sizes = np.diff(offsets)
        graph_ids = np.repeat(np.arange(sizes.size), sizes)
        got = _sag_weights(scores, offsets, ratio)
        want = sag_weights_per_graph(scores, graph_ids, sizes.size, ratio)
        assert got.dtype == scores.dtype
        assert got.tobytes() == want.tobytes()


class TestGammaMask:
    def test_excluded_entry_already_at_minimum(self):
        out = gamma_mask(row(3.0, 1.0, 2.0), 2)
        np.testing.assert_array_equal(out.data, [[3.0, 1.0, 2.0]])

    def test_fills_below_top_k_with_minimum(self):
        out = gamma_mask(row(3.0, 1.0, 2.0), 1)
        np.testing.assert_array_equal(out.data, [[3.0, 1.0, 1.0]])

    def test_k_equal_m_is_identity(self):
        v = row(0.3, -1.2, 0.0, 5.0)
        out = gamma_mask(v, 4)
        np.testing.assert_array_equal(out.data, v.data)

    def test_batched_rows_independent(self):
        v = Tensor(np.array([[3.0, 1.0, 2.0], [1.0, 2.0, 3.0]]))
        out = gamma_mask(v, 1)
        np.testing.assert_array_equal(out.data, [[3.0, 1.0, 1.0], [1.0, 1.0, 3.0]])

    def test_bad_k_rejected(self):
        with pytest.raises(BadK):
            gamma_mask(Tensor(np.zeros((1, 3))), 0)
        with pytest.raises(BadK):
            gamma_mask(Tensor(np.zeros((1, 3))), 4)

    def test_vector_rejected(self):
        with pytest.raises(ad.ShapeMismatch):
            gamma_mask(Tensor(np.array([3.0, 1.0, 2.0])), 1)

    def test_preserves_top_values_and_argmax(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            m = int(rng.integers(2, 9))
            k = int(rng.integers(1, m + 1))
            v = rng.normal(size=m)
            out = gamma_mask(Tensor(v[None, :]), k).data[0]
            top = np.sort(v)[-k:]
            assert np.array_equal(np.sort(out)[-k:], top)
            assert np.argmax(out) == np.argmax(v)
            low = np.min(v)
            kept = topk_indices(v, k)
            for j in range(m):
                expected = v[j] if j in kept else low
                assert out[j] == expected

    def test_fill_gradient_goes_to_argmin(self):
        v = Tensor(np.array([[3.0, 1.0, 2.0]]), requires_grad=True)
        with Tape() as tape:
            out = gamma_mask(v, 1)
            loss = ad.reduce_sum(out)
            grads = tape.backward(loss)
        # out = [v0, v1, v1]: slot 2 was filled from the argmin slot 1
        np.testing.assert_array_equal(grads[v], [[1.0, 2.0, 0.0]])


class TestRoute:
    """Single samples are routed as B=1 batches; row 0 is the sample."""

    def test_zero_weights_tie_break_to_first_indices(self):
        r = zero_router(4, 3, m=5, k_s=2, k_t=3)
        g = route_batch(Tensor(np.zeros((1, 4))), Tensor(np.zeros((1, 3))), r)
        np.testing.assert_array_equal(g.selected, [[0, 1]])
        np.testing.assert_array_equal(g.gates.data, [[0.5, 0.5, 0.0, 0.0, 0.0]])
        np.testing.assert_array_equal(g.mu.data, np.zeros((1, 5)))

    def test_zero_weights_half_selection_probability(self):
        # mu equals the competing threshold everywhere, so Phi(0) = 1/2
        r = zero_router(4, 3, m=5, k_s=2, k_t=3)
        g = route_batch(Tensor(np.zeros((1, 4))), Tensor(np.zeros((1, 3))), r)
        np.testing.assert_array_equal(g.p_choose.data, np.full((1, 5), 0.5))

    def test_softmax_over_selected_pair(self):
        # h = [0.5, 0.3, 0.1] via the task head; third gate exactly zero
        r = zero_router(2, 3, m=3, k_s=2, k_t=3)
        r.w_mu2.data[:] = np.eye(3)
        g = route_batch(Tensor(np.zeros((1, 2))), row(0.5, 0.3, 0.1), r)
        np.testing.assert_allclose(
            g.gates.data[0], [0.549833997312478, 0.450166002687522, 0.0],
            rtol=0, atol=1e-15)
        assert g.gates.data[0, 2] == 0.0

    def test_gate_invariants_random(self):
        rng = np.random.default_rng(33)
        for trial in range(200):
            e_f, e_t = 3, 4
            m = int(rng.integers(2, 7))
            k_t = int(rng.integers(1, m + 1))
            k_s = int(rng.integers(1, k_t + 1))
            r = RouterParams.create(rng, e_f, e_t, m, k_s, k_t)
            g = route_batch(Tensor(rng.normal(size=(1, e_f))),
                            Tensor(rng.normal(size=(1, e_t))),
                            r, rng=rng if trial % 2 == 0 else None)
            gates = g.gates.data[0]
            assert np.sum(gates > 0) == k_s
            assert abs(gates.sum() - 1.0) < 1e-12
            assert set(np.nonzero(gates)[0]) == set(g.selected[0])
            np.testing.assert_array_equal(g.selected, topk_indices(g.h.data, k_s))
            assert np.all(g.p_choose.data >= 0) and np.all(g.p_choose.data <= 1)
            assert np.all(g.sigma.data >= 1e-3)

    def test_tied_scores_select_lower_index(self):
        r = zero_router(2, 3, m=3, k_s=1, k_t=3)
        r.w_mu2.data[:] = np.eye(3)
        g = route_batch(Tensor(np.zeros((1, 2))), row(1.0, 1.0, 0.0), r)
        np.testing.assert_array_equal(g.selected, [[0]])
        assert g.gates.data[0, 0] == 1.0

    def test_single_kept_gate_is_exactly_one(self):
        rng = np.random.default_rng(5)
        r = RouterParams.create(rng, 3, 3, num_experts=4, k_s=1, k_t=2)
        g = route_batch(Tensor(rng.normal(size=(1, 3))),
                        Tensor(rng.normal(size=(1, 3))), r)
        assert g.gates.data[0, g.selected[0, 0]] == 1.0
        assert g.gates.data.sum() == 1.0

    def test_mu_shift_leaves_gates_unchanged(self):
        rng = np.random.default_rng(6)
        r = zero_router(2, 4, m=4, k_s=2, k_t=4)
        r.w_mu2.data[:] = rng.normal(size=(4, 4))
        t = Tensor(rng.normal(size=(1, 4)))
        base = route_batch(Tensor(np.zeros((1, 2))), t, r)
        r.w_mu2.data += rng.normal()  # shifts every mu by the same constant? no
        # a constant added to mu directly: bias through w_mu2 with a fresh
        # component would change direction; instead shift via sigma-free path
        shifted_mu = base.mu.data[0] + 3.7
        # recompute gates from the shifted scores by hand
        keep = np.zeros(4, dtype=bool)
        keep[topk_indices(shifted_mu, 2)] = True
        masked = np.where(keep, shifted_mu, -np.inf)
        e = np.exp(masked - masked.max())
        np.testing.assert_allclose(e / e.sum(), base.gates.data[0], rtol=1e-12)

    def test_noise_reproducible_under_seed(self):
        rng_params = np.random.default_rng(7)
        r = RouterParams.create(rng_params, 3, 3, num_experts=4, k_s=2, k_t=3)
        x, t = Tensor(np.ones((1, 3))), Tensor(np.ones((1, 3)))
        a = route_batch(x, t, r, rng=np.random.default_rng(99))
        b = route_batch(x, t, r, rng=np.random.default_rng(99))
        c = route_batch(x, t, r, rng=np.random.default_rng(100))
        np.testing.assert_array_equal(a.h.data, b.h.data)
        np.testing.assert_array_equal(a.gates.data, b.gates.data)
        assert not np.array_equal(a.h.data, c.h.data)

    def test_noise_off_uses_mu_exactly(self):
        rng = np.random.default_rng(8)
        r = RouterParams.create(rng, 3, 3, num_experts=4, k_s=2, k_t=3)
        g = route_batch(Tensor(rng.normal(size=(1, 3))),
                        Tensor(rng.normal(size=(1, 3))), r)
        np.testing.assert_array_equal(g.h.data, g.mu.data)

    def test_k_s_equal_m_selects_everyone(self):
        rng = np.random.default_rng(9)
        r = RouterParams.create(rng, 3, 3, num_experts=3, k_s=3, k_t=3)
        g = route_batch(Tensor(rng.normal(size=(1, 3))),
                        Tensor(rng.normal(size=(1, 3))), r)
        np.testing.assert_array_equal(np.sort(g.selected[0]), [0, 1, 2])
        np.testing.assert_array_equal(g.p_choose.data, np.ones((1, 3)))
        assert abs(g.gates.data.sum() - 1.0) < 1e-12

    def test_bad_k_combinations_rejected(self):
        rng = np.random.default_rng(10)
        with pytest.raises(BadK):
            RouterParams.create(rng, 3, 3, num_experts=4, k_s=0, k_t=2)
        with pytest.raises(BadK):
            RouterParams.create(rng, 3, 3, num_experts=4, k_s=3, k_t=2)
        with pytest.raises(BadK):
            RouterParams.create(rng, 3, 3, num_experts=4, k_s=2, k_t=5)

    def test_gate_gradient_matches_softmax_jacobian(self):
        r = zero_router(2, 3, m=3, k_s=2, k_t=3)
        r.w_mu2.data[:] = np.eye(3)
        t = row(0.5, 0.3, 0.1)
        with Tape() as tape:
            g = route_batch(Tensor(np.zeros((1, 2))), t, r)
            loss = ad.reduce_sum(ad.mul(g.gates, row(1.0, 0.0, 0.0)))
            grads = tape.backward(loss)
        g0, g1 = 0.549833997312478, 0.450166002687522
        # mu_b = sum_a t_a W[a,b], so dW = outer(t, dL/dmu); the third score
        # is masked out of the softmax and gets no gradient
        dmu = np.array([g0 * (1 - g0), -g0 * g1, 0.0])
        expected = np.outer(t.data[0], dmu)
        np.testing.assert_allclose(grads[r.w_mu2], expected, rtol=1e-12, atol=1e-15)

    def test_batch_matches_single_sample_routing(self):
        rng = np.random.default_rng(11)
        r = RouterParams.create(rng, 3, 4, num_experts=5, k_s=2, k_t=4)
        xs = rng.normal(size=(3, 3))
        ts = rng.normal(size=(3, 4))
        rb = route_batch(Tensor(xs), Tensor(ts), r)
        for i in range(3):
            gi = route_batch(Tensor(xs[i:i + 1]), Tensor(ts[i:i + 1]), r)
            np.testing.assert_allclose(rb.gates.data[i], gi.gates.data[0],
                                       rtol=1e-12)
            np.testing.assert_array_equal(rb.selected[i], gi.selected[0])
            np.testing.assert_allclose(rb.p_choose.data[i], gi.p_choose.data[0],
                                       rtol=1e-12)


def scatter_then_add(nodes, batch, expert):
    """The SAG scores with (A + I)u as its own scatter and add: A u, then
    + u."""
    n = batch.num_nodes
    deg = np.bincount(batch.edge_index[:, 1], minlength=n)
    dinv = Tensor((1.0 / np.sqrt(deg + 1.0))[:, None].astype(nodes.dtype))
    u = ad.mul(ad.matmul(nodes, expert.theta_att), dinv)
    au = ad.scatter_segment_sum(ad.gather_rows(u, batch.edge_index[:, 0]),
                                batch.edge_index[:, 1], n)
    return ad.tanh(ad.mul(ad.add(au, u), dinv))


def sag_project_scatter_then_add(nodes, batch, expert, pool_ratio):
    """Reference for ``sag_project_batch`` with the self-term added by a
    separate op and the weights from the per-graph loop."""
    z_tilde = scatter_then_add(nodes, batch, expert)
    weights = sag_weights_per_graph(z_tilde.data[:, 0], batch.graph_ids,
                                    batch.num_graphs, pool_ratio)
    return ad.pool_rows(nodes, z_tilde, weights, batch.graph_ids,
                        batch.num_graphs)


def sag_project_three_ops(nodes, batch, expert, pool_ratio):
    """Reference for ``sag_project_batch``: every node row is weighted and
    scattered, the dropped ones by an exact zero."""
    z_tilde = scatter_then_add(nodes, batch, expert)
    weights = _sag_weights(z_tilde.data[:, 0], batch.offsets, pool_ratio)
    scaled = ad.mul(z_tilde, Tensor(weights[:, None].astype(nodes.dtype)))
    return ad.scatter_segment_sum(ad.mul(nodes, scaled), batch.graph_ids,
                                  batch.num_graphs)


def random_batch(rng, num_graphs):
    """Batch of random graphs of 1-9 nodes, each edge listed in both
    directions. A node joins an earlier one with probability 0.7 and stays
    isolated otherwise, so most graphs hold isolated atoms."""
    graphs = []
    for _ in range(num_graphs):
        size = int(rng.integers(1, 10))
        edges = []
        for v in range(1, size):
            if rng.uniform() < 0.7:
                u = int(rng.integers(0, v))
                edges += [(u, v), (v, u)]
        graphs.append(graph_with(size, edges))
    return batch_graphs(graphs)


class TestSagProject:
    """Single graphs are pooled as B=1 batches; row 0 is the graph's view."""

    def test_single_node_closed_form(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(1, 4))
        e = ExpertParams.create(rng, 4)
        out = sag_one(Tensor(x), NO_EDGES, e, 1.0)
        z = (x @ e.theta_att.data).item()
        np.testing.assert_allclose(out.data, np.tanh(z) * x, rtol=1e-14)

    def test_zero_attention_gives_zero_vector(self):
        rng = np.random.default_rng(13)
        e = constant_expert(3, 0.0)
        nodes = Tensor(rng.normal(size=(5, 3)))
        edge_index = np.array([[0, 1], [1, 0], [1, 2], [2, 1]])
        out = sag_one(nodes, edge_index, e, 1.0)
        np.testing.assert_array_equal(out.data, np.zeros((1, 3)))

    def test_half_ratio_keeps_two_of_four(self):
        rng = np.random.default_rng(14)
        e = ExpertParams.create(rng, 2)
        e.theta_att.data[:] = [[1.0], [0.0]]
        # no edges: z~ = tanh(first feature); rows 2 and 0 score highest
        nodes = Tensor(np.array([[1.0, 5.0], [0.1, 6.0], [2.0, 7.0], [0.2, 8.0]]))
        out = sag_one(nodes, NO_EDGES, e, 0.5)
        expected = (np.tanh(1.0) * np.array([1.0, 5.0])
                    + np.tanh(2.0) * np.array([2.0, 7.0])) / 2
        np.testing.assert_allclose(out.data[0], expected, rtol=1e-14)

    def test_uniform_scores_scale_global_mean(self):
        # identical node rows make every score equal; with kappa=1 the output
        # is that common score times the plain mean readout
        rng = np.random.default_rng(15)
        row_ = rng.normal(size=4)
        nodes = Tensor(np.tile(row_, (3, 1)))
        edge_index = np.array([[0, 1], [1, 0], [1, 2], [2, 1], [0, 2], [2, 0]])
        e = ExpertParams.create(rng, 4)
        out = sag_one(nodes, edge_index, e, 1.0)
        z = float(row_ @ e.theta_att.data[:, 0])
        # complete triangle: deg 2 everywhere, propagation sums three equal
        # normalized scores
        score = np.tanh((z / np.sqrt(3.0) * 3) / np.sqrt(3.0))
        mean = segment_mean_pool(nodes, np.zeros(3, dtype=np.int64), 1).data
        np.testing.assert_allclose(out.data, score * mean, rtol=1e-12)

    def test_path_graph_hand_computation(self):
        e = ExpertParams.create(np.random.default_rng(16), 2)
        e.theta_att.data[:] = [[1.0], [-1.0]]
        nodes = Tensor(np.array([[1.0, 0.0], [0.0, 2.0]]))
        edge_index = np.array([[0, 1], [1, 0]])
        out = sag_one(nodes, edge_index, e, 1.0)
        # z = [1, -2]; D~ = diag(2, 2); both scores tanh((z0+z1)/2) = tanh(-1/2)
        s = np.tanh(-0.5)
        expected = (s * nodes.data[0] + s * nodes.data[1]) / 2
        np.testing.assert_allclose(out.data[0], expected, rtol=1e-14)

    def test_score_tie_keeps_lower_node_index(self):
        e = constant_expert(2, 0.0)
        e.theta_att.data[:] = [[1.0], [0.0]]
        # equal projections (both rows start with 1) but distinct features
        nodes = Tensor(np.array([[1.0, 5.0], [1.0, 9.0]]))
        out = sag_one(nodes, NO_EDGES, e, 0.5)
        np.testing.assert_allclose(out.data[0], np.tanh(1.0) * np.array([1.0, 5.0]),
                                   rtol=1e-14)

    def test_empty_graph_rejected(self):
        e = constant_expert(2, 0.0)
        with pytest.raises(EmptyGraph):
            sag_one(Tensor(np.zeros((0, 2))), NO_EDGES, e, 1.0)

    @pytest.mark.parametrize("ratio", [0.0, -0.5, 1.2])
    def test_pool_ratio_outside_unit_interval_rejected(self, ratio):
        nodes = Tensor(np.ones((3, 2)))
        with pytest.raises(ValueError, match=r"pool_ratio must be in \(0, 1\]"):
            sag_one(nodes, NO_EDGES, constant_expert(2, 0.0), ratio)

    @pytest.mark.parametrize("seed", range(6))
    def test_weights_match_per_graph_loop(self, seed):
        rng = np.random.default_rng(seed)
        num_graphs = int(rng.integers(1, 30))
        sizes = rng.integers(1, 14, size=num_graphs)
        sizes[rng.integers(num_graphs)] = 1
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        graph_ids = np.repeat(np.arange(num_graphs), sizes)
        # one decimal makes score ties, which must go to the lower node index
        scores = np.round(rng.uniform(-1.0, 1.0, size=graph_ids.size), 1)
        for ratio in (0.3, 0.5, 1.0):
            got = _sag_weights(scores, offsets, ratio)
            want = sag_weights_per_graph(scores, graph_ids, num_graphs, ratio)
            assert got.tobytes() == want.tobytes()

    def test_batched_matches_per_graph(self):
        rng = np.random.default_rng(17)
        e = ExpertParams.create(rng, 3)
        n1, n2 = 4, 3
        x = rng.normal(size=(n1 + n2, 3))
        ei1 = np.array([[0, 1], [1, 0], [2, 3], [3, 2]])
        ei2 = np.array([[0, 1], [1, 0], [1, 2], [2, 1]])
        batch = batch_graphs([graph_with(n1, ei1), graph_with(n2, ei2)])
        pooled = sag_project_batch(Tensor(x), batch, e, 0.6)
        solo1 = sag_one(Tensor(x[:n1]), ei1, e, 0.6)
        solo2 = sag_one(Tensor(x[n1:]), ei2, e, 0.6)
        np.testing.assert_allclose(pooled.data[0], solo1.data[0], rtol=1e-12)
        np.testing.assert_allclose(pooled.data[1], solo2.data[0], rtol=1e-12)

    @staticmethod
    def _project_and_backward(project, batch, expert, x, g):
        nodes = Tensor(x, requires_grad=True)
        with Tape() as tape:
            pooled = project(nodes, batch, expert, 0.5)
            grads = tape.backward(ad.reduce_sum(ad.mul(pooled, Tensor(g))))
        return pooled.data, grads[expert.theta_att], grads[nodes]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_three_op_reference(self, dtype):
        rng = np.random.default_rng(18)
        batch = random_batch(rng, 7)
        x = rng.normal(size=(batch.num_nodes, 5)).astype(dtype)
        g = rng.normal(size=(7, 5)).astype(dtype)
        e = expert_of(rng, 5, dtype)
        (out, d_theta, d_nodes), (ref, ref_theta, ref_nodes) = (
            self._project_and_backward(project, batch, e, x, g)
            for project in (sag_project_batch, sag_project_three_ops))
        assert out.dtype == d_theta.dtype == d_nodes.dtype == dtype
        assert out.tobytes() == ref.tobytes()
        # theta's gradient sums over the rows of non-zero score gradient
        assert rel_error(d_theta, ref_theta) <= REORDER_TOL[np.dtype(dtype)]
        # dropped rows get +0 here and +-0 in the reference
        assert np.array_equal(d_nodes, ref_nodes)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("seed", range(3))
    def test_self_loops_match_scatter_then_add(self, dtype, seed):
        rng = np.random.default_rng(100 + seed)
        batch = random_batch(rng, 12)
        # some node has no edges, so only its self-loop reaches it
        assert np.any(batch.prop_dinv == 1.0)
        x = rng.normal(size=(batch.num_nodes, 4)).astype(dtype)
        g = rng.normal(size=(12, 4)).astype(dtype)
        e = expert_of(rng, 4, dtype)
        got = self._project_and_backward(sag_project_batch, batch, e, x, g)
        want = self._project_and_backward(sag_project_scatter_then_add,
                                          batch, e, x, g)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype == dtype
        (out, d_theta, d_nodes), (ref, ref_theta, ref_nodes) = got, want
        assert out.tobytes() == ref.tobytes()
        assert d_nodes.tobytes() == ref_nodes.tobytes()
        # theta's gradient sums over the rows of non-zero score gradient
        assert rel_error(d_theta, ref_theta) <= REORDER_TOL[np.dtype(dtype)]


def sag_project_chain(nodes, batch, expert, pool_ratio):
    """``sag_project_batch`` with its scores as the chain of generic ops
    that ``ad.sag_scores`` replaces."""
    dinv = Tensor(batch.prop_dinv.astype(nodes.dtype))
    u = ad.mul(ad.matmul(nodes, expert.theta_att), dinv)
    au = ad.scatter_segment_sum(ad.gather_rows(u, batch.prop_src),
                                batch.prop_dst, batch.num_nodes)
    z_tilde = ad.tanh(ad.mul(au, dinv))
    weights = _sag_weights(z_tilde.data[:, 0], batch.offsets, pool_ratio)
    return ad.pool_rows(nodes, z_tilde, weights, batch.graph_ids,
                        batch.num_graphs)


def expert_mlp_chain(expert, pooled):
    """``expert_mlp`` as the chain of generic ops that ``ad.dense``
    replaces."""
    hidden = ad.relu(ad.add(ad.matmul(pooled, expert.w1), expert.b1))
    return ad.add(ad.matmul(hidden, expert.w2), expert.b2)


class TestExpertMatchesChain:
    """An expert's view and vote through the fused primitives and through
    the op chains give the same logits bit for bit. The gradients match to
    round-off: the fused backward skips the rows whose gradient is zero, so
    its sums over rows drop exact-zero terms and add the rest in another
    order."""

    @staticmethod
    def _run(project, mlp, batch, dtype, unrouted):
        rng = np.random.default_rng(51)
        expert = expert_of(rng, 4, dtype)
        nodes = Tensor(rng.normal(size=(batch.num_nodes, 4)).astype(dtype),
                       requires_grad=True)
        g = rng.normal(size=(batch.num_graphs, 1)).astype(dtype)
        if unrouted:
            g[::2] = 0.0
        with Tape() as tape:
            logits = mlp(expert, project(nodes, batch, expert, 0.5))
            grads = tape.backward(ad.reduce_sum(ad.mul(logits, Tensor(g))))
        leaves = [nodes, *expert.parameters().values()]
        return [logits.data] + [grads[t] for t in leaves]

    def _both(self, smiles, dtype, unrouted):
        batch = (random_batch(np.random.default_rng(52), 7) if smiles is None
                 else batch_graphs([featurize(parse_smiles(s)) for s in smiles]))
        return (self._run(sag_project_batch, expert_mlp, batch, dtype, unrouted),
                self._run(sag_project_chain, expert_mlp_chain, batch, dtype,
                          unrouted))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("smiles", [("C", "[NH4+]", "O"), ("CC(N)C=O",),
                                        None])
    def test_bits(self, smiles, dtype):
        (logits, *grads), (want, *want_grads) = self._both(smiles, dtype,
                                                           unrouted=False)
        assert logits.tobytes() == want.tobytes()
        for a, b in zip(grads, want_grads, strict=True):
            assert a.dtype == b.dtype == dtype
            assert rel_error(a, b) <= REORDER_TOL[np.dtype(dtype)]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("smiles", [("C", "[NH4+]", "O"), ("CC(N)C=O",),
                                        None])
    def test_unrouted_samples(self, smiles, dtype):
        """The upstream gradient is zero on every other sample, as on the
        pairs a router leaves out (all of them at B = 1), so the backward
        skips their rows. The logits are the chain's bit for bit, each leaf
        gradient matches the chain's to round-off, and the node rows that
        only unrouted samples read get exact zeros."""
        (logits, *grads), (want, *want_grads) = self._both(smiles, dtype,
                                                           unrouted=True)
        assert logits.tobytes() == want.tobytes()
        for a, b in zip(grads, want_grads, strict=True):
            assert a.dtype == b.dtype == dtype
            assert rel_error(a, b) <= REORDER_TOL[np.dtype(dtype)]
        d_nodes, want_nodes = grads[0], want_grads[0]
        dead = ~want_nodes.any(axis=1)
        assert dead.any() and not d_nodes[dead].any()


class TestDenseLayout:
    """The dense expert layer computes every (sample, expert) vote and
    routes k_s of each sample's E; a change of layout updates these counts
    here, openly."""

    @pytest.fixture
    def shapes(self, monkeypatch):
        """Output shape of every call to the two per-expert functions."""
        seen = {"sag_project_batch": [], "expert_mlp": []}
        for name, calls in seen.items():
            def counted(*args, _real=getattr(experts_module, name), _calls=calls):
                out = _real(*args)
                _calls.append(out.shape)
                return out
            monkeypatch.setattr(experts_module, name, counted)
        return seen

    @pytest.mark.parametrize("num_graphs", [1, 6])
    def test_layer_forward_votes_on_every_pair(self, shapes, num_graphs):
        rng = np.random.default_rng(40 + num_graphs)
        batch = random_batch(rng, num_graphs)
        dim, m, k_s = 4, 6, 2
        nodes = Tensor(rng.normal(size=(batch.num_nodes, dim)))
        tasks = Tensor(rng.normal(size=(num_graphs, 3)))
        router = RouterParams.create(rng, dim, 3, num_experts=m, k_s=k_s, k_t=4)
        pool = [ExpertParams.create(rng, dim) for _ in range(m)]
        res = layer_forward(nodes, batch, tasks, pool, router, 0.5)
        assert shapes["sag_project_batch"] == [(num_graphs, dim)] * m
        assert shapes["expert_mlp"] == [(num_graphs, 1)] * m
        assert res.output.shape == (num_graphs, 1)
        assert res.expert_logits.data.size == num_graphs * m
        assert res.route.selected.size == num_graphs * k_s

    def test_model_forward_runs_every_expert_once_per_block(self, shapes):
        cfg = ModelConfig(embed_dim=4, num_gnn_layers=1,
                          num_processing_layers=2, num_experts=3, k_s=1,
                          k_t=2, task_dim=5)
        model = Model.create(cfg, seed=3)
        batch = random_batch(np.random.default_rng(3), 4)
        tasks = Tensor(np.random.default_rng(4).normal(size=(4, 5)))
        out = model.forward(batch, tasks, noise_on=False)
        assert shapes["sag_project_batch"] == [(4, 4)] * 6
        assert shapes["expert_mlp"] == [(4, 1)] * 6
        assert [res.route.selected.size for res in out.layers] == [4, 4]


class TestLayerForward:
    def _one_graph_batch(self, dim: int):
        rng = np.random.default_rng(18)
        nodes = Tensor(rng.normal(size=(3, dim)))
        edge_index = np.array([[0, 1], [1, 0], [1, 2], [2, 1]])
        return nodes, batch_graphs([graph_with(3, edge_index)])

    def test_weighted_vote(self):
        # gates [0.6, 0.4] on constant experts voting 1 and 2
        nodes, batch = self._one_graph_batch(2)
        r = zero_router(2, 2, m=2, k_s=2, k_t=2)
        r.w_mu2.data[:] = np.eye(2)
        t = Tensor(np.log(np.array([[0.6, 0.4]])))
        experts = [constant_expert(2, 1.0), constant_expert(2, 2.0)]
        res = layer_forward(nodes, batch, t, experts, r, 1.0)
        np.testing.assert_allclose(res.output.data, [[1.4]], rtol=1e-12)
        np.testing.assert_allclose(res.route.gates.data, [[0.6, 0.4]], rtol=1e-12)

    def test_single_selection_passes_logit_through(self):
        nodes, batch = self._one_graph_batch(2)
        r = zero_router(2, 2, m=2, k_s=1, k_t=2)
        r.w_mu2.data[:] = np.eye(2)
        t = Tensor(np.array([[0.0, 1.0]]))  # expert 1 wins
        experts = [constant_expert(2, -3.0), constant_expert(2, 7.5)]
        res = layer_forward(nodes, batch, t, experts, r, 1.0)
        assert res.output.data[0, 0] == 7.5
        np.testing.assert_array_equal(res.route.selected, [[1]])

    def test_all_expert_logits_retained(self):
        nodes, batch = self._one_graph_batch(3)
        rng = np.random.default_rng(19)
        r = RouterParams.create(rng, 3, 2, num_experts=4, k_s=1, k_t=2)
        experts = [ExpertParams.create(rng, 3) for _ in range(4)]
        res = layer_forward(nodes, batch, Tensor(rng.normal(size=(1, 2))),
                            experts, r, 0.5)
        assert res.expert_logits.shape == (1, 4)
        assert np.all(np.isfinite(res.expert_logits.data))

    def test_unselected_expert_gets_no_output_gradient(self):
        nodes, batch = self._one_graph_batch(2)
        r = zero_router(2, 2, m=2, k_s=1, k_t=2)
        r.w_mu2.data[:] = np.eye(2)
        t = Tensor(np.array([[1.0, 0.0]]))  # expert 0 wins
        experts = [constant_expert(2, 1.0), constant_expert(2, 2.0)]
        with Tape() as tape:
            res = layer_forward(nodes, batch, t, experts, r, 1.0)
            loss = ad.reduce_sum(res.output)
            grads = tape.backward(loss)
        assert grads[experts[0].b2][0] == 1.0
        # expert 1's gate is exactly zero, so its vote cannot move the output
        assert grads[experts[1].b2][0] == 0.0


class TestIntegrateOutputs:
    def test_zero_map_averages_layers(self):
        p = IntegratorParams(map_w=Tensor(np.zeros((3, 2)), requires_grad=True),
                             bias=Tensor(np.zeros(2), requires_grad=True))
        r, w = integrate_outputs(row(1.0, 3.0), Tensor(np.zeros((1, 3))), p)
        assert r.data[0] == pytest.approx(2.0, abs=1e-15)
        np.testing.assert_array_equal(w.data, [[0.5, 0.5]])

    def test_single_layer_passthrough(self):
        rng = np.random.default_rng(20)
        p = IntegratorParams.create(rng, task_dim=4, num_layers=1)
        r, w = integrate_outputs(row(2.5), Tensor(rng.normal(size=(1, 4))), p)
        assert r.data[0] == 2.5
        assert w.data[0, 0] == 1.0

    def test_quarter_three_quarter_blend(self):
        p = IntegratorParams(map_w=Tensor(np.zeros((2, 2)), requires_grad=True),
                             bias=Tensor(np.log(np.array([1.0, 3.0])),
                                         requires_grad=True))
        r, w = integrate_outputs(row(0.0, 4.0), Tensor(np.zeros((1, 2))), p)
        np.testing.assert_allclose(w.data, [[0.25, 0.75]], rtol=1e-15)
        assert r.data[0] == pytest.approx(3.0, abs=1e-12)

    def test_weights_are_probabilities_batched(self):
        rng = np.random.default_rng(22)
        p = IntegratorParams.create(rng, task_dim=3, num_layers=4)
        r, w = integrate_outputs(Tensor(rng.normal(size=(5, 4))),
                                 Tensor(rng.normal(size=(5, 3))), p)
        assert r.shape == (5,)
        assert np.all(w.data >= 0)
        np.testing.assert_allclose(w.data.sum(axis=1), np.ones(5), rtol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_chain_bits(self, dtype):
        """``integrate_outputs`` gives the weights, logits and gradients of
        its matmul-then-add chain bit for bit."""
        def chain(per_layer, tasks, p):
            scores = ad.add(ad.matmul(tasks, p.map_w), p.bias)
            weights = ad.softmax(scores, axis=1)
            return ad.reduce_sum(ad.mul(weights, per_layer), axis=1), weights

        def run(integrate):
            rng = np.random.default_rng(24)
            p = IntegratorParams.create(rng, task_dim=3, num_layers=2)
            for t in p.parameters().values():
                t.data = t.data.astype(dtype)
            tasks = Tensor(rng.normal(size=(4, 3)).astype(dtype))
            per_layer = Tensor(rng.normal(size=(4, 2)).astype(dtype),
                               requires_grad=True)
            with Tape() as tape:
                logits, weights = integrate(per_layer, tasks, p)
                grads = tape.backward(ad.reduce_sum(logits))
            return [logits.data, weights.data, grads[p.map_w], grads[p.bias],
                    grads[per_layer]]

        for a, b in zip(run(integrate_outputs), run(chain), strict=True):
            assert a.dtype == b.dtype == dtype
            assert a.tobytes() == b.tobytes()

    def test_vector_tasks_rejected(self):
        p = IntegratorParams.create(np.random.default_rng(23), task_dim=3,
                                    num_layers=2)
        with pytest.raises(ad.ShapeMismatch):
            integrate_outputs(row(1.0, 2.0), Tensor(np.zeros(3)), p)


class TestTaskEmbeddings:
    def test_fnv1a_known_vectors(self):
        assert fnv1a_64("") == 0xCBF29CE484222325
        assert fnv1a_64("a") == 0xAF63DC4C8601EC8C

    def test_fallback_is_deterministic_unit_vector(self):
        a = fallback_embedding("solubility")
        b = fallback_embedding("solubility")
        c = fallback_embedding("toxicity")
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)
        assert a.shape == (64,)
        assert abs(np.linalg.norm(a) - 1.0) < 1e-12

    def test_fallback_dimension_configurable(self):
        assert fallback_embedding("x", dim=16).shape == (16,)

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "tasks.tsv"
        path.write_text("tox\t0.5,-1.0,2.0\nsol\t1.0,2.0,3.0\n")
        table = load_task_embeddings(path)
        np.testing.assert_array_equal(table["tox"], [0.5, -1.0, 2.0])
        np.testing.assert_array_equal(table["sol"], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("bom", ["", "\ufeff"], ids=["plain", "bom"])
    def test_file_with_or_without_a_byte_order_mark(self, tmp_path, bom):
        path = tmp_path / "tasks.tsv"
        path.write_text(bom + "A\t1.0,0.0\nB\t0.0,1.0\n", encoding="utf-8")
        table = load_task_embeddings(path)
        assert list(table) == ["A", "B"]
        np.testing.assert_array_equal(table["A"], [1.0, 0.0])

    def test_ids_are_stripped_as_dataset_cells_are(self, tmp_path):
        path = tmp_path / "tasks.tsv"
        path.write_text("A \t1,0,0,0\nB\t0,1,0,0\n", encoding="utf-8")
        out = resolve_tasks(["A", "B"], load_task_embeddings(path),
                            allow_fallback=True, fallback_dim=4)
        np.testing.assert_array_equal(out["A"].embedding, [1, 0, 0, 0])
        np.testing.assert_array_equal(out["B"].embedding, [0, 1, 0, 0])

    def test_unequal_lengths_rejected(self, tmp_path):
        path = tmp_path / "tasks.tsv"
        path.write_text("a\t1.0,2.0\nb\t1.0,2.0,3.0\n")
        with pytest.raises(TaskEmbeddingError, match="length"):
            load_task_embeddings(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "tasks.tsv"
        path.write_text("a\t1.0,zebra\n")
        with pytest.raises(TaskEmbeddingError):
            load_task_embeddings(path)

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "tasks.tsv"
        path.write_text("a\t1.0\na\t2.0\n")
        with pytest.raises(TaskEmbeddingError, match="duplicate"):
            load_task_embeddings(path)

    def test_resolve_prefers_file_then_fallback(self):
        table = {"a": np.zeros(64)}
        out = resolve_tasks(["a", "b"], table, allow_fallback=True)
        np.testing.assert_array_equal(out["a"].embedding, np.zeros(64))
        np.testing.assert_array_equal(out["b"].embedding, fallback_embedding("b"))
        assert list(out) == ["a", "b"]

    def test_resolve_without_fallback_raises(self):
        with pytest.raises(MissingTaskEmbedding):
            resolve_tasks(["a"], {}, allow_fallback=False)

    def test_table_width_must_be_fallback_dim(self):
        # no id falls back here, so the width is checked against the model's
        # task_dim, not only against the fallback vectors
        table = {"a": np.zeros(4), "b": np.zeros(4)}
        with pytest.raises(TaskEmbeddingError, match="4 values.*task_dim is 6"):
            resolve_tasks(["a", "b"], table, fallback_dim=6)

    def test_mixed_dimensions_rejected(self):
        table = {"a": np.zeros(8), "b": np.zeros(16)}
        with pytest.raises(TaskEmbeddingError, match="mixed"):
            resolve_tasks(["a", "b"], table)
