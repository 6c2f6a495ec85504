"""Full-model assembly: init determinism, forward shapes, loss composition."""

import numpy as np
import pytest

from moce.autodiff import Tape, Tensor, finite_diff_check
from moce.encoder import batch_graphs
from moce.losses import LossToggles, expert_specific_loss
from moce.model import Model, ModelConfig, model_loss
from moce.molgraph import featurize, parse_smiles


def tiny_config(**overrides) -> ModelConfig:
    base = dict(embed_dim=4, num_gnn_layers=2, num_processing_layers=2,
                num_experts=3, k_s=2, k_t=3, pool_ratio=0.5, task_dim=5)
    base.update(overrides)
    return ModelConfig(**base)


def tiny_batch(smiles=("CCO", "C=O")):
    return batch_graphs([featurize(parse_smiles(s)) for s in smiles])


def task_matrix(rng, batch_size: int, dim: int = 5) -> Tensor:
    return Tensor(rng.normal(size=(batch_size, dim)))


class TestCreation:
    def test_same_seed_same_parameters(self):
        cfg = tiny_config()
        a = Model.create(cfg, seed=11)
        b = Model.create(cfg, seed=11)
        pa, pb = a.parameters(), b.parameters()
        assert pa.keys() == pb.keys()
        for name in pa:
            np.testing.assert_array_equal(pa[name].data, pb[name].data)

    def test_different_seed_differs(self):
        cfg = tiny_config()
        a = Model.create(cfg, seed=11)
        b = Model.create(cfg, seed=12)
        assert any(not np.array_equal(a.parameters()[n].data,
                                      b.parameters()[n].data)
                   for n in a.parameters())

    def test_parameter_names_cover_structure(self):
        # the checkpoint format: every key, in order
        assert list(Model.create(tiny_config(), seed=0).parameters()) == [
            "input.node_embed.0", "input.node_embed.1", "input.node_embed.2",
            "input.node_embed.3", "input.node_embed.4", "input.edge_embed.0",
            "input.edge_embed.1", "block0.gin0.epsilon", "block0.gin0.w1",
            "block0.gin0.b1", "block0.gin0.w2", "block0.gin0.b2",
            "block0.gin1.epsilon", "block0.gin1.w1", "block0.gin1.b1",
            "block0.gin1.w2", "block0.gin1.b2", "block0.router.w_mu1",
            "block0.router.w_mu2", "block0.router.w_sigma1",
            "block0.router.w_sigma2", "block0.expert0.theta_att",
            "block0.expert0.w1", "block0.expert0.b1", "block0.expert0.w2",
            "block0.expert0.b2", "block0.expert1.theta_att",
            "block0.expert1.w1", "block0.expert1.b1", "block0.expert1.w2",
            "block0.expert1.b2", "block0.expert2.theta_att",
            "block0.expert2.w1", "block0.expert2.b1", "block0.expert2.w2",
            "block0.expert2.b2", "block1.gin0.epsilon", "block1.gin0.w1",
            "block1.gin0.b1", "block1.gin0.w2", "block1.gin0.b2",
            "block1.gin1.epsilon", "block1.gin1.w1", "block1.gin1.b1",
            "block1.gin1.w2", "block1.gin1.b2", "block1.router.w_mu1",
            "block1.router.w_mu2", "block1.router.w_sigma1",
            "block1.router.w_sigma2", "block1.expert0.theta_att",
            "block1.expert0.w1", "block1.expert0.b1", "block1.expert0.w2",
            "block1.expert0.b2", "block1.expert1.theta_att",
            "block1.expert1.w1", "block1.expert1.b1", "block1.expert1.w2",
            "block1.expert1.b2", "block1.expert2.theta_att",
            "block1.expert2.w1", "block1.expert2.b1", "block1.expert2.w2",
            "block1.expert2.b2", "integrator.map_w", "integrator.bias",
        ]
        # 7 input tables; per block 6 x 5 gin, 4 router and 60 x 5 expert
        # tensors; 2 integrator tensors
        assert len(Model.create(ModelConfig(), seed=0).parameters()) == 677

    def test_config_validation(self):
        with pytest.raises(Exception):
            tiny_config(k_s=0).validate()
        with pytest.raises(ValueError):
            tiny_config(pool_ratio=0.0).validate()
        with pytest.raises(ValueError):
            tiny_config(num_processing_layers=0).validate()
        tiny_config().validate()


class TestForward:
    def test_shapes(self):
        rng = np.random.default_rng(1)
        model = Model.create(tiny_config(), seed=3)
        batch = tiny_batch(("CCO", "C=O", "c1ccccc1"))
        out = model.forward(batch, task_matrix(rng, 3), noise_on=False)
        assert out.logits.shape == (3,)
        assert out.per_layer_logits.shape == (3, 2)
        assert out.layer_weights.shape == (3, 2)
        np.testing.assert_allclose(out.layer_weights.data.sum(axis=1),
                                   np.ones(3), rtol=1e-12)
        assert len(out.layers) == 2
        assert out.layers[0].expert_logits.shape == (3, 3)

    def test_eval_forward_deterministic(self):
        rng = np.random.default_rng(2)
        model = Model.create(tiny_config(), seed=4)
        batch = tiny_batch()
        tasks = task_matrix(rng, 2)
        a = model.forward(batch, tasks, noise_on=False)
        b = model.forward(batch, tasks, noise_on=False)
        np.testing.assert_array_equal(a.logits.data, b.logits.data)

    def test_noise_needs_generators(self):
        rng = np.random.default_rng(3)
        model = Model.create(tiny_config(), seed=5)
        batch = tiny_batch()
        with pytest.raises(ValueError):
            model.forward(batch, task_matrix(rng, 2), noise_on=True)
        with pytest.raises(ValueError):
            model.forward(batch, task_matrix(rng, 2), noise_on=True,
                          rngs=[np.random.default_rng(0)])

    def test_noise_reproducible_per_generator_seed(self):
        rng = np.random.default_rng(4)
        model = Model.create(tiny_config(), seed=6)
        batch = tiny_batch()
        tasks = task_matrix(rng, 2)
        make = lambda: [np.random.default_rng(100 + b) for b in range(2)]
        a = model.forward(batch, tasks, noise_on=True, rngs=make())
        b = model.forward(batch, tasks, noise_on=True, rngs=make())
        np.testing.assert_array_equal(a.logits.data, b.logits.data)
        for ra, rb in zip(a.layers, b.layers):
            np.testing.assert_array_equal(ra.route.h.data, rb.route.h.data)

    def test_single_block_weights_are_one(self):
        rng = np.random.default_rng(5)
        model = Model.create(tiny_config(num_processing_layers=1), seed=7)
        batch = tiny_batch()
        out = model.forward(batch, task_matrix(rng, 2), noise_on=False)
        np.testing.assert_array_equal(out.layer_weights.data, np.ones((2, 1)))
        np.testing.assert_array_equal(out.logits.data,
                                      out.per_layer_logits.data[:, 0])

    def test_blocks_see_different_node_states(self):
        # block 1 consumes block 0's output, so per-layer logits differ
        rng = np.random.default_rng(6)
        model = Model.create(tiny_config(), seed=8)
        batch = tiny_batch(("CCO",))
        out = model.forward(batch, task_matrix(rng, 1), noise_on=False)
        assert out.per_layer_logits.data[0, 0] != out.per_layer_logits.data[0, 1]


class TestModelLoss:
    def _loss(self, toggles=LossToggles(), seed=9):
        rng = np.random.default_rng(seed)
        model = Model.create(tiny_config(), seed=seed)
        batch = tiny_batch(("CCO", "C=O", "CC(=O)O"))
        out = model.forward(batch, task_matrix(rng, 3), noise_on=False)
        labels = np.array([1.0, 0.0, 1.0])
        return model, out, model_loss(model, out, labels, beta=0.1,
                                      toggles=toggles)

    def test_breakdown_invariants(self):
        _, _, lb = self._loss()
        parts = lb.floats()
        col = parts["att"] + parts["exp"] + parts["imp"] + parts["lod"]
        assert parts["overall"] == pytest.approx(parts["base"] + 0.1 * col,
                                                 rel=1e-12)

    def test_disabled_terms_are_exact_zero(self):
        _, _, lb = self._loss(LossToggles(att=False, exp=False, imp=False,
                                          lod=False))
        parts = lb.floats()
        assert parts["att"] == 0.0 and parts["exp"] == 0.0
        assert parts["imp"] == 0.0 and parts["lod"] == 0.0
        assert parts["overall"] == parts["base"]

    def test_single_toggle_removes_only_its_term(self):
        _, _, full = self._loss()
        _, _, no_att = self._loss(LossToggles(att=False))
        assert no_att.floats()["att"] == 0.0
        assert no_att.floats()["exp"] == pytest.approx(full.floats()["exp"],
                                                       rel=1e-12)

    def test_backward_fills_parameter_gradients(self):
        rng = np.random.default_rng(10)
        # k_s = m selects every expert, and noise puts sigma into the score
        # path, so every tensor in the model matters
        model = Model.create(tiny_config(k_s=3, k_t=3), seed=10)
        batch = tiny_batch(("CCO", "C=O"))
        rngs = [np.random.default_rng(50 + b) for b in range(2)]
        with Tape() as tape:
            out = model.forward(batch, task_matrix(rng, 2), noise_on=True,
                                rngs=rngs)
            lb = model_loss(model, out, np.array([1.0, 0.0]), beta=0.5)
            grads = tape.backward(lb.overall)
        for name, p in model.parameters().items():
            assert p in grads, f"{name} missing gradient"
            assert np.all(np.isfinite(grads[p])), f"{name} non-finite gradient"

    def test_float32_model_stays_float32(self):
        rng = np.random.default_rng(13)
        model = Model.create(tiny_config(k_s=3, k_t=3), seed=13,
                             dtype=np.float32)
        tasks = Tensor(rng.normal(size=(2, 5)).astype(np.float32))
        rngs = [np.random.default_rng(60 + b) for b in range(2)]
        with Tape() as tape:
            out = model.forward(tiny_batch(("CCO", "C=O")), tasks,
                                noise_on=True, rngs=rngs)
            lb = model_loss(model, out, np.array([1.0, 0.0]), beta=0.5)
            grads = tape.backward(lb.overall)
        for term in ("base", "att", "exp", "imp", "lod", "overall"):
            assert getattr(lb, term).dtype == np.float32, term
        for name, p in model.parameters().items():
            assert grads[p].dtype == np.float32, name

    def test_float32_parameters_are_the_float64_draw_cast_once(self):
        wide = Model.create(tiny_config(), seed=14)
        narrow = Model.create(tiny_config(), seed=14, dtype=np.float32)
        assert wide.dtype == np.float64 and narrow.dtype == np.float32
        for (name, w), n in zip(wide.parameters().items(),
                                narrow.parameters().values()):
            assert n.dtype == np.float32, name
            assert n.data.tobytes() == w.data.astype(np.float32).tobytes(), name

    def test_expert_loss_counts_a_selected_gate_that_underflows(self):
        # expert 1 is selected 150 below expert 0, and float32 exp(-150) is 0
        model = Model.create(tiny_config(num_processing_layers=1, num_experts=5,
                                         k_s=2, k_t=5), seed=16,
                             dtype=np.float32)
        router = model.blocks[0].router
        router.w_mu1.data[:] = 0.0
        router.w_mu2.data[:] = 0.0
        router.w_mu2.data[0] = [0.0, -150.0, -300.0, -300.0, -300.0]
        tasks = Tensor(np.eye(1, 5, dtype=np.float32))
        out = model.forward(tiny_batch(("CCO",)), tasks, noise_on=False)
        route = out.layers[0].route
        np.testing.assert_array_equal(route.selected, [[0, 1]])
        assert route.gates.data[0, 1] == 0.0
        lb = model_loss(model, out, np.array([1.0]), beta=0.1,
                        toggles=LossToggles(att=False, imp=False, lod=False))
        want = expert_specific_loss(out.layers[0].expert_logits, [1.0],
                                    np.array([[1.0, 1.0, 0.0, 0.0, 0.0]]))
        assert lb.exp.dtype == np.float32
        assert lb.exp.data.tobytes() == want.data.tobytes()

    def test_finite_differences_through_composed_model(self):
        rng = np.random.default_rng(12)
        model = Model.create(tiny_config(embed_dim=3, num_gnn_layers=1,
                                         num_experts=3, k_s=2, k_t=3), seed=21)
        batch = tiny_batch(("CCO", "C=O"))
        tasks = task_matrix(rng, 2)
        labels = np.array([1.0, 0.0])
        params = list(model.parameters().values())

        def loss_fn(*_):
            out = model.forward(batch, tasks, noise_on=False)
            return model_loss(model, out, labels, beta=0.3).overall

        report = finite_diff_check(loss_fn, params, rel_tol=1e-4)
        assert report.passed, str(report)


class TestBondlessBatch:
    """Molecules without bonds give a (0, 2) edge list, which every edge
    gather and scatter must carry through forward and backward."""

    SMILES = ("C", "[NH4+]", "O")

    def test_loss_and_gradients_finite(self):
        rng = np.random.default_rng(14)
        model = Model.create(tiny_config(k_s=3, k_t=3), seed=14)
        batch = tiny_batch(self.SMILES)
        assert batch.edge_index.shape == (0, 2)
        rngs = [np.random.default_rng(70 + b) for b in range(2)]
        with Tape() as tape:
            out = model.forward(batch, task_matrix(rng, 3), noise_on=True,
                                rngs=rngs)
            lb = model_loss(model, out, np.array([1.0, 0.0, 1.0]), beta=0.5)
            grads = tape.backward(lb.overall)
        assert all(np.isfinite(v) for v in lb.floats().values())
        for name, p in model.parameters().items():
            assert p in grads, f"{name} missing gradient"
            assert np.all(np.isfinite(grads[p])), f"{name} non-finite gradient"

    def test_finite_differences(self):
        rng = np.random.default_rng(15)
        model = Model.create(tiny_config(embed_dim=3, num_gnn_layers=1), seed=15)
        # at initialisation every bias is 0, so a node whose relu rows are
        # all dead has an exactly zero state: the next layer then sits on a
        # relu kink, where finite differences see half a slope. Offsets
        # move the check to a point where the loss is differentiable.
        for p in model.parameters().values():
            p.data += 0.1 * rng.standard_normal(p.data.shape)
        batch = tiny_batch(self.SMILES)
        tasks = task_matrix(rng, 3)
        labels = np.array([1.0, 0.0, 1.0])

        def loss_fn(*_):
            out = model.forward(batch, tasks, noise_on=False)
            return model_loss(model, out, labels, beta=0.3).overall

        report = finite_diff_check(loss_fn, list(model.parameters().values()),
                                   per_tensor=3, rng=rng)
        assert report.passed, str(report)


class TestTapeSize:
    """Nodes that one forward pass and loss record at a tiny shape. Each
    GIN layer records 6 (fused messages, the 1 + eps add and its product,
    the sum with the messages, two dense layers) and each expert 4 (fused
    projection and scores, pooling, two dense layers); an un-fused chain
    shows up here as a changed count."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_nodes_per_step(self, dtype):
        cfg = tiny_config(num_gnn_layers=1, num_experts=4, k_s=2, k_t=3)
        model = Model.create(cfg, seed=0, dtype=dtype)
        rng = np.random.default_rng(0)
        tasks = Tensor(task_matrix(rng, 2).data.astype(dtype))
        rngs = [np.random.default_rng(b) for b in range(2)]
        with Tape() as tape:
            out = model.forward(tiny_batch(), tasks, noise_on=True, rngs=rngs)
            model_loss(model, out, np.array([1.0, 0.0]), beta=0.1)
        assert len(tape.nodes) == 179

    def test_every_kept_array_is_one_level_deep(self):
        """The arrays a node keeps sit in its inputs or directly in its
        vector-Jacobian closure's cells, so a one-level walk (the one that
        counts tape bytes) finds every buffer a deep walk through tuples,
        lists, dicts and nested functions finds."""
        model = Model.create(tiny_config(), seed=3)
        rng = np.random.default_rng(3)
        rngs = [np.random.default_rng(b) for b in range(2)]
        with Tape() as tape:
            out = model.forward(tiny_batch(("CCO", "C=O", "CC(=O)O")),
                                task_matrix(rng, 3), noise_on=True, rngs=rngs)
            lb = model_loss(model, out, np.array([1.0, 0.0, 1.0]), beta=0.1)
            tape.backward(lb.overall)
        total = set()
        for node in tape.nodes:
            shallow = _node_buffers(node, deep=False)
            assert shallow == _node_buffers(node, deep=True)
            total |= shallow
        assert len(total) > len(model.parameters())


def _node_buffers(node, deep: bool) -> set[int]:
    """ids of the base buffers of the arrays reachable from ``node``'s
    inputs and its vjp's closure cells; with ``deep``, also through
    tuples, lists, dicts and the closures of nested functions."""
    found = set()

    def visit(value, depth):
        if isinstance(value, Tensor):
            value = value.data
        if isinstance(value, np.ndarray):
            while isinstance(value.base, np.ndarray):
                value = value.base
            found.add(id(value))
        elif depth and callable(value) and hasattr(value, "__closure__"):
            for cell in value.__closure__ or ():
                try:
                    visit(cell.cell_contents, depth - 1)
                except ValueError:  # empty cell
                    pass
        elif deep and isinstance(value, (tuple, list)):
            for item in value:
                visit(item, depth)
        elif deep and isinstance(value, dict):
            for item in value.values():
                visit(item, depth)

    for target in node.inputs:
        visit(target, 0)
    visit(node.vjp, float("inf") if deep else 1)
    return found
