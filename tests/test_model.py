"""Full-model assembly: init determinism, forward shapes, loss composition."""

import copy
import hashlib
import tracemalloc

import numpy as np
import pytest

from moce import autodiff as ad
from moce import train
from moce.autodiff import Tape, Tensor, finite_diff_check
from moce.checkpoint import (load_checkpoint, restore_model,
                             restore_optimizer, save_checkpoint)
from moce.encoder import batch_graphs
from moce.experts import resolve_tasks
from moce.losses import LossToggles, expert_specific_loss
from moce.model import Model, ModelConfig, model_loss
from moce.molgraph import featurize, parse_smiles
from moce.synthetic import synthesize_dataset
from moce.train import OptimizerState, adamw_step, make_batch


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

    @pytest.mark.parametrize("dtype, digest", [
        (np.float64, "3015d17ad23400e19baa84b5e607fb06"
                     "f9a2108310933126489454879a4b6d5c"),
        (np.float32, "93d5780c54ac6acdd0f03941588195ef"
                     "4c1b1b10617c613916feeae3fec7a377"),
    ])
    def test_initial_bytes_are_pinned(self, dtype, digest):
        """No draw, draw order or cast may move: the sha256 of every
        parameter's bytes, in ``parameters()`` order."""
        h = hashlib.sha256()
        for p in Model.create(tiny_config(), seed=0,
                              dtype=dtype).parameters().values():
            assert p.dtype == dtype
            h.update(p.data.tobytes())
        assert h.hexdigest() == digest


def _arena_of(arrays: list[np.ndarray], dtype) -> np.ndarray:
    """The one buffer that ``arrays`` are views of, once checked that they
    lie in it in order, C-ordered, with no gap and no overlap."""
    base = arrays[0].base
    assert isinstance(base, np.ndarray) and base.ndim == 1
    assert base.dtype == dtype and base.flags.owndata
    start = base.__array_interface__["data"][0]
    offset = 0
    for a in arrays:
        assert a.base is base and a.dtype == dtype and a.flags.c_contiguous
        assert a.__array_interface__["data"][0] == start + offset * a.itemsize
        offset += a.size
    assert offset == base.size
    return base


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
class TestArena:
    """Parameters and each kind of Adam moment are views of one buffer each;
    every in-place write reaches that buffer."""

    @staticmethod
    def build(dtype, seed=0):
        model = Model.create(tiny_config(), seed=seed, dtype=dtype)
        opt = OptimizerState.create(model.parameters(), lr=0.01,
                                    weight_decay=0.01)
        return model, opt

    @staticmethod
    def arenas(model, opt, dtype):
        params = [p.data for p in model.parameters().values()]
        return (_arena_of(params, dtype), _arena_of(list(opt.m.values()), dtype),
                _arena_of(list(opt.v.values()), dtype))

    def test_parameters_and_moments_share_one_layout(self, dtype):
        model, opt = self.build(dtype)
        params = model.parameters()
        assert list(opt.m) == list(opt.v) == list(params)
        bases = self.arenas(model, opt, dtype)
        assert len({id(b) for b in bases}) == 3
        for name, p in params.items():
            assert opt.m[name].shape == opt.v[name].shape == p.shape
        assert bases[0].size == sum(p.data.size for p in params.values())
        assert not bases[1].any() and not bases[2].any()

    def test_adamw_step_writes_into_the_arenas(self, dtype):
        model, opt = self.build(dtype)
        params = model.parameters()
        bases = self.arenas(model, opt, dtype)
        before = [b.copy() for b in bases]
        rng = np.random.default_rng(1)
        for n, p in params.items():
            opt.grads[n][...] = rng.normal(size=p.shape).astype(dtype)
        adamw_step(params, opt, lr=0.01)
        after = self.arenas(model, opt, dtype)
        assert all(a is b for a, b in zip(after, bases))
        assert all((b != old).any() for b, old in zip(bases, before))

    def test_restore_copies_into_the_arenas(self, dtype, tmp_path):
        source, source_opt = self.build(dtype, seed=1)
        rng = np.random.default_rng(2)
        params = source.parameters()
        for n, p in params.items():
            source_opt.grads[n][...] = rng.normal(size=p.shape).astype(dtype)
        adamw_step(params, source_opt, lr=0.01)
        save_checkpoint(tmp_path / "c.bin", "", source, source_opt, 0, 0, 0)
        model, opt = self.build(dtype)
        bases = self.arenas(model, opt, dtype)
        ckpt = load_checkpoint(tmp_path / "c.bin")
        restore_model(model, ckpt)
        restore_optimizer(opt, ckpt)
        after = self.arenas(model, opt, dtype)
        assert all(a is b for a, b in zip(after, bases))
        for got, want in zip(bases, self.arenas(source, source_opt, dtype)):
            assert got.tobytes() == want.tobytes()

    def test_finite_diff_check_perturbs_the_arena(self, dtype):
        model, _ = self.build(dtype)
        base = _arena_of([p.data for p in model.parameters().values()], dtype)
        x = model.blocks[0].gin_layers[0].b1
        first = (x.data.__array_interface__["data"][0]
                 - base.__array_interface__["data"][0]) // base.itemsize
        original = base.copy()
        seen = []

        def f(t):
            seen.append(np.flatnonzero(base != original).tolist())
            return ad.reduce_sum(ad.mul(t, t))

        finite_diff_check(f, [x])
        # the tape run, then each coordinate up and down, in the arena
        assert seen == [[]] + [[first + j] for j in range(x.data.size)
                               for _ in range(2)]
        assert base.tobytes() == original.tobytes()
        assert x.data.base is base

    def test_gradients_are_a_fourth_buffer_in_the_layout(self, dtype):
        model, opt = self.build(dtype)
        params = model.parameters()
        assert list(opt.grads) == list(params)
        grads = _arena_of(list(opt.grads.values()), dtype)
        bases = self.arenas(model, opt, dtype)
        assert all(grads is not b for b in bases)
        assert grads.size == bases[0].size
        for name, p in params.items():
            assert opt.grads[name].shape == p.shape
        assert not grads.any()

    def test_adamw_reads_the_gradient_buffer_on_every_step(self, dtype,
                                                            monkeypatch):
        model, opt = self.build(dtype)
        records = synthesize_dataset(3, {"A": "carbonyl"}, 8)
        tasks = resolve_tasks(["A"], None, fallback_dim=5)
        seen = []

        def watched(params, state, lr, _real=train.adamw_step):
            seen.append([g.base for g in state.grads.values()])
            _real(params, state, lr)

        monkeypatch.setattr(train, "adamw_step", watched)
        train.train_epoch(model, records, tasks,
                          train.TrainSettings(batch_size=4, seed=0, lr=0.01,
                                              beta=0.1),
                          opt, train.ScheduleConfig(total_steps=2), 0, 0)
        grads = _arena_of(list(opt.grads.values()), dtype)
        assert len(seen) == 2 and opt.step_count == 2
        assert all(base is grads for bases in seen for base in bases)

    def test_backward_lands_each_gradient_in_its_slot(self, dtype):
        """Every slot gets the bits ``backward`` returns without slots, and
        zeros for a parameter the loss does not reach."""
        model, opt = self.build(dtype)
        params = model.parameters()
        batch = tiny_batch()
        tasks = Tensor(np.random.default_rng(4).normal(size=(2, 5)), dtype=dtype)

        def backward(into):
            with Tape() as tape:
                out = model.forward(batch, tasks, noise_on=False)
                loss = model_loss(model, out, [1.0, 0.0], beta=0.5,
                                  toggles=LossToggles(lod=False)).overall
                return tape.backward(loss, into=into)

        returned = backward(None)
        unreached = [n for n, p in params.items() if p not in returned]
        assert unreached  # the noise weights, with noise and load loss off
        for slot in opt.grads.values():
            slot.fill(7.0)  # a stale step's values
        assert backward(dict(zip(params.values(), opt.grads.values()))) == {}
        for name, p in params.items():
            want = returned.get(p, np.zeros_like(p.data))
            assert want.dtype == dtype
            assert opt.grads[name].tobytes() == want.tobytes(), name

    def test_row_sparse_first_arrival_leaves_zeros_outside_its_rows(self,
                                                                   dtype):
        x = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True,
                   dtype=dtype)
        slots = {x: np.full((3, 2), 7.0, dtype)}
        with Tape() as tape:
            out = ad.pool_rows(x, Tensor(np.ones((3, 1)), dtype=dtype),
                               np.array([0.5, 0.0, 0.5], dtype),
                               np.zeros(3, int), 1)
            assert tape.backward(ad.reduce_sum(out), into=slots) == {}
        want = np.array([[0.5, 0.5], [0.0, 0.0], [0.5, 0.5]], dtype)
        assert slots[x].tobytes() == want.tobytes()

    def test_deepcopies_train_to_the_originals_bytes(self, dtype):
        """A model and its optimizer copied separately, as a serving
        workload copies them, keep one buffer of each kind and train as the
        originals do."""
        model, opt = self.build(dtype)
        records = synthesize_dataset(3, {"A": "carbonyl"}, 8)
        tasks = resolve_tasks(["A"], None, fallback_dim=5)
        settings = train.TrainSettings(batch_size=4, seed=0, lr=0.01,
                                       beta=0.1)
        schedule = train.ScheduleConfig(total_steps=4)
        train.train_epoch(model, records, tasks, settings, opt, schedule, 0, 0)
        clone, clone_opt = copy.deepcopy(model), copy.deepcopy(opt)
        originals = self.arenas(model, opt, dtype)
        copies = self.arenas(clone, clone_opt, dtype)
        for a, b in zip(originals, copies):
            assert not np.shares_memory(a, b)
            assert a.tobytes() == b.tobytes()
        grads = _arena_of(list(clone_opt.grads.values()), dtype)
        assert not grads.any() and clone_opt.step_count == opt.step_count
        for m, o in ((model, opt), (clone, clone_opt)):
            train.train_epoch(m, records, tasks, settings, o, schedule, 1, 2)
        for a, b in zip(originals, self.arenas(clone, clone_opt, dtype)):
            assert a.tobytes() == b.tobytes()

    @staticmethod
    def out_of_layout(params: dict, how: str) -> tuple[dict, str]:
        """``params`` taken out of their layout ``how``, and the name of the
        first parameter out of place. "rebound" and "swapped" change the
        model's own tensors."""
        if how == "rebound":
            bias = params["integrator.bias"]
            bias.data = bias.data.copy()
            return params, "integrator.bias"
        if how == "swapped":  # same shapes, each in the other's place
            a, b = params["block0.expert0.w1"], params["block0.expert1.w1"]
            a.data, b.data = b.data, a.data
            return params, "block0.expert0.w1"
        if how == "deepcopied":
            return copy.deepcopy(params), next(iter(params))
        return dict(reversed(params.items())), next(reversed(params))

    @pytest.mark.parametrize("split",
                             ["rebound", "deepcopied", "reordered", "swapped"])
    def test_adamw_step_rejects_parameters_outside_the_layout(self, dtype,
                                                              split):
        model, opt = self.build(dtype)
        moments = self.arenas(model, opt, dtype)[1:]
        before = [b.copy() for b in moments]
        params, name = self.out_of_layout(model.parameters(), split)
        values = [p.data.copy() for p in params.values()]
        for g in opt.grads.values():
            g[...] = 1
        with pytest.raises(train.LayoutMismatch,
                           match=f"'{name}' breaks the optimizer's layout"):
            adamw_step(params, opt, lr=0.01)
        assert opt.step_count == 0
        assert all(a.tobytes() == b.tobytes() for a, b in zip(moments, before))
        assert all(p.data.tobytes() == v.tobytes()
                   for p, v in zip(params.values(), values))

    @pytest.mark.parametrize("split", ["rebound", "swapped", "other-model"])
    def test_train_epoch_moves_nothing_outside_the_layout(self, dtype, split):
        """``train_epoch`` raises, naming the parameter, before a parameter
        or moment moves: also for an optimizer made for another model,
        whose gradient slots do not fit this one's."""
        model, opt = self.build(dtype)
        if split == "other-model":
            other = Model.create(tiny_config(num_experts=4), seed=0,
                                 dtype=dtype)
            opt = OptimizerState.create(other.parameters(), lr=0.01,
                                        weight_decay=0.01)
            # the first shape that differs: w_mu1 has one column an expert
            params, name = model.parameters(), "block0.router.w_mu1"
        else:
            params, name = self.out_of_layout(model.parameters(), split)
        values = [p.data.copy() for p in params.values()]
        moments = [_arena_of(list(d.values()), dtype) for d in (opt.m, opt.v)]
        before = [a.copy() for a in moments]
        records = synthesize_dataset(3, {"A": "carbonyl"}, 8)
        tasks = resolve_tasks(["A"], None, fallback_dim=5)
        with pytest.raises(train.LayoutMismatch, match=f"'{name}'"):
            train.train_epoch(model, records, tasks,
                              train.TrainSettings(batch_size=4, seed=0,
                                                  lr=0.01, beta=0.1),
                              opt, train.ScheduleConfig(total_steps=2), 0, 0)
        assert opt.step_count == 0
        assert all(p.data.tobytes() == v.tobytes()
                   for p, v in zip(model.parameters().values(), values))
        assert all(a.tobytes() == b.tobytes() for a, b in zip(moments, before))

    def test_deepcopy_is_independent(self, dtype):
        model, _ = self.build(dtype)
        base = _arena_of([p.data for p in model.parameters().values()], dtype)
        original = base.copy()
        clone = copy.deepcopy(model)
        pairs = list(zip(model.parameters().values(),
                         clone.parameters().values()))
        for p, c in pairs:
            assert not np.shares_memory(p.data, c.data)
            assert c.data.tobytes() == p.data.tobytes()
            c.data += 1
        assert base.tobytes() == original.tobytes()
        base *= 2
        for p, c in pairs:
            np.testing.assert_array_equal(c.data, p.data / 2 + 1)


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
        assert batch.src.ids.shape == batch.dst.ids.shape == (0,)
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
        lists, dicts and nested functions finds. The walk runs before
        ``backward``, which drops every closure it runs, leaving the nodes
        only their leaf inputs."""
        model = Model.create(tiny_config(), seed=3)
        rng = np.random.default_rng(3)
        rngs = [np.random.default_rng(b) for b in range(2)]
        with Tape() as tape:
            out = model.forward(tiny_batch(("CCO", "C=O", "CC(=O)O")),
                                task_matrix(rng, 3), noise_on=True, rngs=rngs)
            lb = model_loss(model, out, np.array([1.0, 0.0, 1.0]), beta=0.1)
            total = set()
            for node in tape.nodes:
                shallow = _node_buffers(node, deep=False)
                assert shallow == _node_buffers(node, deep=True)
                total |= shallow
            assert len(total) > len(model.parameters())
            tape.backward(lb.overall)
        left = set().union(*(_node_buffers(node, deep=True)
                             for node in tape.nodes))
        # the leaf inputs left are parameters, all views of one arena
        (arena,) = {id(p.data.base) for p in model.parameters().values()}
        assert left == {arena}

    def test_only_the_batch_plans_keep_flat_indices(self):
        """The ``ad.Index`` objects in the vjp closures' cells that hold a
        cached flat index are the batch's own plans, which live with the
        batch. ``pool_rows``' kept rows differ per expert: a closure holding
        their Index would keep one flat index per view until ``backward``
        (about 230 MB in a paper-shape step)."""
        model = Model.create(tiny_config(), seed=3)
        rng = np.random.default_rng(3)
        rngs = [np.random.default_rng(b) for b in range(2)]
        batch = tiny_batch(("CCO", "C=O", "CC(=O)O"))
        plans = {id(getattr(batch, name)) for name in
                 ("src", "dst", "graph_ids", "prop_src", "prop_dst")}
        with Tape() as tape:
            out = model.forward(batch, task_matrix(rng, 3), noise_on=True,
                                rngs=rngs)
            model_loss(model, out, np.array([1.0, 0.0, 1.0]), beta=0.1)
        cached = set()
        for node in tape.nodes:
            for cell in node.vjp.__closure__ or ():
                try:
                    value = cell.cell_contents
                except ValueError:  # empty cell
                    continue
                if isinstance(value, ad.Index) and value._flat:
                    cached.add(id(value))
        assert cached and cached <= plans

    def test_backward_frees_the_graph_as_it_goes(self):
        """At the acceptance shape, the memory that ``backward`` adds above
        the forward pass's end stays under twice the parameter gradients'
        bytes: each node's kept arrays go once its gradient is added in. It
        reads 0.95 times; a backward that kept the whole graph until it
        returned read 5.7 times."""
        cfg = ModelConfig(embed_dim=32, num_gnn_layers=2,
                          num_processing_layers=2, num_experts=8, k_s=2,
                          k_t=4, pool_ratio=0.5, task_dim=16)
        records = synthesize_dataset(
            seed=2, tasks={"c": "carbonyl", "a": "aromatic_ring"},
            per_task=16)
        tasks = resolve_tasks(["a", "c"], None, fallback_dim=16)
        batch, t, labels, _ = make_batch(records, tasks)
        model = Model.create(cfg, seed=2)
        rngs = [np.random.default_rng(b) for b in range(2)]
        tracemalloc.start()
        try:
            with Tape() as tape:
                out = model.forward(batch, t, noise_on=True, rngs=rngs)
                loss = model_loss(model, out, labels, beta=0.1).overall
                forward_end = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                grads = tape.backward(loss)
                backward_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        grad_bytes = sum(g.nbytes for g in grads.values())
        assert len(records) == 32
        assert backward_peak - forward_end < 2.0 * grad_bytes


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
