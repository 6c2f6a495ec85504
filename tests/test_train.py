"""Optimizer, schedule, AUC-ROC, and the training loop."""

import gc
import itertools
import math
import weakref
from concurrent.futures import Future

import numpy as np
import pytest

from moce import autodiff as ad
from moce import train
from moce.autodiff import Tape, Tensor
from moce.cli import _epoch_line
from moce.experts import resolve_tasks
from moce.model import Model, ModelConfig, model_loss
from moce.synthetic import synthesize_dataset
from moce.train import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    EpochMetrics,
    MetricsLog,
    NonFiniteGradient,
    OptimizerState,
    ScheduleConfig,
    TrainSettings,
    adamw_step,
    auc_roc,
    cosine_lr,
    evaluate,
    make_batch,
    noise_rngs,
    read_metrics_log,
    shuffle_rng,
    train_epoch,
)

from arena_params import arena_params


def set_grads(state: OptimizerState, grads: dict[str, np.ndarray]) -> None:
    """Write ``grads`` into the optimizer's gradient slots, where
    ``adamw_step`` reads them."""
    for name, g in grads.items():
        state.grads[name][...] = g


class TestAdamW:
    def test_zero_gradient_zero_decay_is_identity(self):
        params = arena_params({"w": np.array([1.0, -2.0])})
        state = OptimizerState.create(params, lr=0.01, weight_decay=0.0)
        set_grads(state, {"w": np.zeros(2)})
        adamw_step(params, state, lr=0.01)
        np.testing.assert_array_equal(params["w"].data, [1.0, -2.0])

    def test_zero_gradient_applies_pure_decay(self):
        params = arena_params({"w": np.array([1.0, -2.0])})
        state = OptimizerState.create(params, lr=0.01, weight_decay=0.01)
        set_grads(state, {"w": np.zeros(2)})
        adamw_step(params, state, lr=0.01)
        np.testing.assert_allclose(params["w"].data,
                                   np.array([1.0, -2.0]) * (1 - 1e-4),
                                   rtol=1e-15)

    def test_constant_gradient_approaches_sign_update(self):
        params = arena_params({"w": np.array([0.0, 0.0])})
        state = OptimizerState.create(params, lr=0.001, weight_decay=0.0)
        g = np.array([0.37, -2.4])
        prev = params["w"].data.copy()
        for _ in range(1000):
            prev = params["w"].data.copy()
            set_grads(state, {"w": g})
            adamw_step(params, state, lr=0.001)
        delta = params["w"].data - prev
        np.testing.assert_allclose(delta, -0.001 * np.sign(g), rtol=1e-2)

    def test_first_step_closed_form(self):
        params = arena_params({"w": np.array([0.5])})
        state = OptimizerState.create(params, lr=0.1, weight_decay=0.0)
        g = np.array([0.3])
        set_grads(state, {"w": g})
        adamw_step(params, state, lr=0.1)
        # bias correction makes m-hat = g and v-hat = g^2 on step one
        expected = 0.5 - 0.1 * (0.3 / (0.3 + 1e-8))
        np.testing.assert_allclose(params["w"].data, [expected], rtol=1e-12)

    def test_non_finite_gradient_aborts_before_mutation(self):
        params = arena_params({"a": np.array([1.0]), "b": np.array([2.0])})
        state = OptimizerState.create(params, lr=0.01, weight_decay=0.01)
        grads = {"a": np.array([0.5]), "b": np.array([np.nan])}
        set_grads(state, grads)
        with pytest.raises(NonFiniteGradient, match="b"):
            adamw_step(params, state, lr=0.01)
        np.testing.assert_array_equal(params["a"].data, [1.0])
        np.testing.assert_array_equal(params["b"].data, [2.0])
        assert state.step_count == 0
        np.testing.assert_array_equal(state.m["a"], [0.0])
        np.testing.assert_array_equal(state.v["b"], [0.0])

    def test_learning_rate_override(self):
        params = arena_params({"w": np.array([1.0])})
        state = OptimizerState.create(params, lr=0.5, weight_decay=0.0)
        set_grads(state, {"w": np.array([1.0])})
        adamw_step(params, state, lr=0.0)
        np.testing.assert_array_equal(params["w"].data, [1.0])

    @pytest.mark.parametrize("split",
                             ["hand-built", "rebound", "reordered", "swapped"])
    def test_create_takes_only_one_arena(self, split):
        """``create`` lays no parameter out: parameters that are not one
        arena's views, in order, raise, naming the first out of place, and
        keep their own arrays."""
        name = {"rebound": "b", "reordered": "c"}.get(split, "a")
        values = {"a": np.ones(3), "b": np.zeros((2, 2)), "c": np.full(3, 2.0)}
        if split == "hand-built":
            params = {k: Tensor(v, requires_grad=True)
                      for k, v in values.items()}
        else:
            params = arena_params(values)
        if split == "rebound":
            params["b"].data = params["b"].data.copy()
        elif split == "reordered":
            params = dict(reversed(params.items()))
        elif split == "swapped":
            a, c = params["a"], params["c"]
            a.data, c.data = c.data, a.data
        arrays = {k: p.data for k, p in params.items()}
        with pytest.raises(train.LayoutMismatch,
                           match=f"'{name}' breaks .* one buffer"):
            OptimizerState.create(params, lr=0.01, weight_decay=0.0)
        assert all(p.data is arrays[k] for k, p in params.items())


def adamw_reference(params, grads, state, lr):
    """The out-of-place AdamW update that ``adamw_step`` runs in place."""
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    for name, p in params.items():
        g, m, v = grads[name], state.m[name], state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * np.square(g)
        update = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        p.data -= lr * (update + state.weight_decay * p.data)


class TestAdamWInPlace:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_reference_bits(self, dtype):
        rng = np.random.default_rng(5)
        shapes = {"eps": (), "w": (7, 5), "b": (5,), "col": (5, 1)}
        values = {k: rng.normal(size=s).astype(dtype) for k, s in shapes.items()}
        params, ref = arena_params(values), arena_params(values)
        state = OptimizerState.create(params, lr=0.01, weight_decay=0.01)
        ref_state = OptimizerState.create(ref, lr=0.01, weight_decay=0.01)
        sched = ScheduleConfig(total_steps=6)
        for step in range(6):
            grads = {k: rng.normal(size=s).astype(dtype)
                     for k, s in shapes.items()}
            lr = cosine_lr(step, sched, 0.01)
            set_grads(state, grads)
            adamw_step(params, state, lr=lr)
            adamw_reference(ref, grads, ref_state, lr)
        for k in shapes:
            for got, want in ((params[k].data, ref[k].data),
                              (state.m[k], ref_state.m[k]),
                              (state.v[k], ref_state.v[k])):
                assert got.dtype == want.dtype == dtype
                assert got.tobytes() == want.tobytes()

    def test_float32_update_has_no_float64_step(self):
        """With the schedule's rate, a float32 step rounds once per float32
        operation, as the all-float32 reference does."""
        rng = np.random.default_rng(6)
        values = {"w": rng.normal(size=(40, 40)).astype(np.float32)}
        params, ref = arena_params(values), arena_params(values)
        state = OptimizerState.create(params, lr=0.01, weight_decay=0.01)
        ref_state = OptimizerState.create(ref, lr=0.01, weight_decay=0.01)
        grads = {"w": rng.normal(size=(40, 40)).astype(np.float32)}
        lr = cosine_lr(3, ScheduleConfig(total_steps=10), 0.01)
        set_grads(state, grads)
        adamw_step(params, state, lr=lr)
        adamw_reference(ref, grads, ref_state, np.float32(lr))
        assert params["w"].data.tobytes() == ref["w"].data.tobytes()


def _poisoned_loss(call: int):
    """``model_loss``, with the overall loss of its call ``call`` (from 0)
    multiplied by inf, so that batch's gradients are not finite."""
    calls = itertools.count()

    def loss(*args, **kwargs):
        breakdown = model_loss(*args, **kwargs)
        if next(calls) == call:
            overall = breakdown.overall
            breakdown.overall = ad.mul(overall,
                                       Tensor(np.inf, dtype=overall.dtype))
        return breakdown

    return loss


def _reference_epochs(model, records, tasks, settings, opt, schedule,
                      epochs, loss_fn) -> int:
    """The reference for ``train_epoch``: ``backward`` into fresh arrays,
    zeros for the parameters it does not reach, and the per-tensor
    out-of-place AdamW (``adamw_reference``); returns the batches skipped
    for a non-finite gradient."""
    params = model.parameters()
    step = skipped = 0
    for epoch in range(epochs):
        order = shuffle_rng(settings.seed, epoch).permutation(len(records))
        shuffled = [records[i] for i in order]
        for start in range(0, len(shuffled), settings.batch_size):
            batch, t, labels, _ = make_batch(
                shuffled[start:start + settings.batch_size], tasks,
                dtype=model.dtype)
            with Tape() as tape:
                result = model.forward(
                    batch, t, noise_on=True,
                    rngs=noise_rngs(settings.seed, step, len(model.blocks)))
                leaf = tape.backward(loss_fn(model, result, labels,
                                             settings.beta).overall)
            grads = {n: leaf[p] if p in leaf else np.zeros_like(p.data)
                     for n, p in params.items()}
            lr = cosine_lr(min(step, schedule.total_steps), schedule,
                           settings.lr)
            step += 1
            if all(np.isfinite(g).all() for g in grads.values()):
                adamw_reference(params, grads, opt, lr)
            else:
                skipped += 1
    return skipped


def _cpu_setting(name: str, m) -> None:
    """Pair every job of ``ad._both``, with one CPU, with two, or with two
    and the worker never giving a job back."""
    m.setattr(ad, "PAIR_MIN_WORK", 0)
    m.setattr(ad.os, "sched_getaffinity",
              lambda pid: {0} if name == "one-cpu" else {0, 1})
    if name == "on-worker":
        m.setattr(Future, "cancel", lambda self: False)


class TestArenaTraining:
    """``train_epoch`` with ``backward`` into the gradient arena and AdamW
    as one chunked pass gives the bytes of the per-tensor loop it
    replaced."""

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("cpus", ["one-cpu", "paired", "on-worker"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_train_epoch_matches_the_reference_loop(self, dtype, cpus,
                                                    monkeypatch):
        data = synthesize_dataset(11, {"A": "carbonyl", "B": "aromatic_ring"},
                                  16)
        tasks = resolve_tasks({r.task_id for r in data}, None, fallback_dim=6)
        cfg = ModelConfig(embed_dim=8, num_gnn_layers=2,
                          num_processing_layers=2, num_experts=6, k_s=2,
                          k_t=3, pool_ratio=0.5, task_dim=6)
        settings = TrainSettings(batch_size=8, seed=0, lr=0.01, beta=0.1)
        schedule = ScheduleConfig(total_steps=8)
        runs = []
        for _ in range(2):
            model = Model.create(cfg, seed=0, dtype=dtype)
            runs.append((model, OptimizerState.create(
                model.parameters(), lr=settings.lr, weight_decay=0.01)))
        (model, opt), (ref, ref_opt) = runs
        sizes = np.cumsum([p.data.size for p in model.parameters().values()])
        chunk = 7  # chunks and the midpoint fall inside tensors
        assert sizes[-1] // 2 not in sizes and (sizes % chunk).any()

        ref_skipped = _reference_epochs(ref, data, tasks, settings, ref_opt,
                                        schedule, 2, _poisoned_loss(2))
        skipped = step = 0
        with monkeypatch.context() as m:
            _cpu_setting(cpus, m)
            m.setattr(train, "ADAM_CHUNK", chunk)
            m.setattr(train, "model_loss", _poisoned_loss(2))
            for epoch in range(2):
                metrics, step = train_epoch(model, data, tasks, settings, opt,
                                            schedule, epoch, step)
                skipped += metrics.skipped_batches
        assert step == 8 and skipped == ref_skipped == 1
        assert opt.step_count == ref_opt.step_count == 7
        for name, p in ref.parameters().items():
            got = model.parameters()[name]
            for a, b in ((got.data, p.data), (opt.m[name], ref_opt.m[name]),
                         (opt.v[name], ref_opt.v[name])):
                assert a.dtype == b.dtype == dtype
                assert a.tobytes() == b.tobytes(), name


class TestCosineSchedule:
    def test_step_zero_is_base(self):
        sched = ScheduleConfig(total_steps=100)
        assert cosine_lr(0, sched, 0.01) == 0.01

    def test_rate_is_a_python_float(self):
        sched = ScheduleConfig(total_steps=7, min_lr_fraction=0.1)
        assert all(type(cosine_lr(s, sched, 0.01)) is float for s in range(8))

    def test_final_step_is_minimum(self):
        assert cosine_lr(100, ScheduleConfig(total_steps=100), 0.01) == 0.0
        sched = ScheduleConfig(total_steps=100, min_lr_fraction=0.1)
        assert cosine_lr(100, sched, 0.01) == pytest.approx(0.001, rel=1e-15)

    def test_midpoint_is_average(self):
        sched = ScheduleConfig(total_steps=100, min_lr_fraction=0.2)
        assert cosine_lr(50, sched, 0.01) == pytest.approx(
            (0.01 + 0.002) / 2, rel=1e-12)

    def test_monotone_decreasing(self):
        sched = ScheduleConfig(total_steps=50)
        values = [cosine_lr(s, sched, 1.0) for s in range(51)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_out_of_range_rejected(self):
        sched = ScheduleConfig(total_steps=10)
        with pytest.raises(ValueError):
            cosine_lr(11, sched, 0.01)
        with pytest.raises(ValueError):
            cosine_lr(-1, sched, 0.01)

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            ScheduleConfig(total_steps=0)
        with pytest.raises(ValueError):
            ScheduleConfig(total_steps=10, min_lr_fraction=1.5)


class TestAucRoc:
    def test_perfect_separation(self):
        assert auc_roc([0.9, 0.1], [1, 0]) == 1.0

    def test_perfectly_wrong(self):
        assert auc_roc([0.1, 0.9], [1, 0]) == 0.0

    def test_all_tied_scores(self):
        assert auc_roc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_half_tie_counting(self):
        # positive ties one negative and beats the other: (0.5 + 1) / 2
        assert auc_roc([1.0, 1.0, 0.0], [1, 0, 0]) == 0.75

    def test_single_class_returns_none(self):
        assert auc_roc([0.1, 0.9], [1, 1]) is None
        assert auc_roc([0.1, 0.9], [0, 0]) is None

    def test_a_nan_score_is_undefined_and_infinities_rank_at_the_ends(self):
        assert auc_roc([np.nan] * 4, [0, 1, 0, 1]) is None
        assert auc_roc([0.2, np.nan, 0.7, 0.1], [0, 1, 1, 0]) is None
        assert auc_roc([-np.inf, np.inf, 0.0, np.inf], [0, 1, 0, 1]) == 1.0
        assert auc_roc([np.inf, 0.5, -np.inf], [0, 1, 1]) == 0.0

    def test_matches_pairwise_counting(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(5, 60))
            scores = rng.integers(0, 6, size=n).astype(float)
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                continue
            fast = auc_roc(scores, labels)
            pos = scores[labels == 1]
            neg = scores[labels == 0]
            wins = sum((p > q) + 0.5 * (p == q) for p in pos for q in neg)
            brute = wins / (len(pos) * len(neg))
            assert fast == brute

    def test_invariant_under_monotone_transforms(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=40)
        labels = rng.integers(0, 2, size=40)
        base = auc_roc(scores, labels)
        assert auc_roc(np.exp(scores), labels) == base
        assert auc_roc(3.0 * scores + 7.0, labels) == base


class TestCounterRngs:
    def test_noise_streams_differ_by_block_and_step(self):
        a0 = noise_rngs(1, 0, 2)[0].standard_normal(4)
        b0 = noise_rngs(1, 0, 2)[1].standard_normal(4)
        a1 = noise_rngs(1, 1, 2)[0].standard_normal(4)
        again = noise_rngs(1, 0, 2)[0].standard_normal(4)
        assert not np.array_equal(a0, b0)
        assert not np.array_equal(a0, a1)
        np.testing.assert_array_equal(a0, again)

    def test_shuffle_stream_independent_of_noise(self):
        shuffles = shuffle_rng(1, 0).permutation(10)
        again = shuffle_rng(1, 0).permutation(10)
        other_epoch = shuffle_rng(1, 1).permutation(10)
        np.testing.assert_array_equal(shuffles, again)
        assert not np.array_equal(shuffles, other_epoch)


def tiny_setup(seed=0, records=40):
    data = synthesize_dataset(11, {"A": "carbonyl", "B": "aromatic_ring"},
                              records // 2)
    tasks = resolve_tasks({r.task_id for r in data}, None, fallback_dim=6)
    cfg = ModelConfig(embed_dim=4, num_gnn_layers=1, num_processing_layers=2,
                      num_experts=3, k_s=2, k_t=3, pool_ratio=0.5, task_dim=6)
    model = Model.create(cfg, seed=seed)
    settings = TrainSettings(batch_size=20, seed=seed, lr=0.01, beta=0.1)
    return model, data, tasks, settings


class TestTrainingLoop:
    def test_epoch_advances_steps_and_reports(self):
        model, data, tasks, settings = tiny_setup()
        opt = OptimizerState.create(model.parameters(), lr=settings.lr,
                                    weight_decay=0.01)
        sched = ScheduleConfig(total_steps=4)
        metrics, step = train_epoch(model, data, tasks, settings, opt, sched,
                                    epoch=0, start_step=0)
        assert step == 2  # 40 records / batch 20
        assert metrics.split == "train"
        assert set(metrics.per_task_auc) == {"A", "B"}
        assert metrics.skipped_batches == 0
        assert 0.0 < metrics.max_gate_share <= 1.0
        for key in ("base", "att", "exp", "imp", "lod", "overall"):
            assert key in metrics.loss_means

    def test_training_is_deterministic(self):
        runs = []
        for _ in range(2):
            model, data, tasks, settings = tiny_setup(seed=3)
            opt = OptimizerState.create(model.parameters(), lr=settings.lr,
                                        weight_decay=0.01)
            sched = ScheduleConfig(total_steps=4)
            step = 0
            for epoch in range(2):
                metrics, step = train_epoch(model, data, tasks, settings, opt,
                                            sched, epoch, step)
            runs.append((model, metrics))
        pa = runs[0][0].parameters()
        pb = runs[1][0].parameters()
        for name in pa:
            np.testing.assert_array_equal(pa[name].data, pb[name].data)
        assert runs[0][1].loss_means == runs[1][1].loss_means

    def test_training_changes_parameters(self):
        model, data, tasks, settings = tiny_setup(seed=4)
        before = {n: p.data.copy() for n, p in model.parameters().items()}
        opt = OptimizerState.create(model.parameters(), lr=settings.lr,
                                    weight_decay=0.01)
        train_epoch(model, data, tasks, settings, opt,
                    ScheduleConfig(total_steps=2), 0, 0)
        changed = [n for n, p in model.parameters().items()
                   if not np.array_equal(before[n], p.data)]
        assert changed

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_non_finite_batches_are_skipped_and_counted(self):
        model, data, tasks, settings = tiny_setup(seed=5)
        model.integrator.bias.data[0] = np.inf
        opt = OptimizerState.create(model.parameters(), lr=settings.lr,
                                    weight_decay=0.01)
        metrics, step = train_epoch(model, data, tasks, settings, opt,
                                    ScheduleConfig(total_steps=2), 0, 0)
        assert step == 2
        assert metrics.skipped_batches == 2
        assert opt.step_count == 0
        assert all(np.all(m == 0) for m in opt.m.values())

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_nan_logits_report_no_auc(self, tmp_path):
        model, data, tasks, settings = tiny_setup(seed=5)
        model.integrator.bias.data[0] = np.nan
        metrics = evaluate(model, data, tasks, settings)
        assert np.isnan(metrics.loss_means["base"])
        assert metrics.per_task_auc == {"A": None, "B": None}
        assert metrics.mean_auc is None
        path = tmp_path / "metrics.csv"
        MetricsLog(path).append(metrics)
        assert [row["auc"] for row in read_metrics_log(path)] == ["", "", ""]

    def test_epoch_with_no_completed_batch_reports_no_losses(
            self, monkeypatch, tmp_path):
        def fail(*args, **kwargs):
            raise NonFiniteGradient("injected")

        monkeypatch.setattr(train, "adamw_step", fail)
        model, data, tasks, settings = tiny_setup(seed=6)
        opt = OptimizerState.create(model.parameters(), lr=settings.lr,
                                    weight_decay=0.01)
        metrics, _ = train_epoch(model, data, tasks, settings, opt,
                                 ScheduleConfig(total_steps=2), 0, 0)
        assert metrics.skipped_batches == 2
        assert metrics.loss_means == {} and metrics.max_gate_share is None
        path = tmp_path / "metrics.csv"
        MetricsLog(path).append(metrics)
        assert path.read_text().splitlines()[1] == "0,__mean__,train,,,,,,,"
        line = _epoch_line(metrics)
        assert "base loss undefined" in line
        assert "max gate share undefined" in line

    def test_finished_tape_is_freed_without_the_cyclic_collector(self):
        model, data, tasks, settings = tiny_setup(seed=7)
        params = model.parameters()
        opt = OptimizerState.create(params, lr=settings.lr,
                                    weight_decay=0.01)

        def one_step():
            batch, t_matrix, labels, _ = make_batch(data[:20], tasks)
            with Tape() as tape:
                result = model.forward(batch, t_matrix, noise_on=True,
                                       rngs=noise_rngs(0, 0, len(model.blocks)))
                loss = model_loss(model, result, labels, settings.beta).overall
                tape.backward(loss, into=dict(zip(params.values(),
                                                  opt.grads.values())))
            adamw_step(params, opt, lr=settings.lr)
            return weakref.ref(tape)

        gc.disable()
        try:
            tape_ref = one_step()
            assert tape_ref() is None
        finally:
            gc.enable()

    def test_each_step_frees_its_graph_before_the_next_forward(
            self, monkeypatch):
        model, data, tasks, settings = tiny_setup(seed=8, records=60)
        opt = OptimizerState.create(model.parameters(), lr=settings.lr,
                                    weight_decay=0.01)
        forward = Model.forward
        last_step: list = []  # weak references to a step's tape and outputs
        dead_at_forward = []

        def watched(self, *args, **kwargs):
            dead_at_forward.append([ref() is None for ref in last_step])
            result = forward(self, *args, **kwargs)
            last_step[:] = [weakref.ref(ad._state.tape), weakref.ref(result)]
            return result

        def watched_loss(*args, **kwargs):
            breakdown = model_loss(*args, **kwargs)
            last_step.append(weakref.ref(breakdown))
            return breakdown

        monkeypatch.setattr(Model, "forward", watched)
        monkeypatch.setattr(train, "model_loss", watched_loss)
        gc.disable()
        try:
            _, step = train_epoch(model, data, tasks, settings, opt,
                                  ScheduleConfig(total_steps=3), 0, 0)
        finally:
            gc.enable()
        assert step == 3
        assert dead_at_forward == [[], [True] * 3, [True] * 3]

    def test_evaluate_is_deterministic_and_noise_free(self):
        model, data, tasks, settings = tiny_setup(seed=6)
        a = evaluate(model, data, tasks, settings, epoch=0)
        b = evaluate(model, data, tasks, settings, epoch=0)
        assert a.per_task_auc == b.per_task_auc
        assert a.loss_means == b.loss_means
        for auc in a.per_task_auc.values():
            assert auc is not None and 0.0 <= auc <= 1.0

    def test_make_batch_shapes(self):
        _, data, tasks, _ = tiny_setup()
        batch, t, labels, ids = make_batch(data[:5], tasks)
        assert batch.num_graphs == 5
        assert t.shape == (5, 6)
        assert labels.shape == (5,)
        assert ids == [r.task_id for r in data[:5]]


class TestIndexPlans:
    """A batch's index vectors are planned once (``ad.Index``): one training
    step at the acceptance shape flattens each of them at most once per row
    width, however many gathers and scatters read it."""

    def test_a_step_flattens_each_planned_index_once_per_width(
            self, monkeypatch):
        data = synthesize_dataset(11, {"A": "carbonyl", "B": "aromatic_ring"}, 8)
        tasks = resolve_tasks({r.task_id for r in data}, None, fallback_dim=6)
        cfg = ModelConfig(embed_dim=8, num_gnn_layers=2,
                          num_processing_layers=2, num_experts=6, k_s=2,
                          k_t=3, pool_ratio=0.5, task_dim=6)
        model = Model.create(cfg, seed=0)
        settings = TrainSettings(batch_size=16, seed=0, lr=0.01, beta=0.1)
        opt = OptimizerState.create(model.parameters(), lr=settings.lr,
                                    weight_decay=0.01)
        batches = []  # kept alive, so that no id() below is reused

        def kept(graphs, _real=train.batch_graphs):
            batches.append(_real(graphs))
            return batches[-1]

        returned = {}  # (id of the index, width) -> every array returned

        def counted(index, width, _real=ad.Index.flat):
            flat = _real(index, width)
            returned.setdefault((id(index), width), []).append(flat)
            return flat

        monkeypatch.setattr(train, "batch_graphs", kept)
        monkeypatch.setattr(ad.Index, "flat", counted)
        _, step = train_epoch(model, data, tasks, settings, opt,
                              ScheduleConfig(total_steps=1), 0, 0)
        assert step == 1 and len(batches) == 1
        names = {id(getattr(batches[0], name)): name for name in
                 ("src", "dst", "graph_ids", "prop_src", "prop_dst")}
        planned = {(names[i], width): flats
                   for (i, width), flats in returned.items() if i in names}
        # GIN: dst forward and src backward, per layer of each block; the
        # readout per block, and each expert view's pooling scatter, which
        # gathers its kept rows from the readout's; each expert's view,
        # forward and backward
        assert {key: len(flats) for key, flats in planned.items()} == {
            ("dst", 8): 4, ("src", 8): 4, ("graph_ids", 8): 2 + 12,
            ("prop_dst", 1): 12, ("prop_src", 1): 12}
        # built once: every call returned the array the first call built
        for flats in planned.values():
            assert all(flat is flats[0] for flat in flats)


class TestMetricsLog:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "metrics.csv"
        log = MetricsLog(path)
        metrics = EpochMetrics(
            epoch=3, split="valid",
            per_task_auc={"A": 0.75, "B": None},
            mean_auc=0.75,
            loss_means={"base": 0.5, "att": 0.25, "exp": 1.5, "imp": 0.1,
                        "lod": 0.2, "overall": 0.705},
            max_gate_share=0.6,
        )
        log.append(metrics)
        rows = read_metrics_log(path)
        assert len(rows) == 3  # A, B, __mean__
        by_task = {r["task_id"]: r for r in rows}
        assert by_task["A"]["auc"] == "0.7500000000"
        assert by_task["B"]["auc"] == ""  # undefined stays blank
        assert by_task["__mean__"]["split"] == "valid"
        assert by_task["A"]["epoch"] == "3"
        assert by_task["A"]["base"] == "0.5000000000"
        assert by_task["A"]["max_gate_share"] == "0.6000000000"
