"""Optimizer, schedule, AUC-ROC, and the training loop."""

import gc
import math
import weakref

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


def param_dict(values: dict[str, np.ndarray]) -> dict[str, Tensor]:
    return {k: Tensor(v.copy(), requires_grad=True) for k, v in values.items()}


class TestAdamW:
    def test_zero_gradient_zero_decay_is_identity(self):
        params = param_dict({"w": np.array([1.0, -2.0])})
        state = OptimizerState.create(params, lr=0.01, weight_decay=0.0)
        adamw_step(params, {"w": np.zeros(2)}, state, lr=0.01)
        np.testing.assert_array_equal(params["w"].data, [1.0, -2.0])

    def test_zero_gradient_applies_pure_decay(self):
        params = param_dict({"w": np.array([1.0, -2.0])})
        state = OptimizerState.create(params, lr=0.01, weight_decay=0.01)
        adamw_step(params, {"w": np.zeros(2)}, state, lr=0.01)
        np.testing.assert_allclose(params["w"].data,
                                   np.array([1.0, -2.0]) * (1 - 1e-4),
                                   rtol=1e-15)

    def test_constant_gradient_approaches_sign_update(self):
        params = param_dict({"w": np.array([0.0, 0.0])})
        state = OptimizerState.create(params, lr=0.001, weight_decay=0.0)
        g = np.array([0.37, -2.4])
        prev = params["w"].data.copy()
        for _ in range(1000):
            prev = params["w"].data.copy()
            adamw_step(params, {"w": g}, state, lr=0.001)
        delta = params["w"].data - prev
        np.testing.assert_allclose(delta, -0.001 * np.sign(g), rtol=1e-2)

    def test_first_step_closed_form(self):
        params = param_dict({"w": np.array([0.5])})
        state = OptimizerState.create(params, lr=0.1, weight_decay=0.0)
        g = np.array([0.3])
        adamw_step(params, {"w": g}, state, lr=0.1)
        # bias correction makes m-hat = g and v-hat = g^2 on step one
        expected = 0.5 - 0.1 * (0.3 / (0.3 + 1e-8))
        np.testing.assert_allclose(params["w"].data, [expected], rtol=1e-12)

    def test_non_finite_gradient_aborts_before_mutation(self):
        params = param_dict({"a": np.array([1.0]), "b": np.array([2.0])})
        state = OptimizerState.create(params, lr=0.01, weight_decay=0.01)
        grads = {"a": np.array([0.5]), "b": np.array([np.nan])}
        with pytest.raises(NonFiniteGradient, match="b"):
            adamw_step(params, grads, state, lr=0.01)
        np.testing.assert_array_equal(params["a"].data, [1.0])
        np.testing.assert_array_equal(params["b"].data, [2.0])
        assert state.step_count == 0
        np.testing.assert_array_equal(state.m["a"], [0.0])
        np.testing.assert_array_equal(state.v["b"], [0.0])

    def test_learning_rate_override(self):
        params = param_dict({"w": np.array([1.0])})
        state = OptimizerState.create(params, lr=0.5, weight_decay=0.0)
        adamw_step(params, {"w": np.array([1.0])}, state, lr=0.0)
        np.testing.assert_array_equal(params["w"].data, [1.0])


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
        params, ref = param_dict(values), param_dict(values)
        state = OptimizerState.create(params, lr=0.01, weight_decay=0.01)
        ref_state = OptimizerState.create(ref, lr=0.01, weight_decay=0.01)
        sched = ScheduleConfig(total_steps=6)
        for step in range(6):
            grads = {k: rng.normal(size=s).astype(dtype)
                     for k, s in shapes.items()}
            lr = cosine_lr(step, sched, 0.01)
            adamw_step(params, grads, state, lr=lr)
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
        params, ref = param_dict(values), param_dict(values)
        state = OptimizerState.create(params, lr=0.01, weight_decay=0.01)
        ref_state = OptimizerState.create(ref, lr=0.01, weight_decay=0.01)
        grads = {"w": rng.normal(size=(40, 40)).astype(np.float32)}
        lr = cosine_lr(3, ScheduleConfig(total_steps=10), 0.01)
        adamw_step(params, grads, state, lr=lr)
        adamw_reference(ref, grads, ref_state, np.float32(lr))
        assert params["w"].data.tobytes() == ref["w"].data.tobytes()


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
        opt = OptimizerState.create(model.parameters(), lr=settings.lr)
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
            opt = OptimizerState.create(model.parameters(), lr=settings.lr)
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
        opt = OptimizerState.create(model.parameters(), lr=settings.lr)
        train_epoch(model, data, tasks, settings, opt,
                    ScheduleConfig(total_steps=2), 0, 0)
        changed = [n for n, p in model.parameters().items()
                   if not np.array_equal(before[n], p.data)]
        assert changed

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_non_finite_batches_are_skipped_and_counted(self):
        model, data, tasks, settings = tiny_setup(seed=5)
        model.integrator.bias.data[0] = np.inf
        opt = OptimizerState.create(model.parameters(), lr=settings.lr)
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
        opt = OptimizerState.create(model.parameters(), lr=settings.lr)
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
        opt = OptimizerState.create(params, lr=settings.lr)

        def one_step():
            batch, t_matrix, labels, _ = make_batch(data[:20], tasks)
            with Tape() as tape:
                result = model.forward(batch, t_matrix, noise_on=True,
                                       rngs=noise_rngs(0, 0, len(model.blocks)))
                loss = model_loss(model, result, labels, settings.beta).overall
                grads = tape.backward(loss)
            adamw_step(params, {n: grads[p] for n, p in params.items()}, opt,
                       lr=settings.lr)
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
        opt = OptimizerState.create(model.parameters(), lr=settings.lr)
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
