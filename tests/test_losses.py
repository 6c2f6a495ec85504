"""Loss terms: closed-form values, invariants, gradients."""

import math

import numpy as np
import pytest

from moce import autodiff as ad
from moce.autodiff import Tape, Tensor, finite_diff_check
from moce.losses import (
    BadBeta,
    ZeroNormTheta,
    attention_cosine_loss,
    bce,
    expert_specific_loss,
    importance_loss,
    load_loss,
    overall_loss,
)


def bce_reference(z: float, y: float) -> float:
    return max(z, 0.0) - z * y + math.log1p(math.exp(-abs(z)))


def attention_loss_per_vector(thetas):
    """The attention penalty built one tape node chain per vector, as it was
    before the vectors were stacked; the stacked form must match it bit for
    bit. A zero vector becomes the first basis vector with no gradient."""
    m = len(thetas)
    total = None
    for theta in thetas:
        flat = ad.reshape(theta, (-1,))
        norm = ad.sqrt(ad.reduce_sum(ad.mul(flat, flat)))
        if norm.data == 0.0:
            basis = np.zeros(flat.shape[0], dtype=flat.dtype)
            basis[0] = 1.0
            unit = Tensor(basis)
        else:
            unit = ad.div(flat, norm)
        total = unit if total is None else ad.add(total, unit)
    dot = ad.reduce_sum(ad.mul(total, total))
    return ad.mul(dot, Tensor(1.0 / (m * m), dtype=dot.dtype))


class TestBce:
    def test_zero_logit_label_one_is_log_two(self):
        assert bce(Tensor(np.asarray(0.0)), 1).data == pytest.approx(
            math.log(2.0), abs=1e-15)

    def test_saturated_logit_vanishes(self):
        assert bce(Tensor(np.asarray(100.0)), 1).data < 1e-40

    def test_negative_logit_label_zero(self):
        assert bce(Tensor(np.asarray(-2.0)), 0).data == pytest.approx(
            0.12692801104297249, abs=1e-15)

    def test_matches_reference_elementwise(self):
        rng = np.random.default_rng(0)
        z = rng.normal(scale=3.0, size=50)
        y = rng.integers(0, 2, size=50)
        out = bce(Tensor(z), y).data
        for i in range(50):
            assert out[i] == pytest.approx(bce_reference(z[i], y[i]), rel=1e-14)

    def test_never_negative_and_never_overflows(self):
        z = np.array([-1000.0, -30.0, 0.0, 30.0, 1000.0])
        for y in (0, 1):
            out = bce(Tensor(z), y).data
            assert np.all(np.isfinite(out))
            assert np.all(out >= 0.0)

    def test_gradient_is_sigmoid_minus_label(self):
        z = Tensor(np.asarray(0.3), requires_grad=True)
        with Tape() as tape:
            grads = tape.backward(bce(z, 1))
        expected = 1.0 / (1.0 + math.exp(-0.3)) - 1.0
        assert grads[z] == pytest.approx(expected, rel=1e-14)

    def test_gradient_at_zero_logit_is_half_minus_label(self):
        z = Tensor(np.asarray(0.0), requires_grad=True)
        with Tape() as tape:
            grads = tape.backward(bce(z, 1))
        assert grads[z] == -0.5


class TestAttentionCosine:
    def test_identical_pair_gives_one(self):
        t = Tensor(np.array([1.0, 2.0]))
        loss = attention_cosine_loss([t, t])
        assert loss.data == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_pair_gives_half(self):
        a = Tensor(np.array([1.0, 0.0]))
        b = Tensor(np.array([0.0, 5.0]))
        assert attention_cosine_loss([a, b]).data == pytest.approx(0.5, abs=1e-12)

    def test_antipodal_pair_gives_zero(self):
        a = Tensor(np.array([2.0, -1.0]))
        b = Tensor(np.array([-2.0, 1.0]))
        assert attention_cosine_loss([a, b]).data == pytest.approx(0.0, abs=1e-12)

    def test_invariant_to_positive_rescaling(self):
        rng = np.random.default_rng(1)
        thetas = [Tensor(rng.normal(size=5)) for _ in range(3)]
        base = attention_cosine_loss(thetas).data
        thetas[1] = Tensor(thetas[1].data * 3.7)
        assert attention_cosine_loss(thetas).data == pytest.approx(base, abs=1e-12)

    def test_single_vector_is_one(self):
        assert attention_cosine_loss([Tensor(np.array([0.3, -0.4]))]).data == \
            pytest.approx(1.0, abs=1e-15)

    def test_matches_pairwise_double_sum(self):
        rng = np.random.default_rng(2)
        mats = [rng.normal(size=7) for _ in range(5)]
        loss = attention_cosine_loss([Tensor(v) for v in mats]).data
        units = [v / np.linalg.norm(v) for v in mats]
        brute = sum(float(u @ w) for u in units for w in units) / 25.0
        assert loss == pytest.approx(brute, abs=1e-12)

    def test_zero_norm_vector_warns_and_uses_basis(self):
        zero = Tensor(np.zeros(3))
        basis = Tensor(np.array([10.0, 0.0, 0.0]))
        with pytest.warns(ZeroNormTheta):
            loss = attention_cosine_loss([zero, basis])
        assert loss.data == pytest.approx(1.0, abs=1e-12)

    def test_bounded_between_zero_and_one(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            m = int(rng.integers(1, 6))
            thetas = [Tensor(rng.normal(size=4)) for _ in range(m)]
            value = attention_cosine_loss(thetas).data
            assert -1e-12 <= value <= 1.0 + 1e-12

    def test_column_vector_shape_accepted(self):
        # expert attention parameters are stored (dim, 1)
        t = Tensor(np.array([[1.0], [2.0]]))
        assert attention_cosine_loss([t, t]).data == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("shape, count, dtype, zero_at", [
        ((300, 1), 60, np.float64, None),
        ((32, 1), 8, np.float64, None),
        ((7,), 5, np.float64, None),
        ((8, 1), 6, np.float32, None),
        ((6, 1), 4, np.float64, 2),
    ])
    def test_bitwise_equal_to_per_vector_form(self, shape, count, dtype, zero_at):
        rng = np.random.default_rng(12)
        datas = [rng.normal(size=shape).astype(dtype) for _ in range(count)]
        if zero_at is not None:
            datas[zero_at][...] = 0.0

        def run(loss_fn):
            thetas = [Tensor(d.copy(), requires_grad=True) for d in datas]
            with Tape() as tape:
                loss = loss_fn(thetas)
                grads = tape.backward(loss)
            return loss, [grads.get(t) for t in thetas]

        ref_loss, ref_grads = run(attention_loss_per_vector)
        if zero_at is None:
            loss, grads = run(attention_cosine_loss)
        else:
            with pytest.warns(ZeroNormTheta):
                loss, grads = run(attention_cosine_loss)
        assert loss.dtype == dtype
        assert loss.data.tobytes() == ref_loss.data.tobytes()
        for i, (grad, ref) in enumerate(zip(grads, ref_grads)):
            if i == zero_at:
                assert ref is None and not np.any(grad)
            else:
                assert grad.tobytes() == ref.tobytes()

    def test_tape_nodes_do_not_grow_with_vector_count(self):
        rng = np.random.default_rng(13)
        counts = []
        for m in (3, 60):
            thetas = [Tensor(rng.normal(size=(5, 1)), requires_grad=True)
                      for _ in range(m)]
            with Tape() as tape:
                attention_cosine_loss(thetas)
            counts.append(len(tape.nodes))
        assert counts[0] == counts[1]

    def test_unequal_lengths_raise(self):
        with pytest.raises(ad.ShapeMismatch):
            attention_cosine_loss([Tensor(np.ones(3)), Tensor(np.ones(4))])

    def test_gradient_passes_finite_differences(self):
        rng = np.random.default_rng(4)
        thetas = [Tensor(rng.normal(size=5), requires_grad=True) for _ in range(3)]
        report = finite_diff_check(lambda *ts: attention_cosine_loss(list(ts)),
                                   thetas, rel_tol=1e-4)
        assert report.passed, str(report)


class TestExpertSpecific:
    def test_no_assignments_is_zero(self):
        logits = Tensor(np.array([[0.5, -1.0]]))
        out = expert_specific_loss(logits, [1], np.zeros((1, 2)))
        assert out.data == 0.0

    def test_single_pair_log_two(self):
        logits = Tensor(np.array([[0.0]]))
        out = expert_specific_loss(logits, [1], np.ones((1, 1)))
        assert out.data == pytest.approx(math.log(2.0), abs=1e-15)

    def test_full_assignment_sums_four_terms(self):
        z = np.array([[0.5, -1.0], [2.0, 0.0]])
        y = np.array([1, 0])
        out = expert_specific_loss(Tensor(z), y, np.ones((2, 2)))
        brute = sum(bce_reference(z[i, j], y[i]) for i in range(2) for j in range(2))
        assert out.data == pytest.approx(brute, rel=1e-14)

    def test_raw_sum_not_averaged(self):
        z = np.array([[0.3]])
        one = expert_specific_loss(Tensor(z), [1], np.ones((1, 1))).data
        two = expert_specific_loss(Tensor(np.vstack([z, z])), [1, 1],
                                   np.ones((2, 1))).data
        assert two == pytest.approx(2 * one, rel=1e-14)

    def test_adding_an_assignment_never_decreases(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            b, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            z = rng.normal(size=(b, m))
            y = rng.integers(0, 2, size=b)
            mask = (rng.random(size=(b, m)) < 0.5).astype(float)
            base = expert_specific_loss(Tensor(z), y, mask).data
            off = np.argwhere(mask == 0)
            if off.size == 0:
                continue
            i, j = off[rng.integers(0, len(off))]
            mask[i, j] = 1.0
            grown = expert_specific_loss(Tensor(z), y, mask).data
            assert grown >= base - 1e-15

    def test_gradient_only_through_assigned_pairs(self):
        z = Tensor(np.array([[0.5, -1.0]]), requires_grad=True)
        mask = np.array([[1.0, 0.0]])
        with Tape() as tape:
            grads = tape.backward(expert_specific_loss(z, [1], mask))
        sigma = 1.0 / (1.0 + math.exp(-0.5))
        np.testing.assert_allclose(grads[z], [[sigma - 1.0, 0.0]], rtol=1e-14)


class TestImportance:
    def test_equal_importance_is_exactly_zero(self):
        gates = Tensor(np.array([[0.5, 0.5], [0.5, 0.5]]))
        assert importance_loss(gates).data == 0.0

    def test_two_zero_importance_vector(self):
        gates = Tensor(np.array([[1.0, 0.0], [1.0, 0.0]]))
        # importances [2, 0]: mean 1, population std 1, CV^2 = 1
        assert importance_loss(gates).data == pytest.approx(1.0, abs=1e-9)

    def test_single_expert_is_zero(self):
        gates = Tensor(np.array([[1.0], [1.0], [1.0]]))
        assert importance_loss(gates).data == 0.0

    def test_gradient_passes_finite_differences(self):
        rng = np.random.default_rng(6)
        gates = Tensor(np.abs(rng.normal(size=(4, 3))) + 0.1, requires_grad=True)
        report = finite_diff_check(lambda g: importance_loss(g), [gates],
                                   rel_tol=1e-4)
        assert report.passed, str(report)


class TestLoad:
    def test_identical_probabilities_zero(self):
        p = Tensor(np.full((3, 4), 0.5))
        assert load_loss(p).data == 0.0

    def test_uneven_load_half(self):
        p = Tensor(np.array([[0.75, 0.25], [0.75, 0.25]]))
        # loads [1.5, 0.5]: mean 1, population std 0.5, CV = 0.5
        assert load_loss(p).data == pytest.approx(0.5, abs=1e-9)

    def test_gradient_passes_finite_differences(self):
        rng = np.random.default_rng(7)
        p = Tensor(rng.uniform(0.1, 0.9, size=(4, 3)), requires_grad=True)
        report = finite_diff_check(lambda q: load_loss(q), [p], rel_tol=1e-4)
        assert report.passed, str(report)


class TestOverall:
    def _parts(self, rng):
        return [Tensor(np.asarray(v)) for v in np.abs(rng.normal(size=5))]

    def test_bad_beta_rejected(self):
        rng = np.random.default_rng(8)
        base, att, exp, imp, lod = self._parts(rng)
        for beta in (0.0, -0.1, 1.0001, 2.0):
            with pytest.raises(BadBeta):
                overall_loss(base, att, exp, imp, lod, beta)
        overall_loss(base, att, exp, imp, lod, 1.0)

    def test_composition_invariants(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            base, att, exp, imp, lod = self._parts(rng)
            beta = float(rng.uniform(0.05, 1.0))
            lb = overall_loss(base, att, exp, imp, lod, beta)
            col = att.data + exp.data + imp.data + lod.data
            assert lb.overall.data == pytest.approx(base.data + beta * col,
                                                    rel=1e-12)

    def test_zero_collaboration_terms_leave_base(self):
        zero = Tensor(np.asarray(0.0))
        base = Tensor(np.asarray(0.7))
        lb = overall_loss(base, zero, zero, zero, zero, 0.3)
        assert lb.overall.data == pytest.approx(0.7, abs=1e-15)

    def test_beta_scales_linearly(self):
        rng = np.random.default_rng(10)
        base, att, exp, imp, lod = self._parts(rng)
        a = overall_loss(base, att, exp, imp, lod, 0.5)
        assert a.overall.data - a.base.data == pytest.approx(
            0.5 * (att.data + exp.data + imp.data + lod.data), rel=1e-12)

    def test_floats_exposes_every_term(self):
        rng = np.random.default_rng(11)
        lb = overall_loss(*self._parts(rng), 0.1)
        out = lb.floats()
        assert set(out) == {"base", "att", "exp", "imp", "lod", "overall"}

    def test_backward_reaches_inputs(self):
        base = Tensor(np.asarray(0.5), requires_grad=True)
        att = Tensor(np.asarray(0.2), requires_grad=True)
        zero = Tensor(np.asarray(0.0))
        with Tape() as tape:
            lb = overall_loss(base, att, zero, zero, zero, 0.25)
            grads = tape.backward(lb.overall)
        assert grads[base] == pytest.approx(1.0)
        assert grads[att] == pytest.approx(0.25)
