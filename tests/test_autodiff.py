"""Tests for the reverse-mode autodiff engine.

Covers exact values for the closed-form cases, gradient correctness for
every differentiable op against central finite differences, the tape's
accumulation semantics, and the documented error conditions.
"""

import gc
import math
import multiprocessing
import sys
import threading
import time
import weakref
import zlib
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from moce import autodiff as ad
from moce.autodiff import (
    AllMaskedRow,
    EmptyAxis,
    FdReport,
    IndexOutOfRange,
    NotScalar,
    ShapeMismatch,
    Tape,
    TapeConsumed,
    Tensor,
    finite_diff_check,
    neg_inf,
)

from arena_params import arena_params
from reference_model import REORDER_TOL, rel_error


class TestElementwiseValues:
    """Forward values of the elementwise family."""

    def test_softplus_at_zero_is_log_two(self):
        x = Tensor(0.0)
        assert float(ad.softplus(x).data) == pytest.approx(np.log(2.0), abs=1e-15)

    def test_softplus_overflow_branch_is_identity(self):
        """For x > 30 softplus returns x itself, no overflow."""
        x = Tensor(np.array([31.0, 100.0, 750.0]))
        np.testing.assert_array_equal(ad.softplus(x).data, x.data)

    def test_softplus_large_negative_underflows_to_zero_smoothly(self):
        x = Tensor(-40.0)
        assert float(ad.softplus(x).data) == pytest.approx(np.exp(-40.0), rel=1e-12)

    def test_relu_kills_negatives(self):
        x = Tensor(np.array([-2.0, 0.0, 3.0]))
        np.testing.assert_array_equal(ad.relu(x).data, [0.0, 0.0, 3.0])

    def test_normal_cdf_at_zero_is_exactly_half(self):
        assert float(ad.normal_cdf(Tensor(0.0)).data) == 0.5

    def test_normal_cdf_known_value(self):
        # Phi(1.96) from standard tables
        assert float(ad.normal_cdf(Tensor(1.96)).data) == pytest.approx(
            0.9750021048517795, abs=1e-12
        )

    def test_division(self):
        x = Tensor(np.array([1.0, 9.0]))
        y = Tensor(np.array([4.0, 3.0]))
        np.testing.assert_array_equal(ad.div(x, y).data, [0.25, 3.0])


class TestBroadcasting:
    """Binary ops accept equal shapes or numpy-broadcastable ones."""

    def test_trailing_one_broadcast(self):
        a = Tensor(np.ones((3, 1)), requires_grad=True)
        b = Tensor(np.arange(6, dtype=float).reshape(3, 2))
        with Tape() as tape:
            out = ad.reduce_sum(ad.mul(a, b))
            grads = tape.backward(out)
        # gradient of a sums over the broadcast axis
        np.testing.assert_array_equal(grads[a], b.data.sum(axis=1, keepdims=True))

    def test_scalar_broadcast(self):
        a = Tensor(2.0, requires_grad=True)
        b = Tensor(np.array([1.0, 2.0, 3.0]))
        with Tape() as tape:
            out = ad.reduce_sum(ad.mul(a, b))
            grads = tape.backward(out)
        assert grads[a] == pytest.approx(6.0)

    def test_incompatible_shapes_raise(self):
        with pytest.raises(ShapeMismatch):
            ad.add(Tensor(np.ones(3)), Tensor(np.ones(4)))


class TestSoftmax:
    def test_two_entry_oracle(self):
        """softmax([0.5, 0.3]) frozen against a by-hand computation."""
        y = ad.softmax(Tensor(np.array([0.5, 0.3])))
        np.testing.assert_allclose(
            y.data, [0.549833997312478, 0.450166002687522], atol=1e-12
        )

    def test_masked_entry_is_exact_zero(self):
        x = np.array([10.0, neg_inf()])
        y = ad.softmax(Tensor(x))
        np.testing.assert_array_equal(y.data, [1.0, 0.0])

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(42)
        x = Tensor(rng.normal(size=(50, 7)))
        y = ad.softmax(x, axis=1)
        np.testing.assert_allclose(y.data.sum(axis=1), 1.0, atol=1e-12)

    def test_all_masked_row_raises(self):
        x = np.full((2, 3), neg_inf())
        x[0, 0] = 1.0
        with pytest.raises(AllMaskedRow):
            ad.softmax(Tensor(x), axis=1)

    def test_shift_invariance(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=9)
        a = ad.softmax(Tensor(x)).data
        b = ad.softmax(Tensor(x + 123.0)).data
        np.testing.assert_allclose(a, b, atol=1e-12)


class TestMatmul:
    def test_gradient_closed_form(self):
        """d(sum(a@b))/da = ones @ b^T and /db = a^T @ ones."""
        rng = np.random.default_rng(42)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        with Tape() as tape:
            out = ad.reduce_sum(ad.matmul(a, b))
            grads = tape.backward(out)
        np.testing.assert_allclose(grads[a], np.ones((3, 2)) @ b.data.T, atol=1e-12)
        np.testing.assert_allclose(grads[b], a.data.T @ np.ones((3, 2)), atol=1e-12)

    def test_vector_operand_rejected(self):
        v = Tensor(np.array([1.0, 2.0]))
        m = Tensor(np.array([[3.0], [4.0]]))
        with pytest.raises(ShapeMismatch):
            ad.matmul(v, m)
        with pytest.raises(ShapeMismatch):
            ad.matmul(Tensor(np.ones((1, 2))), Tensor(np.array([3.0, 4.0])))

    def test_inner_dim_mismatch(self):
        with pytest.raises(ShapeMismatch):
            ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))


class TestReduce:
    def test_mean_gradient_spreads(self):
        x = Tensor(np.arange(6, dtype=float).reshape(2, 3), requires_grad=True)
        with Tape() as tape:
            grads = tape.backward(ad.reduce_mean(x))
        np.testing.assert_allclose(grads[x], np.full((2, 3), 1.0 / 6.0))

    def test_empty_axis_raises(self):
        x = Tensor(np.zeros((0, 3)))
        for op in (ad.reduce_sum, ad.reduce_mean):
            with pytest.raises(EmptyAxis):
                op(x, axis=0)


class TestScatterGather:
    def test_segment_sum_value(self):
        v = Tensor(np.array([[1.0], [2.0], [3.0], [4.0]]))
        out = ad.scatter_segment_sum(v, np.array([0, 1, 0, 1]), 2)
        np.testing.assert_array_equal(out.data, [[4.0], [6.0]])

    def test_scatter_then_gather_matches_dense_matrix(self):
        """The composed map is linear; feeding basis vectors reproduces its
        dense matrix, which must then act correctly on a random vector."""
        rng = np.random.default_rng(42)
        ids = rng.integers(0, 5, size=11)

        def apply(vec):
            t = ad.scatter_segment_sum(Tensor(vec.reshape(-1, 1)), ids, 5)
            return ad.gather_rows(t, ids).data.reshape(-1)

        dense = np.stack([apply(e) for e in np.eye(11)], axis=1)
        v = rng.normal(size=11)
        np.testing.assert_allclose(apply(v), dense @ v, atol=1e-12)

    def test_gather_rows_gradient_accumulates_duplicates(self):
        table = Tensor(np.ones((3, 2)), requires_grad=True)
        with Tape() as tape:
            picked = ad.gather_rows(table, np.array([1, 1, 2]))
            grads = tape.backward(ad.reduce_sum(picked))
        np.testing.assert_array_equal(grads[table], [[0, 0], [2, 2], [1, 1]])

    def test_gather_cols_value(self):
        x = Tensor(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
        idx = np.array([[2, 0], [1, 1]])
        np.testing.assert_array_equal(
            ad.gather_cols(x, idx).data, [[3.0, 1.0], [5.0, 5.0]]
        )

    def test_index_bounds_checked(self):
        with pytest.raises(IndexOutOfRange):
            ad.gather_rows(Tensor(np.ones((2, 2))), np.array([0, 2]))
        with pytest.raises(IndexOutOfRange):
            ad.scatter_segment_sum(Tensor(np.ones((2, 1))), np.array([0, 3]), 2)
        with pytest.raises(IndexOutOfRange):
            ad.gather_cols(Tensor(np.ones((1, 2))), np.array([[5]]))


def _ref_segment_sum(values, ids, num_segments):
    out = np.zeros((num_segments,) + values.shape[1:], dtype=values.dtype)
    np.add.at(out, ids, values)
    return out


def _ref_gather_cols_grad(shape, idx, g):
    out = np.zeros(shape, dtype=g.dtype)
    rows = np.arange(shape[0])[:, None]
    np.add.at(out, (np.broadcast_to(rows, idx.shape), idx), g)
    return out


def _grad_of(out: Tensor, g: np.ndarray) -> np.ndarray:
    """The gradient an op's single input receives for output gradient g."""
    return out.node.vjp(g)[0]


def _floats(dtype):
    return st.floats(-1e6, 1e6, width=np.finfo(dtype).bits)


@st.composite
def _row_cases(draw):
    """(dtype, rows, ids, values): ids unsorted and repeated, possibly
    empty; values of shape ids.shape + trailing."""
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    trailing = draw(st.sampled_from([(), (1,), (5,), (2, 3)]))
    rows = draw(st.integers(1, 6))
    ids = np.array(draw(st.lists(st.integers(0, rows - 1), max_size=24)),
                   dtype=np.int64)
    values = draw(hnp.arrays(dtype, ids.shape + trailing,
                             elements=_floats(dtype)))
    return dtype, rows, ids, values


@st.composite
def _col_cases(draw):
    """(dtype, (n, m), idx, g) for gather_cols, n possibly 0."""
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    n = draw(st.integers(0, 5))
    m = draw(st.integers(1, 5))
    k = draw(st.integers(1, 8))
    idx = draw(hnp.arrays(np.int64, (n, k), elements=st.integers(0, m - 1)))
    g = draw(hnp.arrays(dtype, (n, k), elements=_floats(dtype)))
    return dtype, (n, m), idx, g


_BONDLESS = np.zeros((0, 2), dtype=np.int64)


class TestIndexAddMatchesAddAt:
    """Scatters and gather gradients are bit for bit the 2-D np.add.at of
    the reference functions above, in float64 and float32."""

    @settings(deadline=None, max_examples=200)
    @given(_row_cases())
    @example((np.float64, 2, np.array([1, 0, 1]), np.array([-0.0, -0.0, -0.0])))
    @example((np.float32, 3, _BONDLESS[:, 1], np.zeros((0, 4), np.float32)))
    def test_scatter_segment_sum(self, case):
        dtype, rows, ids, values = case
        out = ad.scatter_segment_sum(Tensor(values), ids, rows)
        assert out.data.dtype == dtype
        assert out.data.tobytes() == _ref_segment_sum(values, ids, rows).tobytes()

    @settings(deadline=None, max_examples=200)
    @given(_row_cases())
    @example((np.float64, 2, np.array([1, 0, 1]), np.array([-0.0, -0.0, -0.0])))
    @example((np.float64, 3, _BONDLESS[:, 0], np.zeros((0, 4))))
    def test_gather_rows_gradient(self, case):
        dtype, rows, ids, g = case
        x = Tensor(np.ones((rows,) + g.shape[1:], dtype=dtype), requires_grad=True)
        with Tape():
            grad = _grad_of(ad.gather_rows(x, ids), g)
        assert grad.dtype == dtype
        assert grad.tobytes() == _ref_segment_sum(g, ids, rows).tobytes()

    @settings(deadline=None, max_examples=200)
    @given(_col_cases())
    @example((np.float32, (2, 3), np.array([[2, 2], [0, 2]]),
              np.array([[-0.0, -0.0], [1.5, -0.0]], dtype=np.float32)))
    def test_gather_cols_gradient(self, case):
        dtype, shape, idx, g = case
        x = Tensor(np.ones(shape, dtype=dtype), requires_grad=True)
        with Tape():
            grad = _grad_of(ad.gather_cols(x, idx), g)
        assert grad.dtype == dtype
        assert grad.tobytes() == _ref_gather_cols_grad(shape, idx, g).tobytes()


def _ref_pool_rows(x, scores, weights, ids, num_segments):
    """The composition ``pool_rows`` replaces: every row, weighted by
    scores * weights, summed per segment."""
    scaled = ad.mul(scores, Tensor(weights[:, None]))
    return ad.scatter_segment_sum(ad.mul(x, scaled), ids, num_segments)


def _pool_value_and_grads(pool, x, scores, g):
    """pool(x, scores) and the gradients of x and scores for output
    gradient g."""
    xt = Tensor(x, requires_grad=True)
    st_ = Tensor(scores, requires_grad=True)
    with Tape() as tape:
        out = pool(xt, st_)
        grads = tape.backward(ad.reduce_sum(ad.mul(out, Tensor(g))))
    return out.data, grads[xt], grads[st_]


def _all_plus_zero(a: np.ndarray) -> bool:
    """Every entry of ``a`` is +0.0: no sign bit and no other bit set."""
    return not a.view(f"u{a.dtype.itemsize}").any()


@st.composite
def _pool_cases(draw):
    """(x, scores, weights, ids, num_segments, g) of one dtype: ids unsorted,
    weights zero or 1/k as ``_sag_weights`` makes them, signed zeros, and
    output-gradient rows that are all zero, as for an unrouted sample."""
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    n = draw(st.integers(0, 12))
    d = draw(st.integers(1, 5))
    segments = draw(st.integers(1, 5))
    ids = np.array(draw(st.lists(st.integers(0, segments - 1), min_size=n,
                                 max_size=n)), dtype=np.int64)
    weights = np.array(draw(st.lists(
        st.sampled_from([0.0, -0.0, 1.0, 0.5, 1 / 3, 0.25]), min_size=n,
        max_size=n)), dtype=dtype)
    x = draw(hnp.arrays(dtype, (n, d), elements=_floats(dtype)))
    scores = draw(hnp.arrays(dtype, (n, 1), elements=_floats(dtype)))
    g = draw(hnp.arrays(dtype, (segments, d), elements=_floats(dtype)))
    g[draw(hnp.arrays(bool, segments))] = draw(st.sampled_from([0.0, -0.0]))
    return x, scores, weights, ids, segments, g


def _signed_zero_case(dtype):
    """Segment 1 holds one row, of zero weight; -0.0 in x and scores."""
    x = np.array([[-0.0, 1.5], [2.0, -0.0], [-0.0, -0.0], [3.0, -2.0]], dtype)
    scores = np.array([[-0.0], [0.5], [-1.0], [0.25]], dtype)
    weights = np.array([0.5, 0.0, 0.5, 1.0], dtype)
    g = np.array([[-1.0, 2.0], [4.0, -0.0], [-0.0, 0.5]], dtype)
    return x, scores, weights, np.array([2, 1, 0, 2]), 3, g


def _dead_segment_case(dtype):
    """Segment 0's output gradient is -0.0, so the reference's gradients
    of its kept row are -0.0 too; segment 1 is live, though its gradient
    row sums to zero."""
    x = np.array([[2.0, 3.0], [1.0, -1.0], [4.0, 0.5]], dtype)
    scores = np.array([[0.5], [-2.0], [1.0]], dtype)
    weights = np.array([1.0, 0.5, 0.5], dtype)
    g = np.array([[-0.0, -0.0], [2.5, -2.5]], dtype)
    return x, scores, weights, np.array([0, 1, 1]), 2, g


class TestPoolRows:
    """``pool_rows`` is bit for bit the three-op reference on the kept rows
    of live segments and reads nothing else; the kept rows of a segment
    whose output gradient is all zero get +0.0 gradients."""

    @settings(deadline=None, max_examples=200)
    @given(_pool_cases())
    @example(_signed_zero_case(np.float64))
    @example(_signed_zero_case(np.float32))
    @example(_dead_segment_case(np.float64))
    @example(_dead_segment_case(np.float32))
    def test_matches_reference_composition(self, case):
        x, scores, weights, ids, segments, g = case
        out, dx, ds = _pool_value_and_grads(
            lambda u, s: ad.pool_rows(u, s, weights, ids, segments), x, scores, g)
        ref, ref_dx, ref_ds = _pool_value_and_grads(
            lambda u, s: _ref_pool_rows(u, s, weights, ids, segments),
            x, scores, g)
        assert out.dtype == dx.dtype == ds.dtype == x.dtype
        assert out.tobytes() == ref.tobytes()
        keep = weights != 0
        live = keep & g.any(axis=1)[ids]
        assert dx[live].tobytes() == ref_dx[live].tobytes()
        assert ds[live].tobytes() == ref_ds[live].tobytes()
        # the one contract change: the reference's +-0.0 there is +0.0 here
        assert _all_plus_zero(dx[keep & ~live])
        assert _all_plus_zero(ds[keep & ~live])
        assert not dx[~keep].any() and not ds[~keep].any()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_row_sparse_gradient_holds_only_live_rows(self, dtype):
        """Rows 0 and 5 are kept in live segments; rows 2 and 3 are kept in
        segment 1, whose output gradient is zero, and rows 1 and 4 are
        dropped. Neither x's row-sparse gradient nor the scores' gradient
        holds anything but rows 0 and 5."""
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(6, 2)).astype(dtype), requires_grad=True)
        s = Tensor(rng.normal(size=(6, 1)).astype(dtype), requires_grad=True)
        weights = np.array([1, 0, 0.5, 0.5, 0, 1], dtype)
        g = np.array([[1.5, -2.0], [0.0, -0.0], [0.25, 3.0]], dtype)
        with Tape():
            out = ad.pool_rows(x, s, weights, np.array([0, 0, 1, 1, 1, 2]), 3)
        dx, ds = out.node.vjp(g)
        assert isinstance(dx, ad.RowSparse)
        np.testing.assert_array_equal(dx.rows, [0, 5])
        assert dx.values.dtype == dtype and dx.values.shape == (2, 2)
        assert ds.dtype == dtype
        assert np.flatnonzero(ds).tolist() == [0, 5]

    def test_non_finite_dropped_rows_are_never_read(self):
        x = np.array([[1.0, 2.0], [np.inf, -np.inf], [np.nan, 1.0], [3.0, 4.0]])
        scores = np.array([[0.5], [np.nan], [2.0], [-1.0]])
        weights = np.array([0.5, 0.0, 0.0, 0.5])
        out, dx, ds = _pool_value_and_grads(
            lambda u, s: ad.pool_rows(u, s, weights, np.array([0, 0, 1, 1]), 2),
            x, scores, np.ones((2, 2)))
        np.testing.assert_array_equal(out, [[0.25, 0.5], [-1.5, -2.0]])
        assert np.isfinite(dx).all() and np.isfinite(ds).all()

    def test_bad_shapes_and_ids_raise(self):
        x, s = Tensor(np.ones((3, 2))), Tensor(np.ones((3, 1)))
        w, ids = np.ones(3), np.array([0, 1, 1])
        for args in ((Tensor(np.ones(3)), s, w, ids),
                     (x, Tensor(np.ones(3)), w, ids),
                     (x, s, np.ones(4), ids),
                     (x, s, w, np.array([0, 1]))):
            with pytest.raises(ShapeMismatch):
                ad.pool_rows(*args, 2)
        for bad in (np.array([0, -1, 1]), np.array([0, 2, 1])):
            with pytest.raises(IndexOutOfRange):
                ad.pool_rows(x, s, w, bad, 2)


def _gin_chain(nodes, edges, src, dst):
    """The composition ``gin_messages`` replaces."""
    messages = ad.relu(ad.add(ad.gather_rows(nodes, src), edges))
    return ad.scatter_segment_sum(messages, dst, nodes.shape[0])


def _propagate_chain(u, dinv, src, dst):
    """The propagation and tanh of projected scores u."""
    d = Tensor(dinv)
    spread = ad.gather_rows(ad.mul(u, d), src)
    return ad.tanh(ad.mul(ad.scatter_segment_sum(spread, dst, u.shape[0]), d))


def _sag_chain(x, theta, dinv, src, dst):
    """The composition ``sag_scores`` replaces."""
    return _propagate_chain(ad.matmul(x, theta), dinv, src, dst)


def _dense_chain(x, w, b, relu=False):
    """The composition ``dense`` replaces."""
    out = ad.add(ad.matmul(x, w), b)
    return ad.relu(out) if relu else out


def _value_and_grads(op, arrays, g, constant=()):
    """op(*tensors) and the gradient of each input for output gradient g;
    the inputs at the positions in ``constant`` need none (None)."""
    leaves = [Tensor(a.copy(), requires_grad=i not in constant)
              for i, a in enumerate(arrays)]
    with Tape() as tape:
        out = op(*leaves)
        grads = tape.backward(ad.reduce_sum(ad.mul(out, Tensor(g))))
    return [out.data] + [grads.get(t) for t in leaves]


def _assert_same_bits(got, want):
    for a, b in zip(got, want, strict=True):
        if b is None:
            assert a is None
            continue
        assert a.dtype == b.dtype and a.shape == b.shape
        bits = np.dtype(f"u{a.dtype.itemsize}")
        assert np.array_equal(a.view(bits), b.view(bits))


def _assert_reordered(got, want):
    """``got`` is ``want`` with exact-zero terms dropped from its sums and
    the rest added in another order."""
    assert got.dtype == want.dtype and got.shape == want.shape
    assert rel_error(got, want) <= REORDER_TOL[got.dtype]


def _edge_values(dtype):
    # zeros of both signs and repeats, so that sums cancel to exact zeros
    return st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 3.0]).map(dtype)


@st.composite
def _gin_cases(draw):
    """(nodes, edges, src, dst, g): repeated and unsorted destinations,
    possibly no edges; some messages cancel to an exact zero."""
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    n, d = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    k = draw(st.integers(0, 12))
    src = draw(hnp.arrays(np.int64, k, elements=st.integers(0, n - 1)))
    dst = draw(hnp.arrays(np.int64, k, elements=st.integers(0, n - 1)))
    nodes = draw(hnp.arrays(dtype, (n, d), elements=_edge_values(dtype)))
    edges = draw(hnp.arrays(dtype, (k, d), elements=_floats(dtype)))
    cancel = draw(hnp.arrays(bool, (k, d)))
    edges[cancel] = -nodes[src][cancel]
    g = draw(hnp.arrays(dtype, (n, d), elements=_floats(dtype)))
    return nodes, edges, src, dst, g


@st.composite
def _sag_cases(draw):
    """(x, theta, dinv, src, dst, g): the propagation layout with self-loops
    last, as ``batch_graphs`` makes it, or arbitrary index pairs. Some
    upstream gradient rows are zero, as an unrouted sample's are, and a
    large theta saturates scores past |pre-tanh| > 20, where tanh' is 0."""
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    n, k = draw(st.integers(1, 6)), draw(st.integers(0, 10))
    dim = draw(st.integers(1, 4))
    src = draw(hnp.arrays(np.int64, k, elements=st.integers(0, n - 1)))
    dst = draw(hnp.arrays(np.int64, k, elements=st.integers(0, n - 1)))
    if draw(st.booleans()):
        src = np.concatenate((src, np.arange(n)))
        dst = np.concatenate((dst, np.arange(n)))
    degree = np.bincount(dst, minlength=n)
    dinv = (1.0 / np.sqrt(degree + 1.0))[:, None].astype(dtype)
    x = draw(hnp.arrays(dtype, (n, dim), elements=_edge_values(dtype)))
    theta = draw(hnp.arrays(dtype, (dim, 1), elements=st.one_of(
        st.floats(-2, 2, width=np.finfo(dtype).bits),
        st.sampled_from([40.0, -60.0]).map(dtype))))
    g = draw(hnp.arrays(dtype, (n, 1), elements=_floats(dtype)))
    g[draw(hnp.arrays(bool, n))] = draw(st.sampled_from([0.0, -0.0]))
    return x, theta, dinv, src, dst, g


def _saturated_case(dtype):
    """Two path graphs 0-1-2 and 3-4, self-loops last, as ``batch_graphs``
    lays them out. The pre-tanh scores of nodes 1 and 2 pass 20, so their
    tanh is exactly 1. The upstream gradient is non-zero on nodes 0 and 2
    only, so g_u is zero on the rows of nodes 2, 3 and 4."""
    src = np.array([0, 1, 1, 2, 3, 4, 0, 1, 2, 3, 4])
    dst = np.array([1, 0, 2, 1, 4, 3, 0, 1, 2, 3, 4])
    dinv = (1.0 / np.sqrt(np.bincount(dst)))[:, None].astype(dtype)
    x = np.array([[0.1, 0.0], [0.2, -0.1], [90.0, 0.0], [0.0, 1.0],
                  [0.5, 0.5]], dtype)
    theta = np.array([[1.0], [-0.5]], dtype)
    g = np.array([[-2.0], [0.0], [3.0], [-0.0], [0.0]], dtype)
    return x, theta, dinv, src, dst, g


@st.composite
def _dense_cases(draw):
    """(x, w, b, g): one row or several; zero rows and zero biases give
    exact-zero pre-activations."""
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    rows, k, m = (draw(st.integers(1, 5)) for _ in range(3))
    x = draw(hnp.arrays(dtype, (rows, k), elements=_edge_values(dtype)))
    w = draw(hnp.arrays(dtype, (k, m), elements=_floats(dtype)))
    b = draw(hnp.arrays(dtype, (m,), elements=_edge_values(dtype)))
    g = draw(hnp.arrays(dtype, (rows, m), elements=_floats(dtype)))
    if draw(st.booleans()):  # zero rows, as an unrouted sample's are
        g[draw(hnp.arrays(bool, rows))] = draw(st.sampled_from([0.0, -0.0]))
    return x, w, b, g


def _masked_negative_case(dtype):
    """Two messages cancel to 0 and one is negative, with negative upstream
    gradients there: the chain's mask makes them -0.0."""
    nodes = np.array([[1.0, -2.0], [0.5, 3.0]], dtype)
    edges = np.array([[-1.0, 1.0], [-0.5, -3.0], [0.25, -4.0]], dtype)
    return (nodes, edges, np.array([0, 1, 0]), np.array([1, 1, 1]),
            np.array([[-1.0, -2.0], [-3.0, -0.5]], dtype))


class TestFusedPrimitives:
    """``gin_messages``, ``sag_scores`` and ``dense`` give the value and
    every gradient of the chain each replaces, bit for bit, except the
    sums that skip zero gradient rows: ``sag_scores``' theta gradient and
    ``dense``'s w and b gradients when some row is dead. Those match the
    chain to round-off, and a skipped row's x-gradient is +0.0."""

    @settings(deadline=None, max_examples=150)
    @given(_gin_cases(), st.sampled_from([(), (0,), (1,)]))
    @example(_masked_negative_case(np.float64), ())
    @example(_masked_negative_case(np.float32), ())
    def test_gin_messages_match_chain(self, case, constant):
        *arrays, src, dst, g = case
        got, want = (_value_and_grads(lambda a, b: op(a, b, src, dst),
                                      arrays, g, constant)
                     for op in (ad.gin_messages, _gin_chain))
        _assert_same_bits(got, want)

    @settings(deadline=None, max_examples=200)
    @given(_sag_cases())
    @example(_saturated_case(np.float64))
    @example(_saturated_case(np.float32))
    def test_sag_scores_match_chain(self, case):
        *arrays, dinv, src, dst, g = case
        (value, dx, dtheta), (want, want_dx, want_dtheta) = (
            _value_and_grads(lambda a, t: op(a, t, dinv, src, dst), arrays, g)
            for op in (ad.sag_scores, _sag_chain))
        _, g_u = _value_and_grads(
            lambda u: _propagate_chain(u, dinv, src, dst),
            [arrays[0] @ arrays[1]], g)
        live = g_u[:, 0] != 0
        _assert_same_bits([value, dx[live]], [want, want_dx[live]])
        _assert_reordered(dtheta, want_dtheta)
        # the chain's +-0.0 there is +0.0 here
        assert dx.dtype == want_dx.dtype and _all_plus_zero(dx[~live])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_sag_scores_x_gradient_holds_only_live_rows(self, dtype):
        """In ``_saturated_case`` g_u is non-zero on nodes 0 and 1 only:
        node 2's score is saturated, node 1 gets node 0's gradient, and
        nodes 3 and 4 get none. The row-sparse x-gradient holds exactly those rows, each
        the row of the dense outer product."""
        x, theta, dinv, src, dst, g = _saturated_case(dtype)
        xt, tt = Tensor(x, requires_grad=True), Tensor(theta, requires_grad=True)
        with Tape():
            out = ad.sag_scores(xt, tt, dinv, src, dst)
        dx, dtheta = out.node.vjp(g)
        _, g_u = _value_and_grads(
            lambda u: _propagate_chain(u, dinv, src, dst), [x @ theta], g)
        assert isinstance(dx, ad.RowSparse)
        np.testing.assert_array_equal(dx.rows, [0, 1])
        np.testing.assert_array_equal(np.flatnonzero(g_u), [0, 1])
        _assert_same_bits([dx.values, dtheta],
                          [(g_u @ theta.T)[:2], x[:2].T @ g_u[:2]])

    @settings(deadline=None, max_examples=150)
    @given(_dense_cases(), st.booleans(), st.sampled_from([(), (0,), (1, 2)]))
    def test_dense_matches_chain(self, case, relu, constant):
        *arrays, g = case
        got, want = (_value_and_grads(lambda *ts: op(*ts, relu=relu),
                                      arrays, g, constant)
                     for op in (ad.dense, _dense_chain))
        live = (g * (want[0] > 0) if relu else g).any(axis=1)
        if live.all():
            _assert_same_bits(got, want)
            return
        (value, dx, *dparams), (want_value, want_dx, *want_dparams) = got, want
        _assert_same_bits([value], [want_value])
        if want_dx is None:
            assert dx is None
        else:
            _assert_reordered(dx[live], want_dx[live])
            assert dx.dtype == want_dx.dtype and _all_plus_zero(dx[~live])
        for a, b in zip(dparams, want_dparams, strict=True):
            if b is None:
                assert a is None
            else:
                _assert_reordered(a, b)

    def test_errors_match_chain(self):
        nodes, edges = Tensor(np.ones((3, 2))), Tensor(np.ones((2, 2)))
        x, theta, dinv = Tensor(np.ones((3, 2))), Tensor(np.ones((2, 1))), np.ones((3, 1))
        ok = np.array([0, 1])
        bad_index = (np.array([0, 3]), np.array([-1, 0]))
        for fused, chain, args in ((ad.gin_messages, _gin_chain, (nodes, edges)),
                                   (ad.sag_scores, _sag_chain, (x, theta, dinv))):
            for bad in bad_index:
                for idx in ((bad, ok), (ok, bad)):
                    for op in (fused, chain):
                        with pytest.raises(IndexOutOfRange):
                            op(*args, *idx)
            for op in (fused, chain):
                with pytest.raises(ShapeMismatch):
                    op(*args, ok, np.array([0, 1, 1]))
        for op in (ad.gin_messages, _gin_chain):
            with pytest.raises(ShapeMismatch):
                op(nodes, Tensor(np.ones((2, 3))), ok, ok)
        for op in (ad.sag_scores, _sag_chain):
            for args in ((x, theta, np.ones((2, 1))), (x, Tensor(np.ones((3, 1))), dinv),
                         (Tensor(np.ones(3)), theta, dinv)):
                with pytest.raises(ShapeMismatch):
                    op(*args, ok, ok)
        x, w, b = Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4))), Tensor(np.ones(4))
        for op in (ad.dense, _dense_chain):
            for args in ((x, Tensor(np.ones((2, 4))), b), (x, w, Tensor(np.ones(3))),
                         (Tensor(np.ones(3)), w, b)):
                with pytest.raises(ShapeMismatch):
                    op(*args)

    @pytest.mark.parametrize("shape", [(3, 4), (1, 4)])
    def test_dense_takes_only_a_vector_bias(self, shape):
        # the chain broadcasts a per-row or (1, m) bias; dense does not
        x, w = Tensor(np.ones((3, 2))), Tensor(np.ones((2, 4)))
        with pytest.raises(ShapeMismatch, match="bias"):
            ad.dense(x, w, Tensor(np.ones(shape)))

    def test_gin_messages_takes_only_one_edge_row_per_edge(self):
        nodes, ok = Tensor(np.ones((3, 2))), np.array([0, 1])
        with pytest.raises(ShapeMismatch, match="edges"):
            ad.gin_messages(nodes, Tensor(np.ones(2)), ok, ok)

    def test_sag_scores_takes_only_a_column_dinv(self):
        # the chain broadcasts an (n,) dinv against the (n, 1) scores to (n, n)
        x, theta = Tensor(np.ones((3, 2))), Tensor(np.ones((2, 1)))
        ok = np.array([0, 1])
        with pytest.raises(ShapeMismatch, match="dinv"):
            ad.sag_scores(x, theta, np.ones(3), ok, ok)


def _live_row_case(dtype):
    """``dense(relu=True)`` on four rows: row 1's pre-activations are all
    negative and row 2's output gradient is zero, so rows 0 and 3 are
    live. Every product is exact, so any order of the sums gives the same
    bits."""
    x = np.array([[1.0, -1.0], [-2.0, -3.0], [0.5, 2.0], [3.0, 1.0]], dtype)
    w = np.array([[1.0, 0.5, 2.0], [0.5, 1.0, 0.25]], dtype)
    b = np.array([0.0, 0.25, -0.5], dtype)
    g = np.array([[1.0, -2.0, 0.5], [-3.0, -1.0, -2.0], [-0.0, 0.0, -0.0],
                  [0.5, 0.5, -1.5]], dtype)
    return x, w, b, g


class TestDenseLiveRows:
    """``dense``'s backward reads only the live rows of its relu-masked
    output gradient, those not all zero."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_row_sparse_rows_are_the_live_rows(self, dtype):
        x, w, b, g = _live_row_case(dtype)
        with Tape():
            out = ad.dense(*(Tensor(a, requires_grad=True) for a in (x, w, b)),
                           relu=True)
        dx, dw, db = out.node.vjp(g)
        masked = g * (out.data > 0)
        assert isinstance(dx, ad.RowSparse)
        np.testing.assert_array_equal(dx.rows, [0, 3])
        assert dx.shape == x.shape
        _assert_same_bits([dx.values, dw, db],
                          [(masked @ w.T)[[0, 3]], x.T @ masked,
                           masked.sum(axis=0)])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_dead_rows_of_the_x_gradient_are_exact_zeros(self, dtype):
        x, w, b, g = _live_row_case(dtype)
        dx, want_dx = (_value_and_grads(lambda *ts: op(*ts, relu=True),
                                        [x, w, b], g, constant=(1, 2))[1]
                       for op in (ad.dense, _dense_chain))
        assert type(dx) is np.ndarray and dx.dtype == dtype
        assert _all_plus_zero(dx[[1, 2]])
        _assert_same_bits([dx[[0, 3]]], [want_dx[[0, 3]]])

    @pytest.mark.parametrize("relu", [True, False])
    def test_non_finite_dead_rows_are_never_read(self, relu):
        """Row 1 holds a NaN and row 2 an inf, and neither gets an output
        gradient: with a relu, NaN's mask is off; without one, the
        upstream rows are zero. The chain multiplies them by zero."""
        x = np.array([[1.0, 2.0], [np.nan, 1.0], [np.inf, 1.0], [0.5, -1.0]])
        w = np.array([[1.0, -0.5], [0.25, 2.0]])
        b = np.array([0.5, -0.25])
        g = np.array([[1.0, -1.0], [2.0, 3.0], [0.0, 0.0], [0.5, 0.25]])
        if not relu:
            g[1] = 0.0
        with np.errstate(invalid="ignore"):  # the forward reads them
            out, dx, dw, db = _value_and_grads(
                lambda *ts: ad.dense(*ts, relu=relu), [x, w, b], g)
        assert np.isfinite(dx).all() and np.isfinite(dw).all()
        assert np.isfinite(db).all()
        live = [0, 3]
        masked = g * (out > 0) if relu else g
        np.testing.assert_array_equal(dw, x[live].T @ masked[live])
        np.testing.assert_array_equal(db, masked[live].sum(axis=0))
        assert _all_plus_zero(dx[[1, 2]])

    @pytest.mark.parametrize("relu", [True, False])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_all_live_vjp_is_the_chains(self, relu, dtype):
        rng = np.random.default_rng(31)
        x, w = (rng.normal(size=s).astype(dtype) for s in ((9, 5), (5, 4)))
        b = np.full(4, 8.0, dtype)  # every pre-activation positive
        g = rng.normal(size=(9, 4)).astype(dtype)
        with Tape():
            out = ad.dense(*(Tensor(a, requires_grad=True) for a in (x, w, b)),
                           relu=relu)
        assert (out.data > 0).all()
        assert type(out.node.vjp(g)[0]) is np.ndarray
        got, want = (_value_and_grads(lambda *ts: op(*ts, relu=relu),
                                      [x, w, b], g)
                     for op in (ad.dense, _dense_chain))
        _assert_same_bits(got, want)


def _index_case(dtype, n, d, src, dst, ids, segments, cols, values):
    """Operands for every scatter and gather primitive: edges ``src`` ->
    ``dst`` over n nodes of width d, pooling ids over ``segments``, an
    (n, k) column index over the d columns, and float arrays drawn in turn
    from ``values``."""
    src, dst, ids = (np.array(a, dtype=np.int64) for a in (src, dst, ids))
    cols = np.array(cols, dtype=np.int64).reshape(n, -1)
    pool = np.array(values, dtype)
    start = 0

    def draw(*shape):
        nonlocal start
        size = math.prod(shape)
        start += size
        return pool[(start - size + np.arange(size)) % pool.size].reshape(shape)

    weights = np.where(np.arange(n) % 3 == 1, 0.0, 0.5).astype(dtype)
    degree = np.bincount(dst, minlength=n)
    return dict(n=n, d=d, src=src, dst=dst, ids=ids, segments=segments,
                cols=cols, x=draw(n, d), edges=draw(len(src), d),
                theta=draw(d, 1), scores=draw(n, 1), weights=weights,
                dinv=(1.0 / np.sqrt(degree + 1.0))[:, None].astype(dtype),
                g_nodes=draw(n, d), g_col=draw(n, 1), g_edges=draw(len(src), d),
                g_seg=draw(segments, d), g_cols=draw(*cols.shape))


@st.composite
def _index_cases(draw):
    """Repeated ids, segments that no id names, width-1 columns, and
    summands of either signed zero (``_edge_values``)."""
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    n, d = draw(st.integers(1, 5)), draw(st.sampled_from([1, 3]))
    k, segments = draw(st.integers(0, 10)), draw(st.integers(1, 4))

    def ids(size, bound):
        return draw(st.lists(st.integers(0, bound - 1), min_size=size,
                             max_size=size))

    cols = ids(n * draw(st.integers(1, 3)), d)
    values = draw(st.lists(_edge_values(dtype), min_size=1, max_size=40))
    return _index_case(dtype, n, d, ids(k, n), ids(k, n), ids(n, segments),
                       segments, cols, values)


def _index_calls(c, index):
    """Each scatter and gather primitive on the case ``c``, with every index
    vector passed as ``index(ids, bound)``: name -> (op, inputs, output
    gradient)."""
    n, segments = c["n"], c["segments"]
    src, dst = index(c["src"], n), index(c["dst"], n)
    ids, cols = index(c["ids"], segments), index(c["cols"], c["d"])
    return {
        "gin_messages": (lambda u, e: ad.gin_messages(u, e, src, dst),
                         (c["x"], c["edges"]), c["g_nodes"]),
        "sag_scores": (lambda u, t: ad.sag_scores(u, t, c["dinv"], src, dst),
                       (c["x"], c["theta"]), c["g_col"]),
        "scatter_segment_sum": (lambda v: ad.scatter_segment_sum(v, dst, n),
                                (c["edges"],), c["g_nodes"]),
        "pool_rows": (lambda u, s: ad.pool_rows(u, s, c["weights"], ids,
                                                segments),
                      (c["x"], c["scores"]), c["g_seg"]),
        "gather_rows": (lambda u: ad.gather_rows(u, src), (c["x"],),
                        c["g_edges"]),
        "gather_cols": (lambda u: ad.gather_cols(u, cols), (c["x"],),
                        c["g_cols"]),
    }


class TestPlannedIndex:
    """An ``ad.Index`` is its raw vector checked once, with cached flat
    indices: every scatter and gather primitive gives the same bytes, values
    and gradients, with a planned index as with the raw vector, also when a
    second call reads the cache the first one filled."""

    @pytest.mark.parametrize("name", ["gin_messages", "sag_scores",
                                      "scatter_segment_sum", "pool_rows",
                                      "gather_rows", "gather_cols"])
    @settings(deadline=None, max_examples=100)
    @given(case=_index_cases())
    # node 1 and segment 1 are named by no id; -0.0 summands; width 1
    @example(case=_index_case(np.float64, 3, 1, [0, 0, 2, 2], [2, 2, 0, 2],
                              [0, 2, 0], 3, [0, 0, 0], [-0.0, 1.0, -0.0, 0.5]))
    @example(case=_index_case(np.float32, 4, 3, [3, 3, 0], [0, 0, 3],
                              [2, 2, 0, 0], 3, [[2, 2], [0, 1], [1, 1], [0, 2]],
                              [-0.0, -2.5, 0.0, 3.0, -0.0]))
    def test_planned_matches_raw(self, name, case):
        # an empty output has no sum to differentiate
        assume(name != "gather_rows" or case["src"].size)
        want = _value_and_grads(*_index_calls(case, lambda ids, bound: ids)[name])
        op, arrays, g = _index_calls(case, ad.Index)[name]
        for _ in range(2):
            _assert_same_bits(_value_and_grads(op, arrays, g), want)

    def test_bounds_are_checked_once_with_the_same_errors(self):
        with pytest.raises(IndexOutOfRange, match=r"row index outside \[0, 2\)"):
            ad.Index([0, 2], 2, "row index")
        with pytest.raises(IndexOutOfRange):
            ad.Index([-1, 0], 2)
        planned = ad.Index([0, 3], 4)
        # planned for another bound: checked again against this one
        with pytest.raises(IndexOutOfRange, match=r"row index outside \[0, 2\)"):
            ad.gather_rows(Tensor(np.ones((2, 2))), planned)
        with pytest.raises(ShapeMismatch):
            ad.scatter_segment_sum(Tensor(np.ones((3, 1))), planned, 4)
        assert ad.Index.of(planned, 4, "row index") is planned
        assert planned.flat(2) is planned.flat(2)
        np.testing.assert_array_equal(planned.flat(2), [0, 1, 6, 7])


def _relu_arrays():
    """Arrays of either float width with every kind of value: NaN, +-inf,
    -0.0 and subnormals included."""
    return st.sampled_from([np.float64, np.float32]).flatmap(
        lambda dtype: hnp.arrays(dtype, hnp.array_shapes(max_dims=2, max_side=6)))


class TestReluInPlace:
    @settings(deadline=None, max_examples=300)
    @given(_relu_arrays())
    @example(np.array([-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324,
                       -5e-324, 1.0, -1.0]))
    @example(np.array([-0.0, np.nan, 1e-45, -1e-45, -np.inf], np.float32))
    def test_bytes_of_where(self, a):
        want = np.where(a > 0, a, 0.0)
        ad._relu_in_place(a)
        assert a.dtype == want.dtype and a.tobytes() == want.tobytes()


class TestTapeSemantics:
    def test_fanout_accumulates(self):
        """x used twice receives the sum of both branch gradients."""
        x = Tensor(3.0, requires_grad=True)
        with Tape() as tape:
            y = ad.add(ad.mul(x, x), x)
            grads = tape.backward(y)
        assert grads[x] == pytest.approx(7.0)

    def test_chain_through_shared_subexpression(self):
        x = Tensor(0.5, requires_grad=True)
        with Tape() as tape:
            s = ad.tanh(x)
            y = ad.mul(s, s)
            grads = tape.backward(y)
        s_val = np.tanh(0.5)
        expected = 2.0 * s_val * (1.0 - s_val * s_val)
        assert grads[x] == pytest.approx(expected, rel=1e-12)

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            y = ad.mul(x, Tensor(2.0))
            with pytest.raises(NotScalar):
                tape.backward(y)

    def test_backward_requires_loss_on_this_tape(self):
        x = Tensor(2.0, requires_grad=True)
        with Tape():
            y = ad.mul(x, x)
        with Tape() as other:
            _ = ad.mul(x, Tensor(3.0))
            with pytest.raises(NotScalar):
                other.backward(y)

    def test_tensor_from_another_tape_is_a_leaf(self):
        # y sits at position 0 of its own tape; the other tape also has a
        # node at position 0, which must not be mistaken for y's
        x = Tensor(2.0, requires_grad=True)
        with Tape():
            y = ad.mul(x, x)
        with Tape() as other:
            z = ad.mul(y, Tensor(3.0))
            grads = other.backward(z)
        assert grads[y] == pytest.approx(3.0)
        assert x not in grads

    def test_no_tape_means_no_recording(self):
        x = Tensor(2.0, requires_grad=True)
        y = ad.mul(x, x)
        assert y.node is None and not y.requires_grad

    def test_constant_leaf_gets_no_gradient(self):
        x = Tensor(2.0, requires_grad=True)
        c = Tensor(5.0)
        with Tape() as tape:
            grads = tape.backward(ad.mul(x, c))
        assert c not in grads

    def test_backward_is_bitwise_deterministic(self):
        rng = np.random.default_rng(42)
        a_data = rng.normal(size=(4, 3))
        b_data = rng.normal(size=(3, 2))

        def run():
            a = Tensor(a_data.copy(), requires_grad=True)
            b = Tensor(b_data.copy(), requires_grad=True)
            with Tape() as tape:
                out = ad.reduce_sum(ad.tanh(ad.matmul(a, b)))
                grads = tape.backward(out)
            return grads[a], grads[b]

        ga1, gb1 = run()
        ga2, gb2 = run()
        assert np.array_equal(ga1, ga2) and np.array_equal(gb1, gb2)

    def test_a_node_keeps_only_the_arrays_its_gradient_reads(self):
        # an add reads neither input, so two intermediates summed on the
        # tape go when the caller drops them; dense reads its x, which
        # stays until backward runs dense's vjp, while the tape and the
        # loss are still held. No cyclic collector runs, so each array is
        # freed by reference counting.
        rng = np.random.default_rng(5)
        x, y = (Tensor(rng.normal(size=(4, 3)), requires_grad=True)
                for _ in range(2))
        w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        b = Tensor(rng.normal(size=(2,)), requires_grad=True)
        gc.disable()
        try:
            with Tape() as tape:
                a, c = ad.add(x, y), ad.sub(x, y)
                s = ad.add(a, c)
                summed = [weakref.ref(a.data), weakref.ref(c.data)]
                read = weakref.ref(s.data)
                del a, c
                assert [ref() is None for ref in summed] == [True, True]
                loss = ad.reduce_sum(ad.dense(s, w, b, relu=True))
                del s
                assert read() is not None
                grads = tape.backward(loss)
                assert read() is None
            assert loss.node is tape.nodes[-1]
        finally:
            gc.enable()
        assert set(grads) == {x, y, w, b}

    def test_a_second_backward_raises(self):
        # with the same loss or another loss recorded on the same tape
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        with Tape() as tape:
            first = ad.reduce_sum(ad.mul(x, x))
            second = ad.reduce_sum(ad.tanh(x))
            tape.backward(first)
            for loss in (first, second):
                with pytest.raises(TapeConsumed):
                    tape.backward(loss)

    def test_a_fresh_tape_gives_the_same_gradients(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4,)), requires_grad=True)

        def grads_of_one_tape():
            with Tape() as tape:
                loss = ad.reduce_sum(ad.tanh(ad.dense(x, w, b, relu=True)))
                grads = tape.backward(loss)
                with pytest.raises(TapeConsumed):
                    tape.backward(loss)
            return [grads[t].tobytes() for t in (x, w, b)]

        assert grads_of_one_tape() == grads_of_one_tape()

    def test_a_vjp_must_return_one_gradient_per_input(self):
        # a two-input primitive whose vjp returns one gradient would leave
        # its second input without one
        x, y = (Tensor(np.array([1.0, 2.0]), requires_grad=True)
                for _ in range(2))
        with Tape() as tape:
            out = ad._op(x.data + y.data, (x, y), lambda g: (g,))
            loss = ad.reduce_sum(out)
            with pytest.raises(ValueError):
                tape.backward(loss)


def _reference_backward(tape, loss):
    """The accumulation ``Tape.backward`` must match: every gradient made
    dense, each arrival summed out of place in reverse tape order."""
    def dense(g):
        return g.dense() if isinstance(g, ad.RowSparse) else g

    node_grads = {id(loss.node): np.ones_like(loss.data)}
    leaf_grads = {}
    for node in reversed(tape.nodes[:loss.node.pos + 1]):
        gout = node_grads.pop(id(node), None)
        if gout is None:
            continue
        for target, gin in zip(node.inputs, node.vjp(gout), strict=True):
            if gin is None or target is None:
                continue
            gin = dense(gin)
            if isinstance(target, ad.Node):
                key = id(target)
                node_grads[key] = (node_grads[key] + gin if key in node_grads
                                   else gin)
            else:
                leaf_grads[target] = (leaf_grads[target] + gin
                                      if target in leaf_grads else gin.copy())
    return leaf_grads


def _watch_vjps(tape):
    """Wrap every node's vector-Jacobian product to keep each array it
    returns together with a copy taken on return."""
    returned = []

    def watched(vjp):
        def run(g):
            out = vjp(g)
            for gin in out:
                for arr in ((gin.values,) if isinstance(gin, ad.RowSparse)
                            else (gin,)):
                    if isinstance(arr, np.ndarray):
                        returned.append((arr, arr.copy()))
            return out
        return run

    for node in tape.nodes:
        node.vjp = watched(node.vjp)
    return returned


def _both_backwards(build, leaves):
    """Leaf gradients of ``build()`` from the reference and from
    ``Tape.backward`` (run second, on the same tape), and whether backward
    left every array a vector-Jacobian product returned as it was. A third
    run, on a tape of its own, checks that ``backward`` into slots (filled
    with stale values first) lands the bits it returns, and zeros where it
    returns none."""
    with Tape() as tape:
        loss = build()
        want = _reference_backward(tape, loss)
        returned = _watch_vjps(tape)
        inputs = [t.data.copy() for t in leaves]
        got = tape.backward(loss)
    slots = {t: np.full_like(t.data, 7.0) for t in leaves}
    with Tape() as tape:
        assert tape.backward(build(), into=slots) == {}
    for t, slot in slots.items():
        assert slot.tobytes() == got.get(t, np.zeros_like(t.data)).tobytes()
    untouched = (all(a.tobytes() == b.tobytes() for a, b in returned)
                 and all(t.data.tobytes() == c.tobytes()
                         for t, c in zip(leaves, inputs)))
    return got, want, untouched


class TestFanIn:
    """Gradients reaching one tensor from several consumers add in reverse
    tape order, in place once the tape owns the buffer, with the bits of
    the out-of-place sums."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_many_consumers_of_a_node_and_a_leaf(self, dtype):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(5, 3)).astype(dtype), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 3)).astype(dtype), requires_grad=True)
        c = Tensor(rng.normal(size=(5, 3)).astype(dtype))

        def build():
            h = ad.tanh(x)
            terms = [ad.mul(h, c), ad.matmul(h, w), ad.relu(h),
                     ad.mul(h, h), ad.sub(x, h), ad.matmul(x, w)]
            total = terms[0]
            for t in terms[1:]:
                total = ad.add(total, t)
            return ad.reduce_sum(total)

        got, want, untouched = _both_backwards(build, [x, w])
        assert untouched
        for leaf in (x, w):
            assert got[leaf].dtype == dtype
            assert got[leaf].tobytes() == want[leaf].tobytes()

    def test_add_of_a_tensor_to_itself(self):
        x = Tensor(np.array([0.5, -1.5, 2.0]), requires_grad=True)

        def build():
            h = ad.tanh(x)
            twice = ad.add(h, h)          # one g, handed to h twice
            thrice = ad.add(twice, h)
            return ad.reduce_sum(ad.add(ad.add(thrice, x), x))

        got, want, untouched = _both_backwards(build, [x])
        assert untouched
        assert got[x].tobytes() == want[x].tobytes()
        np.testing.assert_allclose(got[x], 3 * (1 - np.tanh(x.data) ** 2) + 2)

    def test_reshape_view_is_never_written(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(2, 6)), requires_grad=True)
        c = Tensor(rng.normal(size=(3, 4)))

        def build():
            h = ad.tanh(x)
            # reshape's gradient is a view of the gradient of r; it is h's
            # first arrival, and the later ones must not add into it
            r = ad.reshape(ad.mul(h, Tensor(2.0)), (3, 4))
            s = ad.add(ad.mul(r, c), ad.reshape(h, (3, 4)))
            return ad.reduce_sum(ad.add(ad.reduce_sum(s), ad.reduce_sum(
                ad.mul(h, h))))

        got, want, untouched = _both_backwards(build, [x])
        assert untouched
        assert got[x].tobytes() == want[x].tobytes()

    def test_leaves_sharing_one_gradient_get_arrays_of_their_own(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            grads = tape.backward(ad.reduce_sum(ad.add(a, b)))
        assert grads[a] is not grads[b]
        assert not np.shares_memory(grads[a], grads[b])
        grads[a] += 1.0
        np.testing.assert_array_equal(grads[b], np.ones(3))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_row_sparse_arrivals_add_only_their_rows(self, dtype):
        """pool_rows hands back only its kept rows of x; summed with dense
        arrivals before and after it, x's gradient equals the dense sum."""
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(6, 2)).astype(dtype), requires_grad=True)
        s = Tensor(rng.normal(size=(6, 1)).astype(dtype), requires_grad=True)
        ids = np.array([0, 0, 1, 1, 1, 2])

        def build():
            h = ad.tanh(x)
            first = ad.pool_rows(h, s, np.array([1, 0, 0.5, 0.5, 0, 1], dtype),
                                 ids, 3)
            second = ad.pool_rows(h, s, np.array([0, 1, 0, 0.5, 0.5, 0], dtype),
                                  ids, 3)
            dense = ad.reduce_sum(ad.mul(h, h))
            return ad.add(ad.reduce_sum(ad.add(first, second)), dense)

        got, want, untouched = _both_backwards(build, [x, s])
        assert untouched
        for leaf in (x, s):
            assert got[leaf].dtype == dtype
            assert np.array_equal(got[leaf], want[leaf])

    def test_row_sparse_onto_a_shared_gradient(self):
        """h's first arrival is the one array ``add`` hands to h and k
        both; pool_rows' rows then go into a copy, not into k's gradient."""
        x = Tensor(np.linspace(-1.0, 1.0, 8).reshape(4, 2), requires_grad=True)
        s = Tensor(np.full((4, 1), 0.5))

        def build():
            h = ad.tanh(x)
            pooled = ad.pool_rows(h, s, np.array([1.0, 0.0, 0.5, 0.5]),
                                  np.array([0, 0, 1, 1]), 2)
            k = ad.mul(x, x)
            return ad.add(ad.reduce_sum(pooled), ad.reduce_sum(ad.add(h, k)))

        got, want, untouched = _both_backwards(build, [x])
        assert untouched
        assert got[x].tobytes() == want[x].tobytes()

    def test_row_sparse_first_arrival_at_a_leaf_is_dense(self):
        x = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        with Tape() as tape:
            out = ad.pool_rows(x, Tensor(np.ones((3, 1))),
                               np.array([0.5, 0.0, 0.5]), np.zeros(3, int), 1)
            grads = tape.backward(ad.reduce_sum(out))
        assert type(grads[x]) is np.ndarray
        np.testing.assert_array_equal(grads[x], [[0.5, 0.5], [0, 0], [0.5, 0.5]])

    def test_float64_arrivals_at_a_float32_leaf_give_a_float32_gradient(self):
        """A float64 constant lifts the gradients reaching x to float64; x's
        gradient is still float32, with the bytes its slot gets."""
        x = Tensor(np.linspace(-1.0, 1.0, 6, dtype=np.float32).reshape(3, 2),
                   requires_grad=True)
        c = Tensor(np.linspace(0.5, 2.0, 6).reshape(3, 2))

        def build():
            return ad.reduce_sum(ad.add(ad.mul(x, c), ad.mul(ad.tanh(x), c)))

        got, want, untouched = _both_backwards(build, [x])
        assert untouched
        assert want[x].dtype == np.float64 and got[x].dtype == np.float32
        np.testing.assert_allclose(got[x], want[x], rtol=1e-6)

    def test_a_0d_leaf_that_two_ops_reach_gets_a_0d_array(self):
        """GIN's epsilon: a 0-d leaf whose two arrivals sum to a 0-d
        array, not to a numpy scalar."""
        eps = Tensor(np.zeros(()), requires_grad=True)
        x = Tensor(np.linspace(-1.0, 1.0, 12).reshape(4, 3))

        def build():
            scaled = ad.mul(x, ad.add(eps, Tensor(np.ones(()))))
            return ad.reduce_sum(ad.add(scaled, ad.mul(x, ad.tanh(eps))))

        got, want, untouched = _both_backwards(build, [eps])
        assert untouched
        assert type(got[eps]) is np.ndarray and got[eps].shape == ()
        assert got[eps].tobytes() == want[eps].tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_small_model_gradients_and_adamw_step(self, dtype):
        """A two-block model on a batch of four molecules: every leaf
        gradient equals the reference accumulation, and one AdamW step from
        either gives the same parameter and moment bytes."""
        from moce.encoder import batch_graphs
        from moce.model import Model, ModelConfig, model_loss
        from moce.molgraph import featurize, parse_smiles
        from moce.train import OptimizerState, adamw_step

        cfg = ModelConfig(embed_dim=6, num_gnn_layers=2,
                          num_processing_layers=2, num_experts=4, k_s=2,
                          k_t=3, pool_ratio=0.5, task_dim=5)
        batch = batch_graphs([featurize(parse_smiles(s)) for s in
                              ("CCO", "c1ccccc1O", "C", "CC(=O)NC1CC1")])
        rng = np.random.default_rng(21)
        tasks = Tensor(rng.normal(size=(4, 5)).astype(dtype))
        labels = np.array([1.0, 0.0, 1.0, 0.0])

        def state():
            model = Model.create(cfg, seed=21, dtype=dtype)
            return model, OptimizerState.create(model.parameters(), lr=0.01,
                                                weight_decay=0.01)

        model, _ = state()
        params = model.parameters()

        def build():
            rngs = [np.random.default_rng(70 + b) for b in range(2)]
            out = model.forward(batch, tasks, noise_on=True, rngs=rngs)
            return model_loss(model, out, labels, beta=0.5).overall

        got, want, untouched = _both_backwards(build, list(params.values()))
        assert untouched
        assert got.keys() == want.keys() == set(params.values())
        for name, p in params.items():
            assert got[p].dtype == dtype, name
            assert np.array_equal(got[p], want[p]), name

        after = []
        for grads in (got, want):
            fresh, opt = state()
            live = fresh.parameters()
            for n, slot in opt.views(opt.grads).items():
                slot[...] = grads[params[n]]
            adamw_step(live, opt, lr=0.01)
            ms, vs = opt.views(opt.m), opt.views(opt.v)
            after.append([arr.tobytes() for n in sorted(live)
                          for arr in (live[n].data, ms[n], vs[n])])
        assert after[0] == after[1]


def _one_cpu(monkeypatch):
    monkeypatch.setattr(ad.os, "sched_getaffinity", lambda pid: {0})


def _every_job_on_the_worker(monkeypatch):
    """``_both`` pairs every job, however small, and never takes one back
    from the worker, so the worker runs each second job."""
    monkeypatch.setattr(ad.os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(ad, "PAIR_MIN_WORK", 0)
    monkeypatch.setattr(Future, "cancel", lambda self: False)


def _counting_both(monkeypatch) -> list:
    """Counts the ``ad._both`` calls with work enough to pair."""
    calls = []
    real = ad._both

    def both(first, second, work):
        if work >= ad.PAIR_MIN_WORK:
            calls.append(1)
        real(first, second, work)

    monkeypatch.setattr(ad, "_both", both)
    return calls


def _step_bytes(dtype) -> list[bytes]:
    """One training step, forward, backward and AdamW, at a shape whose
    GIN and expert products are above ``ad.PAIR_MIN_WORK``: the bytes of
    every gradient, parameter and Adam moment."""
    from moce.experts import resolve_tasks
    from moce.model import Model, ModelConfig, model_loss
    from moce.synthetic import synthesize_dataset
    from moce.train import OptimizerState, adamw_step, make_batch

    cfg = ModelConfig(embed_dim=128, num_gnn_layers=1,
                      num_processing_layers=2, num_experts=8, k_s=2, k_t=4,
                      pool_ratio=0.5, task_dim=8)
    records = synthesize_dataset(
        seed=11, tasks={"c": "carbonyl", "a": "aromatic_ring"}, per_task=32)
    tasks = resolve_tasks(["a", "c"], None, fallback_dim=8)
    batch, t, labels, _ = make_batch(records, tasks, dtype=dtype)
    model = Model.create(cfg, seed=4, dtype=dtype)
    params = model.parameters()
    opt = OptimizerState.create(params, lr=0.01, weight_decay=0.01)
    with Tape() as tape:
        rngs = [np.random.default_rng(90 + b) for b in range(2)]
        out = model.forward(batch, t, noise_on=True, rngs=rngs)
        loss = model_loss(model, out, labels, beta=0.1).overall
        grads = opt.views(opt.grads)
        tape.backward(loss, into=dict(zip(params.values(), grads.values())))
    adamw_step(params, opt, lr=0.01)
    ms, vs = opt.views(opt.m), opt.views(opt.v)
    return [arr.tobytes() for n in params
            for arr in (grads[n], params[n].data, ms[n], vs[n])]


def _live_row_grads(dtype):
    """``dense(relu=True)``'s and ``matmul``'s gradients at shapes above
    ``ad.PAIR_MIN_WORK``, with half of dense's rows dead, beside the numpy
    products each must equal bit for bit."""
    rng = np.random.default_rng(8)
    x = rng.normal(size=(600, 128)).astype(dtype)
    x = np.abs(x) + 0.125
    x[::2] *= -1  # with w > 0 and b = 0, these rows are dead, the rest live
    w = (np.abs(rng.normal(size=(128, 64))) + 0.125).astype(dtype)
    b = np.zeros(64, dtype)
    g = rng.normal(size=(600, 64)).astype(dtype)
    leaves = [Tensor(a, requires_grad=True) for a in (x, w, b)]
    with Tape():
        out = ad.dense(*leaves, relu=True)
        prod = ad.matmul(leaves[0], leaves[1])
    dx, dw, _ = out.node.vjp(g)
    px, pw = prod.node.vjp(g)
    live = np.flatnonzero((g * (out.data > 0)).any(axis=1))
    assert len(live) == 300 and isinstance(dx, ad.RowSparse)
    masked = (g * (out.data > 0))[live]
    got = [dx.values, dw, px, pw]
    want = [masked @ w.T, x[live].T @ masked, g @ w.T, x.T @ g]
    return got, want


class TestTwoCpus:
    """``ad._both`` runs a large backward's two products, and AdamW's two
    halves, on two CPUs; no bit may depend on it."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_worker_and_inline_training_steps_are_equal(self, dtype,
                                                        monkeypatch):
        calls = _counting_both(monkeypatch)
        paired = _step_bytes(dtype)
        assert calls  # the GIN and expert products were above the cutoff
        with monkeypatch.context() as m:
            _one_cpu(m)
            inline = _step_bytes(dtype)
        with monkeypatch.context() as m:
            _every_job_on_the_worker(m)
            on_worker = _step_bytes(dtype)
        assert paired == inline
        assert on_worker == inline

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_live_row_and_matmul_products_are_numpys(self, dtype,
                                                     monkeypatch):
        calls = _counting_both(monkeypatch)
        for setting in (None, _one_cpu, _every_job_on_the_worker):
            with monkeypatch.context() as m:
                if setting:
                    setting(m)
                got, want = _live_row_grads(dtype)
            _assert_same_bits(got, want)
        assert len(calls) == 6  # two vjps per setting

    def test_adamw_halves_share_no_buffer(self, monkeypatch):
        """Stress: thread switches every microsecond while both halves
        update on two threads; a buffer they shared would lose updates."""
        from moce.train import OptimizerState, adamw_step

        rng = np.random.default_rng(5)
        shapes = [(int(n),) for n in rng.integers(1, 3000, size=48)]
        grads = [{i: rng.normal(size=s) for i, s in enumerate(shapes)}
                 for _ in range(4)]

        def run():
            params = arena_params({i: np.ones(s)
                                   for i, s in enumerate(shapes)})
            opt = OptimizerState.create(params, lr=0.01, weight_decay=0.01)
            slots = opt.views(opt.grads)
            for g in grads:
                for i, a in g.items():
                    slots[i][...] = a
                adamw_step(params, opt, lr=0.01)
            ms, vs = opt.views(opt.m), opt.views(opt.v)
            return [a.tobytes() for i in params
                    for a in (params[i].data, ms[i], vs[i])]

        with monkeypatch.context() as m:
            _one_cpu(m)
            want = run()
        _every_job_on_the_worker(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = [run() for _ in range(5)]
        finally:
            sys.setswitchinterval(interval)
        assert all(g == want for g in got)

    def test_worker_exception_raises_in_the_caller(self, monkeypatch):
        _every_job_on_the_worker(monkeypatch)

        def fail():
            raise RuntimeError("in the worker")

        with pytest.raises(RuntimeError, match="in the worker"):
            ad._both(lambda: None, fail, ad.PAIR_MIN_WORK)
        done = []
        ad._both(lambda: done.append("first"), lambda: done.append("second"),
                 ad.PAIR_MIN_WORK)
        assert sorted(done) == ["first", "second"]

    def test_first_job_exception_waits_for_the_second(self, monkeypatch):
        _every_job_on_the_worker(monkeypatch)
        done = []

        def fail():
            raise RuntimeError("in the caller")

        with pytest.raises(RuntimeError, match="in the caller"):
            ad._both(fail, lambda: (time.sleep(0.05), done.append(1)),
                     ad.PAIR_MIN_WORK)
        assert done == [1]

    def test_small_jobs_run_here_without_reading_the_cpus(self, monkeypatch):
        def refuse(pid):
            raise AssertionError("the CPU count was read")

        monkeypatch.setattr(ad.os, "sched_getaffinity", refuse)
        done = []
        ad._both(lambda: done.append("first"), lambda: done.append("second"),
                 ad.PAIR_MIN_WORK - 1)
        assert done == ["first", "second"]

    def test_one_cpu_starts_no_thread(self, monkeypatch):
        monkeypatch.setattr(ad, "_worker", None)
        _one_cpu(monkeypatch)
        threads = threading.active_count()
        got, want = _live_row_grads(np.float64)
        _assert_same_bits(got, want)
        assert threading.active_count() == threads
        assert ad._worker is None

    @pytest.mark.filterwarnings(
        "ignore:This process .* is multi-threaded:DeprecationWarning")
    def test_forked_child_runs_jobs_on_a_worker_of_its_own(self,
                                                           monkeypatch):
        monkeypatch.setattr(ad.os, "sched_getaffinity", lambda pid: {0, 1})
        ad._both(lambda: None, lambda: None, ad.PAIR_MIN_WORK)
        assert ad._worker is not None

        def child():
            # a job left queued for a worker the fork did not copy would
            # never run: the child must start its own
            Future.cancel = lambda self: False
            got, want = _live_row_grads(np.float64)
            _assert_same_bits(got, want)

        proc = multiprocessing.get_context("fork").Process(target=child)
        proc.start()
        proc.join(timeout=60)
        if proc.is_alive():
            proc.kill()
            proc.join()
            pytest.fail("the forked child hung")
        assert proc.exitcode == 0


def _fd_single(op, x_data, **kwargs):
    x = Tensor(np.asarray(x_data, dtype=np.float64), requires_grad=True)
    return finite_diff_check(
        lambda t: ad.reduce_sum(ad.mul(op(t, **kwargs) if kwargs else op(t),
                                       Tensor(_weights(op, x_data, kwargs)))),
        [x],
    )


def _weights(op, x_data, kwargs):
    # fixed random weights turn any output into a scalar without losing
    # per-entry gradient information
    # (crc32, not hash(): string hashes change from process to process)
    rng = np.random.default_rng(zlib.crc32(op.__name__.encode()))
    probe = op(Tensor(np.asarray(x_data, dtype=np.float64)), **kwargs)
    return rng.normal(size=probe.data.shape)


class TestPerOpFiniteDifferences:
    """Every differentiable op agrees with central differences, 100 trials
    per family at rel_tol 1e-4 in float64."""

    UNARY = ["relu", "tanh", "softplus", "normal_cdf"]

    def test_unary_family(self):
        rng = np.random.default_rng(42)
        for name in self.UNARY:
            op = getattr(ad, name)
            for _ in range(100):
                x = rng.normal(size=rng.integers(1, 7)) * 2.0
                if name == "relu":
                    # keep inputs away from the kink
                    x = np.where(np.abs(x) < 1e-2, x + 0.05, x)
                if name == "normal_cdf":
                    # beyond |x| = 4 the density times a small weight falls
                    # below what a central difference of an O(1) loss can
                    # resolve in float64 (~1e-12 / 2e-4)
                    x = np.clip(x, -4.0, 4.0)
                r = _fd_single(op, x)
                assert r.passed, f"{name}: {r}"

    def test_log_and_sqrt_on_positive_inputs(self):
        rng = np.random.default_rng(42)
        for name in ("sqrt",):
            op = getattr(ad, name)
            for _ in range(100):
                x = rng.uniform(0.5, 4.0, size=rng.integers(1, 7))
                r = _fd_single(op, x)
                assert r.passed, f"{name}: {r}"

    def test_binary_family(self):
        rng = np.random.default_rng(42)
        for name in ("add", "sub", "mul", "div"):
            op = getattr(ad, name)
            for _ in range(100):
                shape = (rng.integers(1, 4), rng.integers(1, 4))
                a = Tensor(rng.normal(size=shape), requires_grad=True)
                b_data = rng.normal(size=shape)
                if name == "div":
                    b_data = np.sign(b_data) * (np.abs(b_data) + 0.5)
                b = Tensor(b_data, requires_grad=True)
                w = rng.normal(size=shape)
                r = finite_diff_check(
                    lambda x, y: ad.reduce_sum(ad.mul(op(x, y), Tensor(w))),
                    [a, b],
                )
                assert r.passed, f"{name}: {r}"

    def test_matmul(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n, k, m = rng.integers(1, 4, size=3)
            a = Tensor(rng.normal(size=(n, k)), requires_grad=True)
            b = Tensor(rng.normal(size=(k, m)), requires_grad=True)
            w = rng.normal(size=(n, m))
            r = finite_diff_check(
                lambda x, y: ad.reduce_sum(ad.mul(ad.matmul(x, y), Tensor(w))),
                [a, b],
            )
            assert r.passed, str(r)

    def test_softmax(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            x = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
            w = rng.normal(size=(2, 5))
            r = finite_diff_check(
                lambda t: ad.reduce_sum(ad.mul(ad.softmax(t, axis=1), Tensor(w))),
                [x],
            )
            assert r.passed, str(r)

    def test_reductions(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
            for f in (
                lambda t: ad.reduce_sum(t),
                lambda t: ad.reduce_mean(ad.mul(t, t)),
                lambda t: ad.reduce_sum(ad.reduce_mean(t, axis=1)),
            ):
                r = finite_diff_check(f, [x])
                assert r.passed, str(r)

    def test_scatter_gather_masks(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            x = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
            ids = rng.integers(0, 3, size=6)
            keep = rng.random(size=(6, 3)) > 0.4
            w1 = rng.normal(size=(3, 3))
            w2 = rng.normal(size=(4, 3))
            idx_rows = rng.integers(0, 6, size=4)
            idx_cols = rng.integers(0, 3, size=(6, 2))
            w3 = rng.normal(size=(6, 2))
            w4 = rng.normal(size=(3, 6))
            for f in (
                lambda t: ad.reduce_sum(
                    ad.mul(ad.scatter_segment_sum(t, ids, 3), Tensor(w1))
                ),
                lambda t: ad.reduce_sum(
                    ad.mul(ad.gather_rows(t, idx_rows), Tensor(w2))
                ),
                lambda t: ad.reduce_sum(
                    ad.mul(ad.gather_cols(t, idx_cols), Tensor(w3))
                ),
                lambda t: ad.reduce_sum(ad.mul(ad.mask_fill(t, keep, -1.5), t)),
                lambda t: ad.reduce_sum(
                    ad.mul(ad.reshape(t, (3, 6)), Tensor(w4))
                ),
            ):
                r = finite_diff_check(f, [x])
                assert r.passed, str(r)

    def test_concat(self):
        # two and three pieces of unequal widths, along each axis of a
        # matrix and along the last one by a negative index
        rng = np.random.default_rng(42)
        for axis in (1, 0, -1):
            for widths in ((3, 2), (3, 1, 2)):
                for _ in range(100 // len(widths)):
                    pieces = []
                    for k in widths:
                        shape = [2, 2]
                        shape[axis] = k
                        pieces.append(Tensor(rng.normal(size=shape),
                                             requires_grad=True))
                    shape = [2, 2]
                    shape[axis] = sum(widths)
                    w = Tensor(rng.normal(size=shape))
                    r = finite_diff_check(
                        lambda *xs: ad.reduce_sum(
                            ad.mul(ad.concat(xs, axis=axis), w)),
                        pieces,
                    )
                    assert r.passed, str(r)


class TestFiniteDiffHarness:
    def test_reports_pass_on_correct_gradients(self):
        x = Tensor(np.array([0.3, -0.2]), requires_grad=True)
        report = finite_diff_check(lambda t: ad.reduce_sum(ad.tanh(t)), [x])
        assert isinstance(report, FdReport)
        assert report.passed
        assert report.coordinates_checked == 2
        assert report.max_rel_error < 1e-6

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
    def test_meaningless_tolerance_rejected(self, tol):
        x = Tensor(np.array([0.3, -0.2]), requires_grad=True)
        with pytest.raises(ValueError, match="finite positive"):
            finite_diff_check(lambda t: ad.reduce_sum(ad.tanh(t)), [x],
                              rel_tol=tol)

    def test_detects_a_wrong_derivative(self, monkeypatch):
        """A deliberately corrupted softplus derivative must fail the check."""

        def bad_softplus(x):
            big = x.data > 30.0
            y = np.where(big, x.data, np.log1p(np.exp(np.minimum(x.data, 30.0))))
            return ad._op(y, (x,), lambda g: (g * 0.5,))

        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        report = finite_diff_check(lambda t: ad.reduce_sum(bad_softplus(t)), [x])
        assert not report.passed
        assert report.max_rel_error > 1e-2
