"""Reverse-mode automatic differentiation over numpy arrays.

A ``Tensor`` wraps an ndarray. While a ``Tape`` is active, every operation
appends one node recording a vector-Jacobian closure and, per input, the
target its gradient goes to: the input's node on this tape, the input
itself if it is a leaf that needs a gradient, or None. The append order is
a topological order of the computation, so ``backward`` visits nodes
exactly once in reverse and forms the gradient of each reached leaf in one
slot of the leaf's shape and dtype: one the caller gave for that leaf, or
one it makes and returns in a map keyed by that leaf. With no active tape,
operations compute values only, which is what evaluation mode and the
finite-difference harness rely on.

Every primitive records through ``_op`` with one contract: its
vector-Jacobian product maps the output gradient to a tuple of exactly
one gradient, or None, per input, each already of its input's shape.
Only the broadcasting ops (``add``, ``sub``, ``mul``, ``div``, and the
mul fused into ``pool_rows``) sum a gradient back over broadcast axes.
``backward`` raises ValueError when a vector-Jacobian product returns
another number of gradients.

A node holds no tensor other than a leaf, and its closure holds, in its
own cells, the arrays its gradient reads (a relu mask, a tanh output, the
operands of ``mul``, ``div`` and ``matmul``, kept both even when one needs
no gradient) and the shapes and dtypes of the rest. So an intermediate
that the caller drops is freed during the forward pass unless some
gradient reads it. ``backward`` drops each node's closure once it has
run, so the graph's arrays are freed while the gradients build up, and a
tape runs ``backward`` once: a second call raises TapeConsumed. A node
itself lives until its tape and every output that reaches it are dropped,
so an output kept past ``backward`` keeps its value and its ``Node``, not
the graph's arrays.

Gradients never flow through integer index arrays (gather/scatter
indices); those are constants of the forward pass.

A fused primitive records one node for a chain of generic ops. It takes
one shape per operand and raises ShapeMismatch on any other: ``dense`` x
(n, k), w (k, m), b (m,); ``gin_messages`` nodes (n, d), edges (len(src),
d); ``sag_scores`` x (n, d), theta (d, 1), dinv (n, 1). It runs the
chain's numpy operations in the same order, so its value is the chain's
bit for bit, and so are its gradients, with two exceptions where the
backward skips the rows whose gradient is exactly zero:

- a row-sparse x-gradient (``dense``'s, ``sag_scores``' and
  ``pool_rows``'): the skipped rows come out +0.0 where the chain's could
  be -0.0;
- a sum over the rows (``dense``'s w and b gradients when some row is
  dead, ``sag_scores``' theta gradient): it drops the exact-zero terms and
  adds the rest in another order, so it matches the chain to round-off.

With two usable CPUs, the two products of a ``matmul`` or ``dense`` backward
of PAIR_MIN_WORK multiply-adds or more, and the two halves of a large AdamW
step, run at once, one on a worker thread (``_both``). Each is the same numpy
call on the same operands either way, so no bit depends on it; BLAS threads
are left to the environment.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from dataclasses import dataclass, field, fields
from typing import Callable, Sequence

import numpy as np


class ShapeMismatch(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class EmptyAxis(ValueError):
    """A reduction was requested over an axis of length zero."""


class IndexOutOfRange(IndexError):
    """A gather or scatter index lies outside the valid range."""


class NotScalar(ValueError):
    """backward() needs a scalar loss on the active tape."""


class TapeConsumed(RuntimeError):
    """backward() already ran on this tape and dropped its closures."""


class AllMaskedRow(ValueError):
    """softmax saw a row consisting entirely of the minus-infinity sentinel."""


class LayoutMismatch(ValueError):
    """Parameters that break the arena layout rule (``arena_of``); the
    message names the first one that does."""


def neg_inf(dtype=np.float64) -> float:
    """Most-negative finite value of ``dtype``, used as the -inf sentinel."""
    return float(np.finfo(dtype).min)


_erf = np.vectorize(math.erf, otypes=[np.float64])
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

_state = threading.local()


class Node:
    """One recorded operation: one gradient target per input (the
    producing ``Node`` on the same tape, a leaf ``Tensor``, or None for an
    input that needs no gradient), a vector-Jacobian product (None once
    ``Tape.backward`` has run it), and the node's position on its tape."""

    __slots__ = ("inputs", "vjp", "pos")

    def __init__(self, inputs, vjp, pos):
        self.inputs = inputs
        self.vjp = vjp
        self.pos = pos


class Tensor:
    """Array value, optionally a leaf of the differentiation tape.

    ``requires_grad`` marks leaves that should receive gradients. Results of
    operations on such tensors carry ``node`` references while a tape is
    active. Gradients live only in the map ``Tape.backward`` returns, keyed
    by leaf, or in the slots the caller gives it.
    """

    __slots__ = ("data", "requires_grad", "node")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.node: Node | None = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Module:
    """Base of the parameter dataclasses: ``parameters`` names their tensors
    by one rule, in field order. With ``key`` a field's ``metadata["key"]``
    or else its name, a tensor is ``key``, a list of tensors ``key.i``, a
    module ``key.sub`` and a list of modules ``key{i}.sub``; other fields
    are skipped. These names, in this order, are the checkpoint keys.
    """

    def parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for f in fields(self):
            key = f.metadata.get("key", f.name)
            value = getattr(self, f.name)
            if isinstance(value, Tensor):
                out[key] = value
            elif isinstance(value, Module):
                out.update((f"{key}.{name}", t)
                           for name, t in value.parameters().items())
            elif isinstance(value, list):
                for i, item in enumerate(value):
                    if isinstance(item, Tensor):
                        out[f"{key}.{i}"] = item
                    else:
                        out.update((f"{key}{i}.{name}", t)
                                   for name, t in item.parameters().items())
        return out


def arena(shapes: Sequence[tuple[int, ...]], dtype) -> list[np.ndarray]:
    """Zeroed arrays of ``shapes``, in order, as views of one ``np.zeros``
    buffer with no gap between them. A large buffer's pages are mapped
    only when first written, and go back to the system in one piece once
    no view is left."""
    sizes = [math.prod(shape) for shape in shapes]
    buf = np.zeros(sum(sizes), dtype)
    views, start = [], 0
    for shape, size in zip(shapes, sizes):
        views.append(buf[start:start + size].reshape(shape))
        start += size
    return views


def arena_copies(arrays: Sequence[np.ndarray], dtype) -> list[np.ndarray]:
    """Copies of ``arrays``, cast to ``dtype``, as the views of one new
    ``arena``."""
    views = arena([a.shape for a in arrays], dtype)
    for view, a in zip(views, arrays):
        np.copyto(view, a)
    return views


def arena_of(params: dict[str, Tensor], like: dict | None = None
             ) -> np.ndarray:
    """The buffer that ``params``' data are the views of as ``arena`` lays
    them out: C-ordered, in order, with no gap or overlap, covering it, and
    with the names, shapes and dtypes of ``like`` (the optimizer's moments)
    when given. Else LayoutMismatch, naming the first parameter that breaks
    the rule. Reading each view's address (``ctypes.data``, ~1 us) is
    most of its cost."""
    like = params if like is None else like
    buf = next(iter(params.values())).data.base if params else None
    whole = (isinstance(buf, np.ndarray) and buf.ndim == 1
             and buf.flags.c_contiguous)
    end = buf.ctypes.data if whole else -1  # -1: no view's address matches
    where = "the end of the parameters"
    for (name, t), (want, ref) in itertools.zip_longest(
            params.items(), like.items(), fillvalue=(None, None)):
        a = t.data if name == want else None
        if (a is None or a.base is not buf or a.shape != ref.shape
                or a.dtype != ref.dtype or not a.flags.c_contiguous
                or a.ctypes.data != end):
            where = f"parameter {name or want!r}"
            break
        end += a.nbytes
    else:
        if whole and end == buf.ctypes.data + buf.nbytes:
            return buf
    raise LayoutMismatch(
        f"{where} breaks the optimizer's layout: the parameters must be the "
        "views of one buffer in the optimizer's order, names and shapes, "
        "with no gap or overlap, covering it (Model.create lays them out)")


def pack(tensors: Sequence[Tensor], dtype) -> None:
    """Copy ``tensors``' data, cast to ``dtype``, into one new ``arena``,
    in order, and rebind each tensor's data to its view there."""
    for t, view in zip(tensors, arena_copies([t.data for t in tensors], dtype)):
        t.data = view


class Tape:
    """Append-only record of operations, read by ``backward``.

    Nodes hold their position on the tape, not the tape itself, and reach
    only earlier nodes, so a finished tape is freed by reference counting
    alone. ``backward`` runs once per tape: it drops each node's
    vector-Jacobian closure, and with it the arrays the closure kept, but
    leaves the nodes in ``nodes``; they go when the tape and the outputs
    that reach them do.
    """

    def __init__(self):
        self.nodes: list[Node] = []
        self._consumed = False

    def __enter__(self):
        self._outer = getattr(_state, "tape", None)
        _state.tape = self
        return self

    def __exit__(self, exc_type, exc, tb):
        _state.tape = self._outer
        return False

    def _record(self, out: Tensor, inputs: tuple, vjp: Callable):
        targets = tuple(t.node if self._owns(t.node)
                        else t if t.requires_grad else None for t in inputs)
        node = Node(targets, vjp, len(self.nodes))
        out.node = node
        out.requires_grad = True
        self.nodes.append(node)

    def _owns(self, node: Node | None) -> bool:
        return (node is not None and node.pos < len(self.nodes)
                and self.nodes[node.pos] is node)

    def backward(self, loss: Tensor,
                 into: dict[Tensor, np.ndarray] | None = None
                 ) -> dict[Tensor, np.ndarray]:
        """Gradients of the scalar ``loss`` with respect to every
        requires_grad leaf reachable from it, as a map keyed by leaf. A leaf
        the loss does not reach has no entry.

        Nodes are visited in reverse tape order, and the gradients reaching
        one tensor add up in that order; an array a vector-Jacobian product
        returned is never written. A node's gradient adds up in buffers the
        tape made (see ``_accumulate``). A leaf's forms in one slot
        (``_add_into``): the first arrival is copied in (a row-sparse one
        over zeros) and later ones add in place.

        ``into`` maps leaves to slots of their shape and dtype: a leaf with
        a slot gets its gradient there, with no entry in the map returned,
        and a slot whose leaf the loss does not reach is zeroed. Any other
        reached leaf gets a new slot of its shape and dtype, returned in
        the map. So a leaf's gradient has its leaf's shape and dtype, in
        both forms, with the same bits: a 0-d leaf gets a 0-d array, and a
        float32 leaf a float32 gradient even where float64 ones reach it.

        Each node's vector-Jacobian closure is dropped as ``backward``
        reaches it, so the arrays it kept are freed once its gradients are
        added in, and a second call on the same tape raises TapeConsumed.
        """
        if self._consumed:
            raise TapeConsumed("backward already ran on this tape")
        if loss.data.size != 1:
            raise NotScalar(f"loss must be scalar, got shape {loss.data.shape}")
        if not self._owns(loss.node):
            raise NotScalar("loss is not an output of this tape")

        start = loss.node.pos
        node_grads: dict[Node, np.ndarray] = {loss.node: np.ones_like(loss.data)}
        owned: set = set()
        into = {} if into is None else into
        slots: dict[Tensor, np.ndarray] = {}  # each reached leaf's, in order
        self._consumed = True

        for pos in range(start, -1, -1):
            node = self.nodes[pos]
            vjp, node.vjp = node.vjp, None
            gout = node_grads.pop(node, None)
            if gout is None:
                continue
            for target, gin in zip(node.inputs, vjp(gout), strict=True):
                if gin is None or target is None:
                    continue
                if type(target) is Node:
                    _accumulate(node_grads, owned, target, gin)
                    continue
                slot = slots.get(target)
                first = slot is None
                if first:
                    slot = into.get(target)
                    if slot is None:
                        slot = np.empty(target.data.shape, target.data.dtype)
                    slots[target] = slot
                _add_into(slot, gin, first)
        for tensor, slot in into.items():
            if tensor not in slots:
                slot.fill(0)
        return {t: slot for t, slot in slots.items() if t not in into}


class RowSparse:
    """A gradient that is zero outside ``rows``: ``values[i]`` is row
    ``rows[i]`` (unique) of the dense array of ``shape``. A vector-Jacobian
    product may return one; ``Tape.backward`` adds it in and never hands it
    out."""

    __slots__ = ("shape", "rows", "values")

    def __init__(self, shape: tuple, rows: np.ndarray, values: np.ndarray):
        self.shape = shape
        self.rows = rows
        self.values = values

    def dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.values.dtype)
        out[self.rows] = self.values
        return out


def _accumulate(grads: dict, owned: set, key, gin) -> None:
    """Add the gradient ``gin`` into ``grads[key]``, a node's.

    A first arrival is stored as it is: it may alias an array the tape does
    not own (``add`` hands one gradient to both inputs, ``reshape`` returns
    a view). A row-sparse one is densified into a fresh buffer. A later
    arrival adds in place into a buffer the tape owns when the sum keeps
    its dtype, and otherwise into a fresh, owned copy. Each element gets the
    additions of the out-of-place sums, in the same order, except that a
    row-sparse gradient adds nothing to its zero rows, so a -0.0 held there
    stays -0.0 where the dense sum could have added +0.0.
    """
    held = grads.get(key)
    if held is None:
        if isinstance(gin, RowSparse):
            gin = gin.dense()
            owned.add(key)
        grads[key] = gin
        return
    if isinstance(gin, RowSparse):
        dtype = np.result_type(held, gin.values)
        if key not in owned or dtype != held.dtype:
            held = grads[key] = held.astype(dtype)
            owned.add(key)
        held[gin.rows] += gin.values
    elif key in owned and np.result_type(held, gin) == held.dtype:
        np.add(held, gin, out=held)
    else:
        grads[key] = held + gin
        if isinstance(grads[key], np.ndarray):  # 0-d operands sum to a scalar
            owned.add(key)


def _add_into(slot: np.ndarray, gin, first: bool) -> None:
    """``_accumulate``'s sums for one leaf, formed in ``slot`` and cast to
    its dtype: a first arrival is copied in, a row-sparse one over zeros,
    and a later one adds in place."""
    if isinstance(gin, RowSparse):
        if first:
            slot.fill(0)
            slot[gin.rows] = gin.values
        else:
            slot[gin.rows] += gin.values
    elif first:
        np.copyto(slot, gin)
    else:
        np.add(slot, gin, out=slot)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _op(out_data, inputs: tuple, vjp: Callable) -> Tensor:
    """Wrap ``out_data`` as the result of one primitive applied to
    ``inputs``, recorded only on an active tape and only when some input
    needs a gradient. ``vjp`` maps the output gradient to a tuple of
    exactly one gradient (or None) per input; the tape drops those of
    inputs that need none."""
    out = Tensor(out_data)
    tape = getattr(_state, "tape", None)
    if tape is not None and any(t.requires_grad for t in inputs):
        tape._record(out, inputs, vjp)
    return out


def _into(ufunc, a: np.ndarray, b: np.ndarray, fresh: bool = True):
    """``ufunc(a, b)``, into a ``fresh`` a (the same bits) when the result
    keeps a's dtype; numpy's broadcast error raised as ShapeMismatch."""
    try:
        if fresh and np.result_type(a, b) == a.dtype:
            return ufunc(a, b, out=a)
        return ufunc(a, b)
    except ValueError:
        raise ShapeMismatch(
            f"cannot broadcast shapes {a.shape} and {b.shape}") from None


def add(a: Tensor, b: Tensor) -> Tensor:
    sa, sb = a.data.shape, b.data.shape
    return _op(_into(np.add, a.data, b.data, fresh=False), (a, b),
               lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    sa, sb = a.data.shape, b.data.shape
    return _op(_into(np.subtract, a.data, b.data, fresh=False), (a, b),
               lambda g: (_unbroadcast(g, sa), _unbroadcast(-g, sb)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    A, B = a.data, b.data
    return _op(_into(np.multiply, A, B, fresh=False), (a, b),
               lambda g: (_unbroadcast(g * B, A.shape),
                          _unbroadcast(g * A, B.shape)))


def div(a: Tensor, b: Tensor) -> Tensor:
    A, B = a.data, b.data
    return _op(_into(np.divide, A, B, fresh=False), (a, b),
               lambda g: (_unbroadcast(g / B, A.shape),
                          _unbroadcast(-g * A / (B * B), B.shape)))


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0
    return _op(np.where(mask, x.data, 0.0), (x,), lambda g: (g * mask,))


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)
    return _op(y, (x,), lambda g: (g * (1.0 - y * y),))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softplus(x: Tensor) -> Tensor:
    # log(1 + exp(x)); for x > 30 the linear branch avoids exp overflow and
    # is exact to double precision
    big = x.data > 30.0
    y = np.where(big, x.data, np.log1p(np.exp(np.minimum(x.data, 30.0))))
    s = _sigmoid(x.data)
    return _op(y, (x,), lambda g: (g * s,))


def sqrt(x: Tensor) -> Tensor:
    y = np.sqrt(x.data)

    def dx(g):
        # derivative at exactly 0 is defined as 0 so a zero-variance input
        # yields a zero (not NaN) gradient
        g = np.asarray(g)
        denom = 2.0 * y
        safe = np.where(denom == 0.0, 1.0, denom)
        return (np.where(denom == 0.0, 0.0, g / safe),)

    return _op(y, (x,), dx)


def normal_cdf(x: Tensor) -> Tensor:
    """Standard normal CDF, exact erf with the Gaussian density gradient."""
    y = 0.5 * (1.0 + _erf(x.data * _INV_SQRT2))
    if x.data.dtype != np.float64:
        y = y.astype(x.data.dtype)
    pdf = np.exp(-0.5 * x.data * x.data) * _INV_SQRT_2PI
    return _op(y, (x,), lambda g: (g * pdf,))


# Least work for ``_both`` to pay off: multiply-adds per product of a
# backward (measured crossover ~1.5M) or elements of an AdamW step (0.4M
# to 1.5M, more for more and smaller tensors).
PAIR_MIN_WORK = 2_000_000

_worker = None  # ``_both``'s ThreadPoolExecutor, started on first use


def _forget_worker() -> None:
    """A forked child has no copy of the worker thread: start afresh."""
    global _worker
    _worker = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


def _usable_cpus() -> int:
    affinity = getattr(os, "sched_getaffinity", None)  # not on every platform
    return len(affinity(0)) if affinity else 1


def _both(first: Callable[[], None], second: Callable[[], None],
          work: int) -> None:
    """Run two independent jobs that each write only into arrays their
    caller allocated, ``second`` on the worker thread when ``work`` (the
    caller's measure of a job) reaches PAIR_MIN_WORK and this process may
    use two CPUs, else both here. If the worker has not started ``second``
    by the time ``first`` returns, it runs here instead, so a busy second
    CPU costs a queue round trip, never a wait. An exception in either job
    raises here, after both are done or cancelled."""
    global _worker
    if work < PAIR_MIN_WORK or _usable_cpus() < 2:  # small jobs: no syscall
        first()
        second()
        return
    # two threads racing here start two executors; the one dropped exits
    if _worker is None:
        # imported here: ~0.6 MB of RSS that a process which never pairs
        # (serving, small shapes) need not pay
        from concurrent.futures import ThreadPoolExecutor
        _worker = ThreadPoolExecutor(max_workers=1,
                                     thread_name_prefix="moce-both")
    job = _worker.submit(second)
    # both jobs are done, or ``second`` cancelled, before this returns, so no
    # worker still writes into a buffer once ``Tape.backward`` drops the
    # closure that owned it
    try:
        first()
    finally:
        taken_back = job.cancel()
        if not taken_back:
            job.result()
    if taken_back:
        second()


def _grad_products(g: np.ndarray, b: np.ndarray, a: np.ndarray):
    """``(g @ b.T, a.T @ g)``, the two products of the backward of
    ``a @ b``, as ``_both``'s jobs of ``g.shape[0] * b.size`` each."""
    ga = np.empty((g.shape[0], b.shape[0]), np.result_type(g, b))
    gb = np.empty((a.shape[1], g.shape[1]), np.result_type(a, g))
    _both(lambda: np.matmul(g, b.T, out=ga), lambda: np.matmul(a.T, g, out=gb),
          g.shape[0] * b.size)
    return ga, gb


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """2-D matrix product; any other rank raises ShapeMismatch."""
    A, B = a.data, b.data
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[0]:
        raise ShapeMismatch(f"matmul shapes {A.shape} and {B.shape}")
    return _op(A @ B, (a, b), lambda g: _grad_products(g, B, A))


def _relu_in_place(a: np.ndarray) -> None:
    """``a[:] = np.where(a > 0, a, 0.0)``, byte for byte, without a branch
    on each sign: fmax sends NaN and the negatives to +0.0 and may keep a
    -0.0, which adding +0.0 turns into +0.0."""
    np.fmax(a, 0.0, out=a)
    a += 0.0


def dense(x: Tensor, w: Tensor, b: Tensor, relu: bool = False) -> Tensor:
    """``x @ w + b`` for x (n, k), w (k, m) and b (m,), then a relu if
    asked: the fused chain ``relu(add(matmul(x, w), b))``. The sum forms
    in the product's buffer.

    The backward reads only the live rows of the (relu-masked) output
    gradient, those not all zero. With every row live it is the chain's
    bit for bit; otherwise x's gradient is row-sparse over the live rows,
    and w's and b's sum over those rows alone, which drops terms that are
    exact zeros but changes the order of the sum."""
    A, W = x.data, w.data
    if A.ndim != 2 or W.ndim != 2 or A.shape[1] != W.shape[0]:
        raise ShapeMismatch(f"matmul shapes {A.shape} and {W.shape}")
    if b.data.shape != (W.shape[1],):
        raise ShapeMismatch(
            f"dense bias must be ({W.shape[1]},), got {b.data.shape}")
    out = _into(np.add, A @ W, b.data)
    mask = out > 0 if relu else None
    if relu:
        _relu_in_place(out)

    def vjp(g):
        g = g if mask is None else g * mask
        live = g.any(axis=1)
        if live.all():
            return *_grad_products(g, W, A), g.sum(axis=0)
        rows = np.flatnonzero(live)
        g = g[rows]
        gx, gw = _grad_products(g, W, A[rows])
        return RowSparse(A.shape, rows, gx), gw, g.sum(axis=0)

    return _op(out, (x, w, b), vjp)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis``. Entries equal to the -inf sentinel become
    exact zeros; a slice made entirely of the sentinel raises AllMaskedRow.
    """
    sentinel = neg_inf(x.data.dtype)
    m = np.max(x.data, axis=axis, keepdims=True)
    if np.any(m <= sentinel):
        raise AllMaskedRow("softmax row contains only the -inf sentinel")
    e = np.exp(x.data - m)
    y = e / np.sum(e, axis=axis, keepdims=True)

    def dx(g):
        inner = np.sum(g * y, axis=axis, keepdims=True)
        return (y * (g - inner),)

    return _op(y, (x,), dx)


def _norm_axis(x: Tensor, axis):
    if axis is None:
        return None
    ax = axis if axis >= 0 else x.data.ndim + axis
    if ax < 0 or ax >= x.data.ndim:
        raise ShapeMismatch(f"axis {axis} out of range for shape {x.data.shape}")
    return ax


def _check_not_empty(x: Tensor, axis):
    if axis is None:
        if x.data.size == 0:
            raise EmptyAxis("reduction over an empty tensor")
    elif x.data.shape[axis] == 0:
        raise EmptyAxis(f"reduction over empty axis {axis}")


def _unreduce(g, shape: tuple, axis, keepdims: bool) -> np.ndarray:
    """A reduction's output gradient ``g``, broadcast back to the input
    ``shape``."""
    g = np.asarray(g)
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape)


def reduce_sum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axis = _norm_axis(x, axis)
    _check_not_empty(x, axis)
    y = np.sum(x.data, axis=axis, keepdims=keepdims)
    shape = x.data.shape
    return _op(y, (x,),
               lambda g: (_unreduce(g, shape, axis, keepdims).copy(),))


def reduce_mean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axis = _norm_axis(x, axis)
    _check_not_empty(x, axis)
    shape = x.data.shape
    n = x.data.size if axis is None else shape[axis]
    y = np.mean(x.data, axis=axis, keepdims=keepdims)
    return _op(y, (x,), lambda g: (_unreduce(g, shape, axis, keepdims) / n,))


class Index:
    """A constant integer index vector, checked once against ``bound``:
    every entry lies in [0, bound), else IndexOutOfRange naming ``what``.

    It caches, per row width w, the flat index ``ids * w + arange(w)`` by
    which ``_index_add`` scatters rows of w elements. The gather and
    scatter primitives take an Index or a raw vector, which they wrap on
    entry, so an Index made once for a batch (``encoder.batch_graphs``
    makes them) is neither checked nor flattened again by the calls that
    share it. Its cache lives as long as it does.
    """

    __slots__ = ("ids", "bound", "_flat")

    def __init__(self, ids, bound: int, what: str = "index"):
        ids = np.asarray(ids)
        if ids.size and (ids.min() < 0 or ids.max() >= bound):
            raise IndexOutOfRange(f"{what} outside [0, {bound})")
        self.ids, self.bound = ids, bound
        self._flat: dict[int, np.ndarray] = {}

    @classmethod
    def of(cls, ids, bound: int, what: str) -> "Index":
        """``ids`` itself if it is an Index of this ``bound``, else its
        entries checked now against ``bound``."""
        if isinstance(ids, Index):
            if ids.bound == bound:
                return ids
            ids = ids.ids
        return cls(ids, bound, what)

    def flat(self, width: int) -> np.ndarray:
        flat = self._flat.get(width)
        if flat is None:
            flat = self.ids.astype(np.intp).reshape(-1, 1) * width
            flat = self._flat[width] = (flat + np.arange(width)).reshape(-1)
        return flat


def _index_add(shape, dtype, index: Index, values: np.ndarray,
               rows: np.ndarray | None = None) -> np.ndarray:
    """zeros(shape, dtype) with each ``values[i]`` added into row
    ``index.ids[i]``, or with ``rows``, into row ``index.ids[rows[i]]``.

    ``values`` has shape ``index.ids[rows].shape + shape[1:]``. The rows
    are flattened, by the index's cached flat index (the rows of it that
    ``rows`` picks), so that ``np.add.at`` runs on 1-D operands, its fast
    path: every target element still starts at zero and receives its
    additions in index order, so the result is bit for bit that of
    ``np.add.at(out, index.ids[rows], values)``.
    """
    out = np.zeros(shape, dtype=dtype)
    width = math.prod(shape[1:])
    flat = index.flat(width)
    if rows is not None:
        flat = flat.reshape(-1, width)[rows].reshape(-1)
    np.add.at(out.reshape(-1), flat, values.reshape(-1))
    return out


def _check_segments(ids: Index, values: np.ndarray):
    if ids.ids.ndim != 1 or ids.ids.shape[0] != values.shape[0]:
        raise ShapeMismatch(f"segment ids shape {ids.ids.shape} does not "
                            f"match rows {values.shape}")


def scatter_segment_sum(values: Tensor, segment_ids, num_segments: int) -> Tensor:
    """out[s] = sum of values rows whose segment id is s.

    ``segment_ids`` is a constant integer vector (or ``Index``) aligned with
    axis 0 of ``values``; gradients gather straight back through it.
    """
    ids = Index.of(segment_ids, num_segments, "segment id")
    _check_segments(ids, values.data)
    out_data = _index_add((num_segments,) + values.data.shape[1:],
                          values.data.dtype, ids, values.data)
    ids = ids.ids  # the gradient gathers: no flat index to keep
    return _op(out_data, (values,), lambda g: (np.asarray(g)[ids],))


def gin_messages(nodes: Tensor, edges: Tensor, src, dst) -> Tensor:
    """GIN's aggregated messages: out[v] sums relu(nodes[src[i]] + edges[i])
    over the edges i with dst[i] = v, for nodes (n, d) and edges
    (len(src), d). The fused chain ``scatter_segment_sum(relu(add(
    gather_rows(nodes, src), edges)), dst, len(nodes))``; the messages form
    in the gathered buffer, and only their relu mask is kept."""
    n = nodes.data.shape[0]
    src = Index.of(src, n, "row index")
    msg = nodes.data[src.ids]
    if msg.ndim != 2 or edges.data.shape != msg.shape:
        raise ShapeMismatch(
            f"gin_messages needs edges {msg.shape}, got {edges.data.shape}")
    msg = _into(np.add, msg, edges.data)
    mask = msg > 0
    _relu_in_place(msg)
    dst = Index.of(dst, n, "segment id")
    _check_segments(dst, msg)
    out_data = _index_add((n,) + msg.shape[1:], msg.dtype, dst, msg)
    shape, dtype = nodes.data.shape, nodes.data.dtype

    def vjp(g):
        gm = g[dst.ids] * mask
        return _index_add(shape, dtype, src, gm), gm

    return _op(out_data, (nodes, edges), vjp)


def sag_scores(x: Tensor, theta: Tensor, dinv: np.ndarray, src, dst) -> Tensor:
    """SAG attention scores tanh(dinv * P(dinv * (x @ theta))) of a (d, 1)
    projection theta, with (n, 1) dinv, where P adds row src[i] into row
    dst[i] for each i: the fused chain ``tanh(mul(scatter_segment_sum(
    gather_rows(mul(matmul(x, theta), dinv), src), dst, len(x)), dinv))``.
    x's gradient is row-sparse, over the rows whose projected-score
    gradient g_u is non-zero: each entry of ``g_u @ theta.T`` is one
    product, so those rows are the chain's bit for bit. theta's gradient
    sums over the same rows alone, ``x[rows].T @ g_u[rows]``: the chain's
    sum without its terms of zero, in another order."""
    X, T, d = x.data, theta.data, np.asarray(dinv)
    if X.ndim != 2 or T.shape != (X.shape[1], 1) or d.shape != (len(X), 1):
        raise ShapeMismatch(
            f"sag_scores needs x (n, d), theta (d, 1) and dinv (n, 1), "
            f"got {X.shape}, {T.shape} and {d.shape}")
    u = X @ T
    n = u.shape[0]
    scaled = u * d
    src = Index.of(src, n, "row index")
    picked = scaled[src.ids]
    dst = Index.of(dst, n, "segment id")
    _check_segments(dst, picked)
    summed = _index_add((n, 1), picked.dtype, dst, picked)
    y = np.tanh(summed * d)
    dtype = scaled.dtype

    def vjp(g):
        g = _index_add((n, 1), dtype, src, (g * (1.0 - y * y) * d)[dst.ids])
        gu = g * d
        rows = np.flatnonzero(gu[:, 0])
        gu = gu[rows]
        return RowSparse(X.shape, rows, gu @ T.T), X[rows].T @ gu

    return _op(y, (x, theta), vjp)


def pool_rows(x: Tensor, scores: Tensor, weights, segment_ids,
              num_segments: int) -> Tensor:
    """out[s] = sum of (scores[i] * weights[i]) * x[i] over the rows i of
    segment s whose constant weight is non-zero.

    ``x`` is (n, d), ``scores`` (n, 1), ``weights`` and ``segment_ids``
    constant (n,) vectors. Rows of zero weight are never read, and their
    gradients are zero. The kept rows add in row order from zero, so the
    result is bit for bit ``scatter_segment_sum(mul(x, mul(scores, w)))``:
    the dropped terms were x * 0 = +-0, which leave a sum started at +0
    unchanged. The gradients are that composition's too, except that only
    the kept rows of live segments (an output-gradient row not all zero)
    are read: the kept rows of the other segments get +0.0, where the
    composition gave +-0.0.
    """
    X, w = x.data, np.asarray(weights)
    ids = Index.of(segment_ids, num_segments, "segment id")
    n = X.shape[0]
    if (X.ndim != 2 or scores.data.shape != (n, 1)
            or w.shape != (n,) or ids.ids.shape != (n,)):
        raise ShapeMismatch(
            f"pool_rows needs x (n, d), scores (n, 1), weights and ids (n,); "
            f"got {X.shape}, {scores.data.shape}, {w.shape}, {ids.ids.shape}")
    rows = w.nonzero()[0]
    seg = ids.ids[rows]
    scale = (scores.data[rows, 0] * w[rows])[:, None]
    kept = X[rows] * scale
    # the kept rows' flat index: rows of the segment ids' cached one, which
    # is gathered for this one scatter and not kept
    out_data = _index_add((num_segments, X.shape[1]), kept.dtype, ids, kept,
                          rows)
    scores_dtype = scores.data.dtype

    def vjp(g):
        g = np.asarray(g)
        live = g.any(axis=1)[seg]
        live_rows = rows[live]
        g_rows = g[seg[live]]
        dscores = np.zeros((n, 1), dtype=scores_dtype)
        # mul's sum back over x's columns, by the same helper: one column
        # is returned as it is, where a sum would turn -0.0 into +0.0
        picked = g_rows * X[live_rows]
        dscores[live_rows] = (_unbroadcast(picked, (live_rows.size, 1))
                              * w[live_rows, None])
        dx = _into(np.multiply, g_rows, scale[live]).astype(X.dtype, copy=False)
        return RowSparse(X.shape, live_rows, dx), dscores

    return _op(out_data, (x, scores), vjp)


def gather_rows(x: Tensor, indices) -> Tensor:
    """Select rows of ``x`` by a constant index vector (or ``Index``), as
    an embedding lookup does."""
    idx = Index.of(indices, x.data.shape[0], "row index")
    shape, dtype = x.data.shape, x.data.dtype
    return _op(x.data[idx.ids], (x,),
               lambda g: (_index_add(shape, dtype, idx, np.asarray(g)),))


def gather_cols(x: Tensor, indices) -> Tensor:
    """Row-wise gather: out[i, j] = x[i, indices[i, j]] for a 2-D ``x`` and
    a 2-D constant index matrix (or ``Index``)."""
    if x.data.ndim != 2:
        raise ShapeMismatch(f"gather_cols needs a 2-D x, got {x.data.shape}")
    n, m = x.data.shape
    idx = Index.of(indices, m, "column index")
    if idx.ids.ndim != 2 or idx.ids.shape[0] != n:
        raise ShapeMismatch(
            f"gather_cols needs matching 2-D shapes, got {x.data.shape} and "
            f"{idx.ids.shape}")
    rows = np.arange(n)[:, None]
    dtype = x.data.dtype

    def dx(g):
        # x's (n, m) gradient as n * m rows of one element: each entry of g
        # adds into cell (i, idx[i, j]), in the rows' order
        cells = Index(rows * m + idx.ids, n * m)
        return (_index_add((n * m,), dtype, cells, np.asarray(g)).reshape(n, m),)

    return _op(x.data[rows, idx.ids], (x,), dx)


def mask_fill(x: Tensor, keep_mask, fill_value: float) -> Tensor:
    """Keep entries where the constant boolean mask is True, set the rest to
    ``fill_value``. Gradient passes only through kept entries.
    """
    keep = np.asarray(keep_mask, dtype=bool)
    if keep.shape != x.data.shape:
        raise ShapeMismatch(f"mask shape {keep.shape} != tensor shape {x.data.shape}")
    out_data = np.where(keep, x.data, x.data.dtype.type(fill_value))
    return _op(out_data, (x,), lambda g: (np.asarray(g) * keep,))


def reshape(x: Tensor, shape) -> Tensor:
    old = x.data.shape
    return _op(x.data.reshape(shape), (x,),
               lambda g: (np.asarray(g).reshape(old),))


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate along ``axis``; gradients split back by the same offsets."""
    if not tensors:
        raise ShapeMismatch("concat of an empty sequence")
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([t.data.shape[axis] for t in tensors])[:-1].tolist()
    return _op(out_data, tuple(tensors),
               lambda g: tuple(np.split(np.asarray(g), offsets, axis=axis)))


def check_rel_tol(rel_tol: float) -> float:
    """``rel_tol`` if it is a finite positive number, else ValueError: a
    check ``rel > rel_tol`` against NaN is never true and passes anything."""
    if not (math.isfinite(rel_tol) and rel_tol > 0):
        raise ValueError(
            f"tolerance must be a finite positive number, got {rel_tol!r}")
    return rel_tol


FD_STEP = 1e-4  # central-difference step of ``finite_diff_check``
FD_TOL = 1e-4  # its default relative error bound, and ``moce gradcheck``'s


@dataclass
class FdReport:
    """Result of a finite-difference gradient verification run."""

    passed: bool
    max_rel_error: float
    coordinates_checked: int
    failures: list = field(default_factory=list)

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status}: {self.coordinates_checked} coordinates, "
            f"max rel err {self.max_rel_error:.3e}"
        )


def finite_diff_check(
    f: Callable[..., Tensor],
    inputs: Sequence[Tensor],
    rel_tol: float = FD_TOL,
    per_tensor: int | None = None,
    rng: np.random.Generator | None = None,
) -> FdReport:
    """Compare tape gradients of ``f(*inputs)`` against central differences.

    Every coordinate of every requires_grad input is perturbed by ``FD_STEP``
    in both directions, in place, so ``f`` may also read the inputs through
    a closure. With ``per_tensor`` set, only a sample of that many
    coordinates per input is checked, drawn from ``rng`` without
    replacement, tensor by tensor in input order. The relative error metric
    is |g_ad - g_fd| / (|g_ad| + |g_fd| + 1e-12). Inputs should be float64
    for the stated tolerances to be meaningful. ``rel_tol`` must be a finite
    positive number.
    """
    check_rel_tol(rel_tol)
    with Tape() as tape:
        loss = f(*inputs)
        grads = tape.backward(loss)

    max_rel = 0.0
    checked = 0
    failures = []
    for i, x in enumerate(inputs):
        if not x.requires_grad:
            continue
        g_ad = grads.get(x)
        if g_ad is None:
            g_ad = np.zeros_like(x.data)
        flat = x.data.reshape(-1)
        if per_tensor is None:
            coords = range(flat.size)
        else:
            coords = rng.choice(flat.size, size=min(per_tensor, flat.size),
                                replace=False)
        for j in coords:
            j = int(j)
            orig = flat[j]
            flat[j] = orig + FD_STEP
            hi = float(f(*inputs).data)
            flat[j] = orig - FD_STEP
            lo = float(f(*inputs).data)
            flat[j] = orig
            g_fd = (hi - lo) / (2.0 * FD_STEP)
            g_a = float(g_ad.reshape(-1)[j])
            rel = abs(g_a - g_fd) / (abs(g_a) + abs(g_fd) + 1e-12)
            checked += 1
            max_rel = max(max_rel, rel)
            if rel > rel_tol:
                failures.append((i, j, g_a, g_fd, rel))
    return FdReport(
        passed=not failures,
        max_rel_error=max_rel,
        coordinates_checked=checked,
        failures=failures,
    )
