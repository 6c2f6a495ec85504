"""Training objectives.

The base objective is binary cross-entropy from logits. Four collaboration
terms shape the expert pool: an attention-cosine penalty pushing expert
projections apart, a per-expert supervised term over assigned samples, and
coefficient-of-variation penalties on expert importance (squared) and
expected load (first power). The composed objective adds beta times their
sum to the base loss.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


class BadBeta(ValueError):
    """The collaboration weight beta must lie in (0, 1]."""


class ZeroNormTheta(UserWarning):
    """An attention vector had zero norm and was replaced by a basis vector."""


_EPS_MEAN = 1e-10


def bce(logit: Tensor, label) -> Tensor:
    """Binary cross-entropy from logits, elementwise.

    Computed as max(z, 0) - z*y + log(1 + exp(-|z|)), which never
    exponentiates a positive argument; its gradient is sigmoid(z) - y
    everywhere, z = 0 included. ``label`` may be a scalar or an array
    that broadcasts to ``logit``'s shape.
    """
    zd = logit.data
    y = np.broadcast_to(np.asarray(label, dtype=logit.dtype), zd.shape)
    value = (np.where(zd > 0, zd, 0.0) - zd * y) + np.log1p(np.exp(-np.abs(zd)))
    return ad._op(value, (logit,), lambda g: (g * (ad._sigmoid(zd) - y),))


def attention_cosine_loss(thetas: list[Tensor]) -> Tensor:
    """Mean pairwise cosine similarity of the expert attention vectors.

    The M vectors are stacked as the rows of one (M, d) matrix and each row
    is normalized to unit length; the loss averages the full M x M
    similarity table (diagonal included), which collapses to
    ||sum of unit rows||^2 / M^2. A zero-norm vector cannot be normalized:
    it is replaced by the first basis vector, passes no gradient, and a
    ZeroNormTheta warning is recorded. Vectors of different shapes raise
    ShapeMismatch.
    """
    if not thetas:
        raise ValueError("attention loss needs at least one vector")
    if len({t.shape for t in thetas}) != 1:
        raise ad.ShapeMismatch("attention vectors differ in shape")
    m = len(thetas)
    rows = ad.reshape(ad.concat(thetas, axis=0), (m, -1))
    norms = ad.sqrt(ad.reduce_sum(ad.mul(rows, rows), axis=1, keepdims=True))
    zero = norms.data == 0.0
    if zero.any():
        warnings.warn("zero-norm attention vector replaced by basis vector",
                      ZeroNormTheta)
        # a zero row is divided by 1, masked to 0, then set to the basis row
        basis = np.zeros(rows.shape, dtype=rows.dtype)
        basis[zero[:, 0], 0] = 1.0
        unit = ad.div(rows, ad.add(norms, Tensor(zero.astype(rows.dtype))))
        unit = ad.add(ad.mask_fill(unit, np.broadcast_to(~zero, rows.shape), 0.0),
                      Tensor(basis))
    else:
        unit = ad.div(rows, norms)
    total = ad.reduce_sum(unit, axis=0)
    dot = ad.reduce_sum(ad.mul(total, total))
    return ad.mul(dot, Tensor(1.0 / (m * m), dtype=dot.dtype))


def expert_specific_loss(per_expert_logits: Tensor, labels,
                         assignment: np.ndarray) -> Tensor:
    """Sum of BCE over every (sample, expert) pair the router assigned.

    ``per_expert_logits`` is (batch, experts); ``assignment`` is a 0/1
    matrix of the same shape, 1 where the router selected that expert for
    the sample (its ``RouteBatch.selected``), even if the selected gate
    underflowed to zero. The result is a raw sum, so each routed pair adds
    its full term regardless of batch size.
    """
    y = np.asarray(labels, dtype=per_expert_logits.dtype).reshape(-1, 1)
    mask = Tensor(np.asarray(assignment, dtype=per_expert_logits.dtype))
    per_pair = bce(per_expert_logits, y)
    return ad.reduce_sum(ad.mul(per_pair, mask))


def _importance_stats(per_expert_sums: Tensor) -> tuple[Tensor, Tensor]:
    """Population variance and guarded mean of a per-expert total."""
    mean = ad.reduce_mean(per_expert_sums)
    centered = ad.sub(per_expert_sums, mean)
    var = ad.reduce_mean(ad.mul(centered, centered))
    guarded = ad.add(mean, Tensor(_EPS_MEAN, dtype=mean.dtype))
    return var, guarded


def importance_loss(gates: Tensor) -> Tensor:
    """Squared coefficient of variation of total gate mass per expert.

    ``gates`` is the (batch, experts) gate matrix; importance of expert j is
    the column sum. Equal importances give exactly zero.
    """
    importance = ad.reduce_sum(gates, axis=0)
    var, guarded = _importance_stats(importance)
    return ad.div(var, ad.mul(guarded, guarded))


def load_loss(p_choose: Tensor) -> Tensor:
    """Coefficient of variation (first power) of expected expert load.

    ``p_choose`` is the (batch, experts) matrix of selection probabilities
    under fresh routing noise; load of expert j is the column sum.
    """
    load = ad.reduce_sum(p_choose, axis=0)
    var, guarded = _importance_stats(load)
    return ad.div(ad.sqrt(var), guarded)


@dataclass(frozen=True)
class LossToggles:
    """Which collaboration terms participate in the objective.

    A disabled term contributes exactly zero to the composed loss and to
    every gradient, which is what the ablation comparisons switch."""

    att: bool = True
    exp: bool = True
    imp: bool = True
    lod: bool = True


@dataclass
class LossBreakdown:
    """Composed objective with every term exposed for logging."""

    base: Tensor
    att: Tensor
    exp: Tensor
    imp: Tensor
    lod: Tensor
    overall: Tensor

    def floats(self) -> dict[str, float]:
        return {f.name: float(getattr(self, f.name).data) for f in fields(self)}


def overall_loss(base: Tensor, att: Tensor, exp: Tensor, imp: Tensor,
                 lod: Tensor, beta: float) -> LossBreakdown:
    """base + beta * (att + exp + imp + lod), with the parts retained."""
    if not 0.0 < beta <= 1.0:
        raise BadBeta(f"beta must be in (0, 1], got {beta}")
    col = ad.add(ad.add(att, exp), ad.add(imp, lod))
    overall = ad.add(base, ad.mul(col, Tensor(beta, dtype=col.dtype)))
    return LossBreakdown(base=base, att=att, exp=exp, imp=imp, lod=lod,
                         overall=overall)
