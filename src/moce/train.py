"""Training loop: AdamW with cosine annealing, AUC-ROC, metrics logging.

Randomness is counter-based so that every draw is addressable: routing
noise for processing block b at optimizer step s comes from a Philox
stream keyed (seed, b) at counter s, and the epoch shuffle from a separate
stream keyed (seed, shuffle) at counter epoch. Resuming from (seed, epoch,
step) therefore reproduces the exact remaining run.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .autodiff import LayoutMismatch, Tape, Tensor
from .encoder import BatchedGraph, batch_graphs
from .experts import TaskDescriptor
from .losses import LossBreakdown, LossToggles
from .model import ForwardResult, Model, model_loss
from .molgraph import DatasetRecord


class NonFiniteGradient(RuntimeError):
    """A gradient contained nan or inf; the optimizer step was aborted."""


_SHUFFLE_STREAM = 0xF1D0  # key word reserved for epoch shuffling

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8

# Elements per chunk of ``adamw_step``'s pass. Measured at the paper shape
# (13.2M float64 values, both halves paired on 2 CPUs), a step took 239 ms
# in chunks of 4K, 96 ms of 16K, 87 ms of 32K, 89 ms of 64K and 96 ms of
# 128K; at train-small's 29K values, 32K and over took 0.23 ms.
ADAM_CHUNK = 32_768


def shuffle_rng(seed: int, epoch: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(key=[seed, _SHUFFLE_STREAM], counter=[0, 0, 0, epoch]))


def noise_rngs(seed: int, step: int, num_blocks: int) -> list[np.random.Generator]:
    return [
        np.random.Generator(np.random.Philox(key=[seed, b],
                                              counter=[0, 0, 0, step]))
        for b in range(num_blocks)
    ]


@dataclass
class OptimizerState:
    """Decoupled-weight-decay Adam moments, keyed by parameter name. The
    decay rates and epsilon are the fixed ADAM_* constants.

    ``create`` takes parameters that keep the layout rule (``ad.arena_of``,
    else LayoutMismatch) and backs ``m``, ``v`` and the gradients ``grads``
    with three more arenas in that layout, which every step then holds the
    parameters to. ``grads`` is scratch, not state: each step rewrites all
    of it, no checkpoint holds it, and its pages are mapped by the first
    step that writes them. A deepcopy copies ``m`` and ``v`` into one
    buffer each and gets fresh zero ``grads``."""

    lr: float
    weight_decay: float
    step_count: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    grads: dict[str, np.ndarray] = field(default_factory=dict, repr=False)

    @classmethod
    def create(cls, params: dict[str, Tensor], lr: float,
               weight_decay: float) -> "OptimizerState":
        buf = ad.arena_of(params)
        shapes = [p.shape for p in params.values()]
        m, v, grads = (dict(zip(params, ad.arena(shapes, buf.dtype)))
                       for _ in range(3))
        return cls(lr=lr, weight_decay=weight_decay, m=m, v=v, grads=grads)

    def __deepcopy__(self, memo) -> "OptimizerState":
        moments = list(self.m.values())
        dtype = moments[0].dtype
        m, v, grads = (dict(zip(self.m, views)) for views in (
            ad.arena_copies(moments, dtype),
            ad.arena_copies(list(self.v.values()), dtype),
            ad.arena([a.shape for a in moments], dtype)))
        return replace(self, m=m, v=v, grads=grads)


def adamw_step(params: dict[str, Tensor], state: OptimizerState,
               lr: float) -> None:
    """One bias-corrected Adam update with decoupled weight decay, as one
    pass over four flat buffers: the parameters, ``state.grads``,
    ``state.m`` and ``state.v``.

    The gradients are read from ``state.grads``, where ``Tape.backward``
    (with ``into``) or the caller wrote them. ``params`` must keep the
    rule ``OptimizerState.create`` checked, in the optimizer's names,
    shapes and dtype (``ad.arena_of``), else LayoutMismatch. That check and
    the check of every gradient come before the moments or parameters
    change, so a bad layout or a non-finite batch leaves them untouched.

    The update runs in place with the operations of ``p -= lr * ((m /
    bc1) / (sqrt(v / bc2) + eps) + weight_decay * p)``, in chunks of
    ADAM_CHUNK elements; every element gets the same operations whatever
    the chunks, so the same bits. The two halves of the buffers, split at
    the midpoint, are ``ad._both``'s two jobs, each with its own scratch.
    """
    bufs = [ad.arena_of(params, state.m)] + [  # the state's own arenas
        next(iter(d.values())).base for d in (state.grads, state.m, state.v)]
    g = bufs[1]
    for start in range(0, g.size, ADAM_CHUNK):
        if not np.isfinite(g[start:start + ADAM_CHUNK]).all():
            name = next(n for n, a in state.grads.items()
                        if not np.isfinite(a).all())
            raise NonFiniteGradient(f"non-finite gradient in {name}")
    state.step_count += 1
    mid = g.size // 2
    ad._both(_adamw_job(bufs, 0, mid, state, lr),
             _adamw_job(bufs, mid, g.size, state, lr), g.size)


def _adamw_job(bufs: list[np.ndarray], lo: int, hi: int,
               state: OptimizerState, lr: float):
    """``adamw_step``'s in-place update of elements [lo, hi) of the flat
    buffers, as a job for ``ad._both``. Its scratch, two buffers of one
    chunk, is allocated here, on the calling thread."""
    p, g, m, v = (buf[lo:hi] for buf in bufs)
    scratch = np.empty((2, min(ADAM_CHUNK, hi - lo)), p.dtype)
    bc1 = 1.0 - ADAM_BETA1 ** state.step_count
    bc2 = 1.0 - ADAM_BETA2 ** state.step_count
    weight_decay = state.weight_decay

    def run() -> None:
        for start in range(0, hi - lo, ADAM_CHUNK):
            end = min(start + ADAM_CHUNK, hi - lo)
            a, b = scratch[:, :end - start]
            pc, gc = p[start:end], g[start:end]
            mc, vc = m[start:end], v[start:end]
            mc *= ADAM_BETA1
            mc += np.multiply(gc, 1.0 - ADAM_BETA1, out=a)
            vc *= ADAM_BETA2
            np.square(gc, out=b)
            vc += np.multiply(b, 1.0 - ADAM_BETA2, out=b)
            np.divide(mc, bc1, out=a)
            np.divide(vc, bc2, out=b)
            np.sqrt(b, out=b)
            b += ADAM_EPS
            a /= b                                    # the update
            np.multiply(pc, weight_decay, out=b)
            b += a
            b *= lr
            pc -= b

    return run


@dataclass
class ScheduleConfig:
    """Cosine annealing bounds."""

    total_steps: int
    min_lr_fraction: float = 0.0

    def __post_init__(self):
        if self.total_steps < 1:
            raise ValueError(f"total_steps must be >= 1, got {self.total_steps}")
        if not 0.0 <= self.min_lr_fraction <= 1.0:
            raise ValueError(
                f"min_lr_fraction must be in [0, 1], got {self.min_lr_fraction}")


def cosine_lr(step: int, schedule: ScheduleConfig, base_lr: float) -> float:
    if not 0 <= step <= schedule.total_steps:
        raise ValueError(
            f"step {step} outside [0, {schedule.total_steps}]")
    lo = base_lr * schedule.min_lr_fraction
    # a Python float: an np.float64 would lift a float32 update to float64
    return float(lo + 0.5 * (base_lr - lo) * (
        1.0 + np.cos(np.pi * step / schedule.total_steps)))


def auc_roc(scores, labels) -> float | None:
    """Probability a random positive outscores a random negative.

    Mann-Whitney rank form with average ranks for ties (a tied pair counts
    one half); infinite scores rank at the ends. Returns None when only one
    class is present or a score is NaN, which ranks against nothing; the
    undefined case is never reported as a number.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    pos = y == 1
    n_pos = int(pos.sum())
    n_neg = s.size - n_pos
    if n_pos == 0 or n_neg == 0 or np.isnan(s).any():
        return None
    _, inverse, counts = np.unique(s, return_inverse=True, return_counts=True)
    below = np.concatenate([[0], np.cumsum(counts)[:-1]])
    ranks = below[inverse] + (counts[inverse] + 1) / 2.0
    rank_sum = float(ranks[pos].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


@dataclass
class EpochMetrics:
    """One epoch's worth of reporting; with no completed batch, the losses
    are undefined: ``loss_means`` is empty and ``max_gate_share`` None."""

    epoch: int
    split: str
    per_task_auc: dict[str, float | None]
    mean_auc: float | None
    loss_means: dict[str, float]
    max_gate_share: float | None
    skipped_batches: int = 0


def make_batch(records: list[DatasetRecord],
               tasks: dict[str, TaskDescriptor],
               dtype=np.float64) -> tuple[BatchedGraph, Tensor, np.ndarray, list[str]]:
    """Featurized records -> (graph batch, task matrix, labels, task ids)."""
    batch = batch_graphs([r.graph for r in records])
    t = np.stack([tasks[r.task_id].embedding for r in records]).astype(dtype)
    labels = np.array([r.label for r in records], dtype=dtype)
    ids = [r.task_id for r in records]
    return batch, Tensor(t), labels, ids


def _max_gate_share(result: ForwardResult) -> float:
    """Mean over samples and blocks of each sample's largest gate."""
    return float(np.mean([res.route.gates.data.max(axis=1).mean()
                          for res in result.layers]))


def _chunks(seq, size: int):
    for start in range(0, len(seq), size):
        yield seq[start:start + size]


@dataclass
class _MetricsAccumulator:
    """Per-batch sums of losses, max-gate shares and per-task scores,
    shared by training and evaluation."""

    loss_sums: dict[str, float] = field(default_factory=dict)
    share_sum: float = 0.0
    num_batches: int = 0
    scores: dict[str, list] = field(default_factory=dict)
    labels: dict[str, list] = field(default_factory=dict)

    def add(self, breakdown: LossBreakdown, result: ForwardResult, labels: np.ndarray,
            ids: list[str]) -> None:
        self.num_batches += 1
        for key, value in breakdown.floats().items():
            self.loss_sums[key] = self.loss_sums.get(key, 0.0) + value
        self.share_sum += _max_gate_share(result)
        for i, task_id in enumerate(ids):
            self.scores.setdefault(task_id, []).append(result.logits.data[i])
            self.labels.setdefault(task_id, []).append(labels[i])

    def metrics(self, epoch: int, split: str,
                skipped_batches: int = 0) -> EpochMetrics:
        n = self.num_batches
        per_task_auc = {
            task_id: auc_roc(self.scores[task_id], self.labels[task_id])
            for task_id in sorted(self.scores)
        }
        defined = [a for a in per_task_auc.values() if a is not None]
        return EpochMetrics(
            epoch=epoch,
            split=split,
            per_task_auc=per_task_auc,
            mean_auc=float(np.mean(defined)) if defined else None,
            loss_means={k: v / n for k, v in self.loss_sums.items()},
            max_gate_share=self.share_sum / n if n else None,
            skipped_batches=skipped_batches,
        )


@dataclass
class TrainSettings:
    """Loop hyperparameters, passed explicitly; RunConfig holds the defaults."""

    batch_size: int
    seed: int
    lr: float
    beta: float
    # unread: adamw_step applies OptimizerState.weight_decay. Its last
    # writer is perfbench/workloads.py; delete it with that argument.
    weight_decay: float = 0.01
    toggles: LossToggles = LossToggles()


def train_epoch(model: Model, records: list[DatasetRecord],
                tasks: dict[str, TaskDescriptor], settings: TrainSettings,
                opt: OptimizerState, schedule: ScheduleConfig, epoch: int,
                start_step: int) -> tuple[EpochMetrics, int]:
    """One pass over the training records.

    Records are shuffled by the epoch-keyed stream, batches mix tasks
    freely, and routing noise is on. Returns the metrics and the next
    global step. Batches whose gradients go non-finite are skipped (the
    optimizer state is untouched) and counted. ``backward`` adds each
    step's gradients straight into ``opt.grads``.
    """
    params = model.parameters()
    ad.arena_of(params, opt.m)  # the slots below are the parameters' own
    slots = dict(zip(params.values(), opt.grads.values()))
    order = shuffle_rng(settings.seed, epoch).permutation(len(records))
    shuffled = [records[i] for i in order]

    step = start_step
    skipped = 0
    acc = _MetricsAccumulator()
    for chunk in _chunks(shuffled, settings.batch_size):
        batch, t_matrix, labels, ids = make_batch(
            chunk, tasks, dtype=model.dtype)
        rngs = noise_rngs(settings.seed, step, len(model.blocks))
        with Tape() as tape:
            result = model.forward(batch, t_matrix, noise_on=True, rngs=rngs)
            breakdown = model_loss(model, result, labels, settings.beta,
                                   settings.toggles)
            tape.backward(breakdown.overall, into=slots)
        lr_now = cosine_lr(min(step, schedule.total_steps), schedule,
                           settings.lr)
        step += 1
        try:
            adamw_step(params, opt, lr=lr_now)
        except NonFiniteGradient:
            skipped += 1
        else:
            acc.add(breakdown, result, labels, ids)
        # backward freed the graph's arrays; the outputs' values go here,
        # before the next forward. The gradients stay in opt.grads, which
        # the next backward rewrites whole.
        del tape, result, breakdown
    return acc.metrics(epoch, "train", skipped), step


def evaluate(model: Model, records: list[DatasetRecord],
             tasks: dict[str, TaskDescriptor], settings: TrainSettings,
             epoch: int = 0, split: str = "valid") -> EpochMetrics:
    """Noise-off evaluation: per-task AUC, loss means, gate statistics."""
    acc = _MetricsAccumulator()
    for chunk in _chunks(records, settings.batch_size):
        batch, t_matrix, labels, ids = make_batch(
            chunk, tasks, dtype=model.dtype)
        result = model.forward(batch, t_matrix, noise_on=False)
        acc.add(model_loss(model, result, labels, settings.beta,
                           settings.toggles), result, labels, ids)
    return acc.metrics(epoch, split)


LOSS_COLUMNS = ("base", "att", "exp", "imp", "lod")
METRICS_HEADER = ["epoch", "task_id", "split", "auc", *LOSS_COLUMNS,
                  "max_gate_share"]


def _cell(value: float | None) -> str:
    return "" if value is None else f"{value:.10f}"


class MetricsLog:
    """Comma-separated metrics file, one row per (epoch, task, split).

    A field is empty when undefined: ``auc`` for a single-class task, the
    losses and ``max_gate_share`` for an epoch with no completed batch. The
    ``task_id`` "__mean__" row carries the cross-task mean. Opening the log
    keeps an existing file's rows of epochs before ``first_epoch`` and drops
    the rest, so a run resumed at that epoch writes each row once.
    """

    def __init__(self, path, first_epoch: int = 0):
        self.path = path
        kept = []
        if first_epoch > 0 and os.path.exists(path):
            with open(path, newline="") as fh:
                kept = [row for row in list(csv.reader(fh))[1:]
                        if row and row[0].isdecimal() and int(row[0]) < first_epoch]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(METRICS_HEADER)
            writer.writerows(kept)

    def append(self, metrics: EpochMetrics) -> None:
        tail = [_cell(metrics.loss_means.get(k)) for k in LOSS_COLUMNS]
        tail.append(_cell(metrics.max_gate_share))
        with open(self.path, "a", newline="") as fh:
            writer = csv.writer(fh)
            rows = list(metrics.per_task_auc.items())
            rows.append(("__mean__", metrics.mean_auc))
            for task_id, auc in rows:
                writer.writerow([metrics.epoch, task_id, metrics.split,
                                 _cell(auc), *tail])


def read_metrics_log(path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))
