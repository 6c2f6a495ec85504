"""The benchmark's workloads: one session of the moce pipeline each.

Every workload runs the same session in one process, as a closed loop with
one client: set up (generate the corpus, write it as a dataset CSV, load it
with ``load_dataset_csv``, build the model), train, evaluate, and
serve single-molecule requests. The workloads differ in model shape,
molecule size, which phase runs for ``--seconds`` (the main phase) and how
much of the other phases they run. Every end-to-end metric thus exists on
every workload, while each workload stresses different layers:

- ``train-small``: the acceptance shape on ~12-atom molecules. Python
  per-op overhead dominates, and 1 expert in 4 goes unrouted. Training is
  the main phase. The valid AUC after 15 epochs is the quality guard.
- ``train-paper``: the ``ModelConfig`` default shape. Dense evaluation of
  60 experts (4 routed), the GIN scatter and backward dominate. Training is
  the main phase.
- ``predict-paper``: the paper shape serving one molecule per request (B=1,
  no tape, no backward) on larger molecules, with a checkpoint saved and
  loaded back in set-up. Serving is the main phase.

The model is built from a fixed seed; the workload seed drives the corpus.
The paper workloads train only a few steps, so their ``valid_auc`` is the
AUC of the freshly set-up model on a fixed reference set. It repeats exactly
on every seed and guards the forward numerics, not model quality.
"""

from __future__ import annotations

import contextlib
import copy
import math
import os
import resource
import statistics
import time
from dataclasses import dataclass, field, replace

import numpy as np

import corpus
from moce import checkpoint, encoder, molgraph, train
from moce.autodiff import Tensor
from moce.experts import resolve_tasks
from moce.model import Model, ModelConfig
from tracer import Tracer, tape_bytes

MODEL_SEED = 1
REFERENCE_SEED = 20231206
REFERENCE_ATOMS = (10, 16)
REFERENCE_SIZE = 128
PREDICT_RTOL = 1e-9
WEIGHT_DECAY = 0.001
BETA = 0.1

SMALL = ModelConfig(embed_dim=32, num_gnn_layers=2, num_processing_layers=2,
                    num_experts=8, k_s=2, k_t=4, pool_ratio=0.5, task_dim=16)
PAPER = ModelConfig()


@dataclass(frozen=True)
class Spec:
    """What one workload runs. Counts of ``train_epoch`` calls are "calls"."""

    config: ModelConfig
    atoms: tuple[int, int]   # heavy atoms per molecule, inclusive range
    train_size: int          # training molecules, a multiple of chunk
    held_size: int           # held-out molecules for evaluation and serving
    batch: int
    lr: float
    chunk: int               # molecules per call
    calls: int               # calls made at least
    schedule_calls: int      # calls the cosine schedule spans
    main: str                # "train" or "serve": what the traced run times
    requests: int            # requests served at least
    per_round: int           # requests served per round of the main phase
    train_every: int         # rounds per train_epoch call
    eval_slice: int          # reference molecules evaluated per round
    reference: bool          # valid AUC from the fixed reference set
    checkpoint: bool         # set-up saves the model and loads it back
    setups: int              # set-ups per run; setup_s is their median


# Fixed set sizes: every run does the same number of batches of the same
# sizes, so throughputs compare across seeds. At the paper shape, lr 0.01
# drove the loss from ~1e3 to ~1e7 within two steps; 0.001 keeps it finite
# and falling over the steps a run takes.
WORKLOADS = {
    "train-small": Spec(
        SMALL, (10, 14), train_size=400, held_size=200, batch=100, lr=0.01,
        chunk=400, calls=15, schedule_calls=15, main="train", requests=256,
        per_round=12, train_every=1, eval_slice=0, reference=False,
        checkpoint=False, setups=7),
    "train-paper": Spec(
        PAPER, (10, 16), train_size=512, held_size=64, batch=128, lr=0.001,
        chunk=128, calls=3, schedule_calls=100, main="train", requests=200,
        per_round=67, train_every=1, eval_slice=32, reference=True,
        checkpoint=False, setups=5),
    "predict-paper": Spec(
        PAPER, (16, 32), train_size=32, held_size=64, batch=16, lr=0.001,
        chunk=16, calls=2, schedule_calls=8, main="serve", requests=200,
        per_round=10, train_every=4, eval_slice=16, reference=True,
        checkpoint=True, setups=3),
}


@dataclass
class Session:
    spec: Spec
    tasks: dict
    settings: train.TrainSettings
    schedule: train.ScheduleConfig
    chunks: list[list[molgraph.DatasetRecord]]
    held_out: list[molgraph.DatasetRecord]
    reference: list[molgraph.DatasetRecord]
    model: Model
    opt: train.OptimizerState
    probe: "SpeedProbe | None" = None

    def tick(self) -> None:
        if self.probe:
            self.probe.tick()

    def quick(self) -> float:
        return self.probe.quick() if self.probe else 1.0


@dataclass
class Outcome:
    """What a run measured and how many of its operations failed a check."""

    metrics: dict
    samples: dict
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def check(self, ok: bool, what: str, count: int = 1) -> None:
        self.attempted += count
        if not ok:
            self.failed += count
            self.notes.append(what)


class SpeedProbe:
    """How fast the machine runs right now, relative to a reference.

    A shared machine's speed drifts: on a 2-vCPU host the same requests ran
    40-70% slower for minutes at a time, and within those minutes it
    flipped every 0.1-0.3 s between a fast and a slow state ~70% apart.
    ``at_reference`` scales a timed operation to the reference speed, never
    timing the probe itself:

    - An operation shorter than SHORT_S mostly runs in the state it starts
      in. ``quick`` times a 0.3 ms Python and small-array kernel just
      before it; its scale is QUICK_REFERENCE_S over that time. On
      train-small this narrowed the p10-p90 range of request latency from
      3.7-7.1 ms to about 15% either side of the median.
    - A longer operation spans many flips. ``tick`` streams through a 64 MB
      buffer at most every half second between operations, and ``speed``
      is REFERENCE_S over the run's median. The long operations here are
      paper-shape steps, evaluations and checkpoint round trips, which move
      gigabytes: over 25 paper-shape train steps, step time correlated 0.66
      with this kernel and 0.37 with a compute-bound one.
    """

    REFERENCE_S = 0.015
    QUICK_REFERENCE_S = 0.0004
    INTERVAL_S = 0.5
    SHORT_S = 1.0

    def __init__(self):
        rng = np.random.Generator(np.random.PCG64(0))
        self.small = [rng.standard_normal((50, 32)) for _ in range(2)]
        self.stream = np.ones(8_000_000)
        self.samples: list[float] = []
        self.last = -math.inf

    def tick(self) -> None:
        if time.perf_counter() - self.last < self.INTERVAL_S:
            return
        t0 = time.perf_counter()
        np.multiply(self.stream, 1.0, out=self.stream)
        self.stream.sum()
        self.last = time.perf_counter()
        self.samples.append(self.last - t0)

    def speed(self) -> float:
        """Above 1 when the machine runs faster than the reference."""
        return self.REFERENCE_S / statistics.median(self.samples)

    def quick(self) -> float:
        """Scale for an operation that starts now: above 1 when fast."""
        t0 = time.perf_counter()
        churn = [{"i": i, "pair": (i, i + 1)} for i in range(300)]
        for a in self.small:
            for b in self.small * 4:
                np.tanh(a * b + a).sum(axis=0)
        del churn
        return self.QUICK_REFERENCE_S / (time.perf_counter() - t0)

    def at_reference(self, seconds: float, quick: float) -> float:
        """An operation's duration at the reference machine speed."""
        return seconds * (quick if seconds < self.SHORT_S else self.speed())


def _load(path: str, rows) -> list[molgraph.DatasetRecord]:
    corpus.write_csv(path, rows)
    return molgraph.load_dataset_csv(path)


def _fresh(spec: Spec, seed: int = MODEL_SEED):
    model = Model.create(spec.config, seed=seed)
    return model, train.OptimizerState.create(
        model.parameters(), lr=spec.lr, weight_decay=WEIGHT_DECAY)


def setup(spec: Spec, seed: int, work: str) -> Session:
    """Corpus to CSV to records, model (and checkpoint round trip). The
    generated rows come shuffled, so the corpus splits by position."""
    size = spec.train_size + spec.held_size
    records = _load(os.path.join(work, "corpus.csv"), corpus.generate(
        seed, spec.atoms, -(-size // len(corpus.TASKS))))
    chunks = [records[i:i + spec.chunk]
              for i in range(0, spec.train_size, spec.chunk)]
    held_out = records[spec.train_size:size]
    reference = []
    if spec.reference:
        rows = corpus.generate(REFERENCE_SEED, REFERENCE_ATOMS,
                               -(-REFERENCE_SIZE // len(corpus.TASKS)))
        reference = _load(os.path.join(work, "reference.csv"),
                          rows[:REFERENCE_SIZE])
    model, opt = _fresh(spec)
    if spec.checkpoint:
        path = os.path.join(work, "model.ckpt")
        text = "".join(f"{k} = {v}\n" for k, v in vars(spec.config).items())
        checkpoint.save_checkpoint(path, text, model, opt, seed=MODEL_SEED,
                                   epoch=0, step=0)
        model, opt = _fresh(spec, seed=MODEL_SEED + 1)
        data = checkpoint.load_checkpoint(path)
        checkpoint.restore_model(model, data)
        checkpoint.restore_optimizer(opt, data)
        os.remove(path)
    steps = math.ceil(spec.chunk / spec.batch)
    return Session(
        spec=spec,
        tasks=resolve_tasks(corpus.TASKS, None,
                            fallback_dim=spec.config.task_dim),
        settings=train.TrainSettings(batch_size=spec.batch, seed=MODEL_SEED,
                                     lr=spec.lr, weight_decay=WEIGHT_DECAY,
                                     beta=BETA),
        schedule=train.ScheduleConfig(total_steps=spec.schedule_calls * steps),
        chunks=chunks, held_out=held_out, reference=reference,
        model=model, opt=opt)


def _span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer else contextlib.nullcontext()


def predict(model: Model, smiles: str, task_vector: np.ndarray) -> float:
    """One request: SMILES in, logit out, through the public API."""
    graph = molgraph.featurize(molgraph.parse_smiles(smiles))
    batch = encoder.batch_graphs([graph])
    result = model.forward(batch, Tensor(task_vector[None, :]), noise_on=False)
    return float(result.logits.data[0])


@dataclass
class Call:
    """One ``train_epoch`` call."""

    molecules: int
    seconds: float
    losses: dict
    steps: int
    skipped: int
    speed: float  # SpeedProbe.quick just before


def train_call(s: Session, calls: list[Call], out: Outcome) -> None:
    """The next ``train_epoch`` call, cycling over the training chunks; every
    step must keep a finite loss and none may be skipped."""
    chunk = s.chunks[len(calls) % len(s.chunks)]
    step = sum(c.steps for c in calls)
    speed = s.quick()
    t0 = time.perf_counter()
    metrics, next_step = train.train_epoch(
        s.model, chunk, s.tasks, s.settings, s.opt, s.schedule, len(calls),
        step)
    call = Call(len(chunk), time.perf_counter() - t0, metrics.loss_means,
                next_step - step, metrics.skipped_batches, speed)
    out.check(call.skipped == 0 and bool(call.losses)
              and all(math.isfinite(v) for v in call.losses.values()),
              f"train call {len(calls)}: skipped or non-finite loss",
              call.steps)
    calls.append(call)
    s.tick()


def timed_evaluate(s: Session, records, epoch: int, out: Outcome):
    """(molecules, seconds, mean AUC, quick speed before) of one
    ``evaluate`` pass."""
    speed = s.quick()
    t0 = time.perf_counter()
    metrics = train.evaluate(s.model, records, s.tasks, s.settings, epoch)
    seconds = time.perf_counter() - t0
    out.check(all(math.isfinite(v) for v in metrics.loss_means.values()),
              f"evaluation {epoch}: non-finite loss")
    s.tick()
    return len(records), seconds, metrics.mean_auc, speed


def serve(s: Session, served: list, count: int,
          tracer: Tracer | None = None) -> list:
    """Append ``count`` requests, cycling over the held-out molecules, as
    (pool index, seconds, logit, machine speed just before); returns the
    new ones."""
    pool = s.held_out
    new = []
    for _ in range(count):
        i = (len(served) + len(new)) % len(pool)
        vector = s.tasks[pool[i].task_id].embedding
        speed = s.quick()
        t0 = time.perf_counter()
        with _span(tracer, "predict.request"):
            logit = predict(s.model, pool[i].smiles, vector)
        new.append((i, time.perf_counter() - t0, logit, speed))
        s.tick()
    served.extend(new)
    return new


def check_served(s: Session, requests, out: Outcome) -> None:
    """Each request's logit equals, to PREDICT_RTOL relative, the batched
    forward's logit for the same molecule and model state."""
    used = sorted({r[0] for r in requests})
    batch, tmat, _, _ = train.make_batch([s.held_out[i] for i in used],
                                         s.tasks)
    batched = dict(zip(used, s.model.forward(batch, tmat, noise_on=False)
                       .logits.data.tolist()))
    for i, _, logit, _ in requests:
        ref = batched[i]
        out.check(abs(logit - ref) <= PREDICT_RTOL * abs(ref),
                  f"request for held-out {i}: {logit!r} != batched {ref!r}")


def check_repeat(s: Session, out: Outcome) -> None:
    """Two evaluations of one batch give identical logits."""
    batch, tmat, _, _ = train.make_batch(s.held_out[:16], s.tasks)
    first = s.model.forward(batch, tmat, noise_on=False).logits.data
    second = s.model.forward(batch, tmat, noise_on=False).logits.data
    out.check(np.array_equal(first, second),
              "two evaluations of one batch differ")


def measure(spec: Spec, seed: int, seconds: float, work: str) -> Outcome:
    """The untraced run: every end-to-end metric.

    The main phase runs in rounds until ``seconds`` have passed and the
    minimum counts are met. Every round trains (or, when serving is the
    main phase, every ``train_every``-th round trains a copy of the model),
    evaluates and serves a slice of requests, so that each metric samples
    the whole run rather than one stretch of it. Timings are scaled by the
    run's ``SpeedProbe`` to the reference machine speed; the raw values are
    kept in ``samples``.
    """
    out = Outcome(metrics={}, samples={})
    probe = SpeedProbe()
    setups = []
    for _ in range(spec.setups):
        speed = probe.quick()
        t0 = time.perf_counter()
        s = setup(spec, seed, work)
        setups.append((time.perf_counter() - t0, speed))
        probe.tick()
    s.probe = probe

    calls: list[Call] = []
    evals, served = [], []
    auc = None
    if spec.reference:
        evals.append(timed_evaluate(s, s.reference, 0, out))
        auc = evals[0][2]
    # a serving workload trains a copy, so the served model never changes
    tuned = s if spec.main == "train" else replace(
        s, model=copy.deepcopy(s.model), opt=copy.deepcopy(s.opt))
    until = time.perf_counter() + seconds
    rounds = 0
    while (time.perf_counter() < until or len(calls) < spec.calls
           or len(served) < spec.requests):
        if rounds % spec.train_every == 0:
            train_call(tuned, calls, out)
            if not spec.reference:
                evals.append(timed_evaluate(s, s.held_out, len(calls), out))
                if len(calls) == spec.calls:
                    auc = evals[-1][2]
        if spec.eval_slice:
            k = len(evals) * spec.eval_slice % len(s.reference)
            evals.append(timed_evaluate(
                s, s.reference[k:k + spec.eval_slice], len(evals), out))
        requests = serve(s, served, spec.per_round)
        if tuned is s:  # the next call changes the model: check now
            check_served(s, requests, out)
        rounds += 1
    if tuned is not s:
        check_served(s, served, out)
    if spec.reference:
        evals.append(timed_evaluate(s, s.reference, len(evals), out))
    check_repeat(s, out)

    at_ref = probe.at_reference
    latencies = [1000.0 * t for _, t, _, _ in served]
    raw = {
        "train_mol_per_s": (sum(c.molecules for c in calls)
                            / sum(c.seconds for c in calls)),
        "eval_mol_per_s": sum(e[0] for e in evals) / sum(e[1] for e in evals),
        "predict_ms_p50": float(np.percentile(latencies, 50)),
        "predict_ms_p95": float(np.percentile(latencies, 95)),
        "setup_s": float(statistics.median(t for t, _ in setups)),
    }
    scaled = [1000.0 * at_ref(t, q) for _, t, _, q in served]
    out.metrics = {
        "train_mol_per_s": (sum(c.molecules for c in calls)
                            / sum(at_ref(c.seconds, c.speed) for c in calls)),
        "eval_mol_per_s": (sum(e[0] for e in evals)
                           / sum(at_ref(e[1], e[3]) for e in evals)),
        "predict_ms_p50": float(np.percentile(scaled, 50)),
        "predict_ms_p95": float(np.percentile(scaled, 95)),
        "setup_s": float(statistics.median(at_ref(t, q) for t, q in setups)),
    }
    out.metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    out.check(auc is not None, "valid AUC undefined")
    out.metrics["valid_auc"] = auc
    out.samples = {"train_calls": len(calls),
                   "train_steps": sum(c.steps for c in calls),
                   "evaluations": len(evals), "requests": len(served),
                   "setups": len(setups), "speed": probe.speed(),
                   "speed_samples": len(probe.samples), "raw": raw}
    return out


# -- traced run -------------------------------------------------------------

def _rows(args, kwargs, result):
    return {"rows": result.shape[0]}


def _routed(args, kwargs, result):
    return {"routed": result.route.selected.size}


def _tape(args, kwargs, result):
    return {"nodes": len(args[0].nodes), "bytes": tape_bytes(args[0])}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


# (span name, module, attribute, counter); the span name is the metric stem
TARGETS = [
    ("experts.sag_project_batch", "moce.experts", "sag_project_batch", None),
    ("experts.expert_mlp", "moce.experts", "expert_mlp", _rows),
    ("experts.route_batch", "moce.experts", "route_batch", None),
    ("experts.layer_forward", "moce.experts", "layer_forward", _routed),
    ("experts.integrate_outputs", "moce.experts", "integrate_outputs", None),
    ("encoder.gin_forward", "moce.encoder", "gin_forward", None),
    ("encoder.encode_from", "moce.encoder", "encode_from", None),
    ("encoder.embed_inputs", "moce.encoder", "embed_inputs", None),
    ("encoder.segment_mean_pool", "moce.encoder", "segment_mean_pool", None),
    ("encoder.batch_graphs", "moce.encoder", "batch_graphs", None),
    ("autodiff.backward", "moce.autodiff", "Tape.backward", _tape),
    ("losses.model_loss", "moce.model", "model_loss", None),
    ("model.forward", "moce.model", "Model.forward", None),
    ("train.make_batch", "moce.train", "make_batch", None),
    ("train.adamw_step", "moce.train", "adamw_step", None),
    ("train.train_epoch", "moce.train", "train_epoch", None),
    ("train.evaluate", "moce.train", "evaluate", None),
    ("checkpoint.save", "moce.checkpoint", "save_checkpoint", _file_bytes),
    ("checkpoint.load", "moce.checkpoint", "load_checkpoint", None),
    ("molgraph.parse_smiles", "moce.molgraph", "parse_smiles", None),
    ("molgraph.featurize", "moce.molgraph", "featurize", None),
    ("molgraph.load_dataset_csv", "moce.molgraph", "load_dataset_csv", None),
]

# metric -> (span, key, scale): self time or count per unit of the main
# phase (one train step, or one request)
PER_UNIT = {
    "experts.sag_project_batch_ms": ("experts.sag_project_batch", "self_s", 1e3),
    "experts.sag_project_batch_calls": ("experts.sag_project_batch", "calls", 1),
    "experts.expert_mlp_ms": ("experts.expert_mlp", "self_s", 1e3),
    "experts.expert_mlp_calls": ("experts.expert_mlp", "calls", 1),
    "experts.expert_rows": ("experts.expert_mlp", "rows", 1),
    "experts.route_batch_ms": ("experts.route_batch", "self_s", 1e3),
    "experts.layer_forward_self_ms": ("experts.layer_forward", "self_s", 1e3),
    "experts.integrate_outputs_ms": ("experts.integrate_outputs", "self_s", 1e3),
    "encoder.gin_forward_ms": ("encoder.gin_forward", "self_s", 1e3),
    "encoder.gin_forward_calls": ("encoder.gin_forward", "calls", 1),
    "encoder.encode_from_self_ms": ("encoder.encode_from", "self_s", 1e3),
    "encoder.embed_inputs_ms": ("encoder.embed_inputs", "self_s", 1e3),
    "encoder.segment_mean_pool_ms": ("encoder.segment_mean_pool", "self_s", 1e3),
    "encoder.batch_graphs_ms": ("encoder.batch_graphs", "self_s", 1e3),
    "autodiff.backward_ms": ("autodiff.backward", "self_s", 1e3),
    "losses.model_loss_ms": ("losses.model_loss", "self_s", 1e3),
    "model.forward_ms": ("model.forward", "self_s", 1e3),
    "train.make_batch_ms": ("train.make_batch", "self_s", 1e3),
    "train.adamw_step_ms": ("train.adamw_step", "self_s", 1e3),
}
# metric -> (span, key, scale): self time or count per call, wherever made
PER_CALL = {
    "autodiff.tape_nodes": ("autodiff.backward", "nodes", 1),
    "autodiff.tape_bytes": ("autodiff.backward", "bytes", 1),
    "checkpoint.save_ms": ("checkpoint.save", "self_s", 1e3),
    "checkpoint.load_ms": ("checkpoint.load", "self_s", 1e3),
    "checkpoint.bytes": ("checkpoint.save", "bytes", 1),
    "molgraph.parse_smiles_ms": ("molgraph.parse_smiles", "self_s", 1e3),
    "molgraph.featurize_ms": ("molgraph.featurize", "self_s", 1e3),
    "molgraph.load_dataset_csv_ms": ("molgraph.load_dataset_csv", "self_s", 1e3),
}


def _main_phase(s: Session, count: int | None, until: float, out: Outcome,
                tracer: Tracer | None = None):
    """The main operation alone, ``count`` times or until ``until`` (with the
    spec's minimum done): (per-operation outputs, units, skipped batches,
    per-operation seconds). A unit is a train step or a request."""
    spec = s.spec
    if spec.main == "train":
        calls: list[Call] = []
        while (len(calls) < count if count is not None else
               time.perf_counter() < until or len(calls) < spec.calls):
            train_call(s, calls, out)
        return ([c.losses for c in calls], sum(c.steps for c in calls),
                sum(c.skipped for c in calls), [c.seconds for c in calls])
    served: list = []
    while (len(served) < count if count is not None else
           time.perf_counter() < until or len(served) < spec.requests):
        serve(s, served, 1, tracer)
    return ([r[2] for r in served], len(served), 0, [r[1] for r in served])


def trace(spec: Spec, seed: int, seconds: float, work: str) -> Outcome:
    """The traced run: every per-layer metric. Set-up runs once, traced.
    The main phase runs untraced, then again traced from the same state;
    the two must produce bitwise equal losses or logits, and the
    difference of their median operation times is the tracing overhead
    (medians, so that the untraced phase's cold first step does not count).
    """
    out = Outcome(metrics={}, samples={})
    tracer = Tracer()
    tracer.install(TARGETS)
    try:
        s = setup(spec, seed, work)
    finally:
        tracer.uninstall()
    setup_spans = list(tracer.spans)

    plain, units, _, plain_s = _main_phase(
        s, None, time.perf_counter() + seconds, out)
    if spec.main == "train":
        s.model, s.opt = _fresh(spec)
    tracer.spans = []
    tracer.install(TARGETS)
    try:
        traced, traced_units, skipped, traced_s = _main_phase(
            s, len(plain), math.inf, out, tracer)
    finally:
        tracer.uninstall()
    out.check(traced == plain and traced_units == units,
              "traced run's outputs differ from the untraced run's", len(plain))

    root = "train.train_epoch" if spec.main == "train" else "predict.request"
    roots, inside = tracer.under(root)
    per_unit = Tracer.totals(inside)
    per_call = Tracer.totals(setup_spans + tracer.spans)
    unit_s = sum(r.duration for r in roots)
    metrics = {}
    for name, (span, key, scale) in PER_UNIT.items():
        if span not in tracer.absent and f"{span}:counts" not in tracer.absent:
            metrics[name] = per_unit.get(f"{span}.{key}", 0.0) * scale / units
    for name, (span, key, scale) in PER_CALL.items():
        if span not in tracer.absent and f"{span}:counts" not in tracer.absent:
            calls = per_call.get(f"{span}.calls", 0)
            metrics[name] = (per_call.get(f"{span}.{key}", 0.0) * scale / calls
                             if calls else 0.0)
    rows = per_unit.get("experts.expert_mlp.rows", 0)
    routed = per_unit.get("experts.layer_forward.routed")
    if rows and routed is not None:
        # useful (sample, expert) pairs over pairs the expert MLPs computed
        metrics["experts.routed_share"] = routed / rows
    metrics["train.step_ms"] = (1e3 * unit_s / units if spec.main == "train"
                                else 0.0)
    metrics["train.skipped_batches"] = skipped
    metrics["trace.unit_ms"] = 1e3 * unit_s / units
    metrics["trace.uncovered_ms"] = 1e3 * sum(r.self_time for r in roots) / units
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.median(traced_s) / statistics.median(plain_s) - 1.0)
    out.metrics = metrics
    out.samples = {"units": units, "spans": len(tracer.spans),
                   "absent": sorted(tracer.absent)}
    return out
