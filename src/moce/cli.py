"""Command line entry points.

Subcommands: split, train, eval, predict, gradcheck, show-config.
Exit codes: 0 success, 1 usage error, 2 data error, 3 verification
failure. Usage problems are reported by argparse; data problems (bad
CSV rows, unreadable checkpoints, missing task embeddings, any OSError
from opening or writing a file) map known exceptions to exit code 2 with
a one-line message on stderr.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import fields

import numpy as np

from .autodiff import FD_TOL, Tensor, check_rel_tol
from .checkpoint import (CheckpointError, load_checkpoint, restore_model,
                         restore_optimizer, save_checkpoint)
from .config import (RUN_CONTROL_KEYS, ConfigError, RunConfig, default_config_text,
                     load_config, parse_config)
from .encoder import batch_graphs
from .experts import (MissingTaskEmbedding, TaskEmbeddingError,
                      load_task_embeddings, resolve_tasks)
from .gradcheck import all_passed, format_results, run_all
from .model import Model
from .molgraph import (SPLIT_NAMES, DatasetError, EmptyClass, SmilesError,
                       SplitAssignment, UnsupportedElement, featurize,
                       load_dataset_csv, parse_smiles, stratified_scaffold_split)
from .train import (MetricsLog, OptimizerState, ScheduleConfig, TrainSettings,
                    evaluate, train_epoch)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_VERIFY = 3


class NonFiniteLogit(ValueError):
    """The model scored a molecule NaN or infinite."""


DATA_ERRORS = (DatasetError, SmilesError, UnsupportedElement, EmptyClass,
               ConfigError, CheckpointError, TaskEmbeddingError,
               MissingTaskEmbedding, NonFiniteLogit, OSError)


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="moce", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p_split = sub.add_parser("split", help="scaffold-grouped stratified split")
    p_split.add_argument("--data", required=True, help="smiles,label,task_id CSV")
    p_split.add_argument("--out", required=True, help="where to write the split CSV")
    p_split.add_argument("--fractions", default="0.8,0.1,0.1",
                         help="train,valid,test fractions summing to 1")
    p_split.add_argument("--seed", type=int, default=0)

    p_train = sub.add_parser("train", help="train a model from a config file")
    p_train.add_argument("--config", required=True, help="key = value run config")
    p_train.add_argument("--resume", default=None,
                         help="checkpoint to continue from")

    p_eval = sub.add_parser("eval", help="per-task AUC of a checkpoint")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--split", default=None, help="split CSV from `moce split`")
    p_eval.add_argument("--split-name", default="test", choices=SPLIT_NAMES)
    p_eval.add_argument("--out", default="eval-metrics.csv")
    p_eval.add_argument("--task-embeddings", default=None)

    p_pred = sub.add_parser("predict", help="score one molecule for one task")
    p_pred.add_argument("--checkpoint", required=True)
    p_pred.add_argument("--smiles", required=True)
    p_pred.add_argument("--task-id", required=True)
    p_pred.add_argument("--task-embeddings", default=None)

    p_grad = sub.add_parser("gradcheck",
                            help="verify gradients by finite differences")
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.add_argument("--tol", type=_tolerance, default=FD_TOL,
                        help="finite positive relative error bound")

    sub.add_parser("show-config", help="print every config key at its default")
    return parser


def _tolerance(text: str) -> float:
    try:
        return check_rel_tol(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_fractions(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError(f"fractions must be three numbers, got {text!r}")
    try:
        fracs = tuple(float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"fractions must be numbers, got {text!r}") from None
    if min(fracs) < 0 or not np.isclose(sum(fracs), 1.0, atol=1e-9):
        raise ConfigError(
            f"fractions must be nonnegative and sum to 1, got {text!r}")
    return fracs


def _checked_seed(seed: int) -> int:
    """Seeds key NumPy generators, which take only non-negative integers."""
    if seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {seed}")
    return seed


def cmd_split(args) -> int:
    fractions = _parse_fractions(args.fractions)
    records = load_dataset_csv(args.data)
    assignment = stratified_scaffold_split(records, fractions,
                                           _checked_seed(args.seed))
    assignment.write_csv(args.out)

    counts: dict[tuple[str, int, str], int] = {}
    for idx, split in assignment.splits.items():
        rec = records[idx]
        key = (rec.task_id, rec.label, split)
        counts[key] = counts.get(key, 0) + 1
    print(f"{len(records)} records -> {args.out}")
    for task_id in sorted({r.task_id for r in records}):
        for label in (0, 1):
            row = "  ".join(
                f"{name}={counts.get((task_id, label, name), 0)}"
                for name in SPLIT_NAMES)
            print(f"task {task_id} label {label}: {row}")
    return EXIT_OK


def _resolve_run_tasks(cfg: RunConfig, task_ids, embeddings_path=None):
    path = embeddings_path or cfg.task_embeddings
    embeddings = load_task_embeddings(path) if path else None
    return resolve_tasks(task_ids, embeddings,
                         allow_fallback=cfg.allow_fallback_embeddings,
                         fallback_dim=cfg.task_dim)


def _shown(value: float | None, digits: int) -> str:
    return "undefined" if value is None else f"{value:.{digits}f}"


def _epoch_line(metrics) -> str:
    return (f"epoch {metrics.epoch:>3d} {metrics.split:<5s} "
            f"mean auc {_shown(metrics.mean_auc, 4)}  "
            f"base loss {_shown(metrics.loss_means.get('base'), 4)}  "
            f"max gate share {_shown(metrics.max_gate_share, 3)}"
            + (f"  skipped {metrics.skipped_batches}"
               if metrics.skipped_batches else ""))


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    if args.resume:  # a resumed run must be its checkpoint's run
        ckpt = load_checkpoint(args.resume)
        saved = parse_config(ckpt.config_text)
        # restore_optimizer takes lr and weight decay from the header, while
        # the rule below reads the config text: the two must agree
        for key in ("seed", "lr", "weight_decay"):
            if getattr(ckpt, key) != getattr(saved, key):
                raise CheckpointError(
                    f"checkpoint {args.resume} has {key} = {getattr(ckpt, key)} "
                    f"in its header but {saved.text_of(key)} in its config text")
        for key in (f.name for f in fields(cfg) if f.name not in RUN_CONTROL_KEYS):
            if getattr(saved, key) != getattr(cfg, key):
                raise ConfigError(f"checkpoint {args.resume} was trained with "
                                  f"{key} = {saved.text_of(key)}, not {cfg.text_of(key)}")
    if not cfg.dataset:
        raise ConfigError("config must set `dataset`")
    records = load_dataset_csv(cfg.dataset)
    if cfg.split_file:
        assignment = SplitAssignment.read_csv(cfg.split_file)
        train_records = assignment.select(records, "train")
        valid_records = assignment.select(records, "valid")
    else:
        train_records, valid_records = records, []
    if not train_records:
        raise DatasetError("no training records after applying the split")

    tasks = _resolve_run_tasks(cfg, [r.task_id for r in records])
    model = Model.create(cfg.model_config(), cfg.seed, dtype=cfg.dtype())
    opt = OptimizerState.create(model.parameters(), lr=cfg.lr,
                                weight_decay=cfg.weight_decay)

    start_epoch, step = 0, 0
    if args.resume:
        restore_model(model, ckpt)
        restore_optimizer(opt, ckpt)
        start_epoch, step = ckpt.epoch, ckpt.step
    settings = cfg.train_settings()

    batches_per_epoch = max(1, math.ceil(len(train_records) / cfg.batch_size))
    schedule = ScheduleConfig(total_steps=cfg.epochs * batches_per_epoch,
                              min_lr_fraction=cfg.min_lr_fraction)
    end_epoch = cfg.epochs if cfg.stop_after <= 0 else min(cfg.stop_after,
                                                           cfg.epochs)
    if start_epoch > end_epoch:
        # training nothing would rewrite the checkpoint at an earlier epoch
        raise ConfigError(f"checkpoint {args.resume} is at epoch {start_epoch}, "
                          f"past this run's last epoch {end_epoch}")

    os.makedirs(cfg.out_dir, exist_ok=True)
    metrics_path = os.path.join(cfg.out_dir, "metrics.csv")
    log = MetricsLog(metrics_path, first_epoch=start_epoch)

    for epoch in range(start_epoch, end_epoch):
        train_metrics, step = train_epoch(model, train_records, tasks,
                                          settings, opt, schedule, epoch, step)
        log.append(train_metrics)
        print(_epoch_line(train_metrics))
        if valid_records:
            val = evaluate(model, valid_records, tasks, settings,
                           epoch=epoch, split="valid")
            log.append(val)
            print(_epoch_line(val))
        done = epoch + 1
        if cfg.checkpoint_every > 0 and done % cfg.checkpoint_every == 0 \
                and done < end_epoch:
            path = os.path.join(cfg.out_dir, f"checkpoint-epoch{done}.bin")
            save_checkpoint(path, cfg.to_text(), model, opt, settings.seed,
                            done, step)
            print(f"wrote {path}")

    final = os.path.join(cfg.out_dir, "checkpoint.bin")
    save_checkpoint(final, cfg.to_text(), model, opt, settings.seed,
                    end_epoch, step)
    print(f"wrote {final}")
    print(f"metrics in {metrics_path}")
    return EXIT_OK


def _load_model(checkpoint_path):
    ckpt = load_checkpoint(checkpoint_path)
    cfg = parse_config(ckpt.config_text)
    model = Model.create(cfg.model_config(), ckpt.seed, dtype=cfg.dtype())
    restore_model(model, ckpt)
    return model, cfg


def cmd_eval(args) -> int:
    model, cfg = _load_model(args.checkpoint)
    records = load_dataset_csv(args.data)
    subset = records
    if args.split:
        assignment = SplitAssignment.read_csv(args.split)
        subset = assignment.select(records, args.split_name)
    if not subset:
        raise DatasetError(f"no records in split {args.split_name!r}")

    tasks = _resolve_run_tasks(cfg, [r.task_id for r in subset],
                               embeddings_path=args.task_embeddings)
    settings = cfg.train_settings()
    metrics = evaluate(model, subset, tasks, settings, epoch=0,
                       split=args.split_name)

    counts: dict[str, int] = {}
    for rec in subset:
        counts[rec.task_id] = counts.get(rec.task_id, 0) + 1
    print(f"{'task':<20s} {'n':>6s} {'auc':>12s}")
    for task_id, auc in sorted(metrics.per_task_auc.items()):
        print(f"{task_id:<20s} {counts[task_id]:>6d} {_shown(auc, 6):>12s}")
    print(f"{'__mean__':<20s} {len(subset):>6d} "
          f"{_shown(metrics.mean_auc, 6):>12s}")

    MetricsLog(args.out).append(metrics)
    print(f"metrics in {args.out}")
    return EXIT_OK


def cmd_predict(args) -> int:
    model, cfg = _load_model(args.checkpoint)
    graph = featurize(parse_smiles(args.smiles))
    batch = batch_graphs([graph])

    task_id = args.task_id.strip()  # as dataset and embedding ids are
    tasks = _resolve_run_tasks(cfg, [task_id],
                               embeddings_path=args.task_embeddings)
    t = Tensor(tasks[task_id].embedding.reshape(1, -1).astype(model.dtype))

    result = model.forward(batch, t, noise_on=False)
    logit = float(result.logits.data[0])
    if not math.isfinite(logit):
        raise NonFiniteLogit(f"the model's logit is {logit}; the checkpoint "
                             "holds non-finite parameters or overflows")
    prob = 1.0 / (1.0 + math.exp(-logit)) if logit > -500 else 0.0

    print(f"smiles: {args.smiles}")
    print(f"task: {task_id}")
    print(f"probability: {prob:.6f}")
    weights = result.layer_weights.data[0]
    print("layer weights: " + " ".join(f"{w:.6f}" for w in weights))
    for i, layer in enumerate(result.layers):
        gates = layer.route.gates.data[0]
        chosen = layer.route.selected[0]
        parts = ", ".join(f"expert {int(j)} gate {gates[int(j)]:.6f}"
                          for j in chosen)
        print(f"layer {i}: {parts}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    results = run_all(seed=_checked_seed(args.seed), rel_tol=args.tol)
    print(format_results(results))
    return EXIT_OK if all_passed(results) else EXIT_VERIFY


def cmd_show_config(args) -> int:
    sys.stdout.write(default_config_text())
    return EXIT_OK


_HANDLERS = {
    "split": cmd_split,
    "train": cmd_train,
    "eval": cmd_eval,
    "predict": cmd_predict,
    "gradcheck": cmd_gradcheck,
    "show-config": cmd_show_config,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except DATA_ERRORS as exc:
        print(f"moce {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
