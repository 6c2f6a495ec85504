"""Train a small expert mixture on a generated two-task corpus.

Each task plants a different substructure rule (a carbonyl group, an
aromatic ring), so the run shows the whole pipeline: grammar-generated
SMILES, featurization, routing, the collaboration losses, and per-task
AUC-ROC climbing toward a clean fit.
"""

import time

import numpy as np

from moce.experts import resolve_tasks
from moce.losses import LossToggles
from moce.model import Model, ModelConfig
from moce.synthetic import synthesize_dataset
from moce.train import (OptimizerState, ScheduleConfig, TrainSettings,
                        evaluate, train_epoch)


def main() -> None:
    records = synthesize_dataset(
        seed=11, tasks={"A": "carbonyl", "B": "aromatic_ring"}, per_task=100)
    tasks = resolve_tasks(["A", "B"], None, fallback_dim=16)
    positives = sum(r.label for r in records)
    print(f"{len(records)} molecules, {positives} positive labels, 2 tasks")

    cfg = ModelConfig(embed_dim=32, num_gnn_layers=2, num_processing_layers=2,
                      num_experts=8, k_s=2, k_t=4, pool_ratio=0.5, task_dim=16)
    model = Model.create(cfg, seed=1)
    epochs, lr = 50, 0.01
    settings = TrainSettings(batch_size=100, seed=1, lr=lr, beta=0.1,
                             toggles=LossToggles())
    opt = OptimizerState.create(model.parameters(), lr=lr, weight_decay=0.001)
    batches = -(-len(records) // settings.batch_size)
    schedule = ScheduleConfig(total_steps=epochs * batches)

    start = time.perf_counter()
    step = 0
    for epoch in range(epochs):
        _, step = train_epoch(model, records, tasks, settings, opt,
                              schedule, epoch, step)
        if epoch % 5 == 4 or epoch == 0:
            metrics = evaluate(model, records, tasks, settings, epoch=epoch,
                               split="train")
            aucs = "  ".join(f"{t}={metrics.per_task_auc[t]:.3f}"
                             for t in sorted(metrics.per_task_auc))
            print(f"epoch {epoch:3d}  base {metrics.loss_means['base']:.4f}  "
                  f"auc {aucs}  max-gate {metrics.max_gate_share:.2f}")
    print(f"done in {time.perf_counter() - start:.1f}s")


if __name__ == "__main__":
    main()
