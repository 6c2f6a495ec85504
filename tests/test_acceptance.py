"""End-to-end acceptance checks, one test per release criterion.

Each test prints and records a single PASS/FAIL line; the collected lines
land in criteria.txt, and the comparison runs for the dominance and
diversity checks write their per-epoch metrics logs next to it. By default
these records go to a pytest temporary directory, so a test run leaves the
tracked tree untouched; set MOCE_ARCHIVE_ACCEPTANCE=1 to write them into
artifacts/acceptance/ instead. Thresholds, seeds, and model shapes are
frozen so every check is deterministic.
"""

from __future__ import annotations

import functools
import itertools
import os
import shutil
import time
from pathlib import Path

import numpy as np
import pytest

from moce import autodiff as ad
from moce import cli, gradcheck
from moce.autodiff import Tensor
from moce.checkpoint import load_checkpoint
from moce.experts import RouterParams, gamma_mask, resolve_tasks, route_batch
from moce.losses import (LossToggles, attention_cosine_loss,
                         expert_specific_loss, importance_loss, load_loss)
from moce.model import Model, ModelConfig
from moce.molgraph import (scaffold_key, stratified_scaffold_split,
                           write_dataset_csv)
from moce.synthetic import synthesize_dataset
from moce.train import (MetricsLog, OptimizerState, ScheduleConfig,
                        TrainSettings, auc_roc, evaluate, train_epoch)

ROOT = Path(__file__).resolve().parents[1]
ARTIFACTS = ROOT / "artifacts" / "acceptance"

_LINES: list[str] = []


@pytest.fixture(scope="module")
def records_dir(tmp_path_factory) -> Path:
    """Where criterion records go: artifacts/acceptance/ when
    MOCE_ARCHIVE_ACCEPTANCE=1, a fresh temporary directory otherwise."""
    if os.environ.get("MOCE_ARCHIVE_ACCEPTANCE") == "1":
        ARTIFACTS.mkdir(parents=True, exist_ok=True)
        return ARTIFACTS
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module", autouse=True)
def _criteria_record(records_dir):
    """Write the one-line-per-criterion summary after the module finishes."""
    yield
    (records_dir / "criteria.txt").write_text("".join(line + "\n" for line in _LINES))


def criterion(label: str):
    """Record a PASS line (with the test's detail string) or a FAIL line."""
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                _LINES.append(f"{label}: FAIL")
                print(f"{label}: FAIL")
                raise
            line = f"{label}: PASS" + (f" ({detail})" if detail else "")
            _LINES.append(line)
            print(line)
        return inner
    return wrap


def attention_penalty(model: Model) -> float:
    """The attention-cosine penalty's own value, averaged over processing
    blocks as ``model_loss`` averages it."""
    return float(np.mean([float(attention_cosine_loss(thetas).data)
                          for thetas in model.attention_vectors()]))


def mean_abs_cos(model: Model) -> float:
    """Mean pairwise absolute cosine of the attention projections, averaged
    over processing blocks.

    A diagnostic only, not what the penalty lowers: the penalty scores an
    antipodal pair 0 (its best value) where this scores it 1, and under SAG
    scoring -theta keeps the other end of each graph, a different view.
    """
    per_block = []
    for thetas in model.attention_vectors():
        units = [t.data.reshape(-1) / np.linalg.norm(t.data) for t in thetas]
        per_block.append(np.mean([abs(float(u @ v))
                                  for u, v in itertools.combinations(units, 2)]))
    return float(np.mean(per_block))


def run_training(records, tasks, cfg: ModelConfig, seed: int, epochs: int,
                 lr: float, weight_decay: float, beta: float,
                 toggles: LossToggles, batch_size: int,
                 per_epoch=None) -> Model:
    """Train a fresh model for the full epoch budget; ``per_epoch`` gets
    (model, settings, epoch) after every epoch."""
    model = Model.create(cfg, seed=seed)
    settings = TrainSettings(batch_size=batch_size, seed=seed, lr=lr,
                             beta=beta, toggles=toggles)
    opt = OptimizerState.create(model.parameters(), lr=lr,
                                weight_decay=weight_decay)
    batches = -(-len(records) // batch_size)
    schedule = ScheduleConfig(total_steps=epochs * batches)
    step = 0
    for epoch in range(epochs):
        _, step = train_epoch(model, records, tasks, settings, opt,
                              schedule, epoch, step)
        if per_epoch is not None:
            per_epoch(model, settings, epoch)
    return model


@criterion("criterion 01 gradient integrity")
def test_01_gradient_integrity():
    start = time.perf_counter()
    results = gradcheck.run_all(seed=0, rel_tol=1e-4)
    elapsed = time.perf_counter() - start
    assert any("full-model" in r.name for r in results)
    for r in results:
        assert r.report.passed, f"{r.name}: max rel err {r.report.max_rel_error:.3e}"
        assert r.report.max_rel_error < 1e-4
    assert elapsed < 60.0
    worst = max(r.report.max_rel_error for r in results)
    return f"{len(results)} checks, max rel err {worst:.2e}"


@criterion("criterion 02 routing invariants")
def test_02_routing_invariants():
    rng = np.random.default_rng(2024)
    cases = 0

    # Exactly k_s positive gates summing to one, zeros elsewhere.
    for _ in range(150):
        m = int(rng.integers(2, 11))
        k_t = int(rng.integers(1, m + 1))
        k_s = int(rng.integers(1, k_t + 1))
        feat = int(rng.integers(2, 7))
        tdim = int(rng.integers(2, 7))
        router = RouterParams.create(rng, feat, tdim, m, k_s, k_t)
        x = Tensor(rng.normal(size=(5, feat)))
        t = Tensor(rng.normal(size=(5, tdim)))
        noise = bool(rng.integers(0, 2))
        rb = route_batch(x, t, router, rng=rng if noise else None)
        for row in rb.gates.data:
            positive = row > 0
            assert int(positive.sum()) == k_s
            assert np.all(row[~positive] == 0.0)
            assert abs(float(row.sum()) - 1.0) <= 1e-12
            cases += 1

    # Full-width mask is the identity; masking never moves the argmax.
    for _ in range(200):
        m = int(rng.integers(2, 12))
        rows = int(rng.integers(1, 5))
        v = Tensor(rng.normal(size=(rows, m)))
        assert np.array_equal(gamma_mask(v, m).data, v.data)
        k_t = int(rng.integers(1, m + 1))
        masked = gamma_mask(v, k_t)
        assert np.array_equal(np.argmax(masked.data, axis=1),
                              np.argmax(v.data, axis=1))
        cases += rows

    # A score tied exactly with the k_s-th competitor selects with
    # probability one half, on both sides of the selection boundary.
    # Zero readouts make mu equal the task head's row exactly.
    for _ in range(150):
        m = int(rng.integers(3, 9))
        k_s = int(rng.integers(1, m))
        router = RouterParams.create(rng, 2, 1, m, k_s, m)
        row = rng.normal(size=m)
        order = np.argsort(-row, kind="stable")
        row[order[k_s]] = row[order[k_s - 1]]
        router.w_mu2 = Tensor(row.reshape(1, m))
        rb = route_batch(Tensor(np.zeros((1, 2))), Tensor(np.ones((1, 1))),
                         router)
        assert np.array_equal(rb.mu.data[0], row)
        twins = sorted((int(order[k_s - 1]), int(order[k_s])))
        assert twins[0] in rb.selected[0] and twins[1] not in rb.selected[0]
        assert rb.p_choose.data[0, twins[0]] == 0.5
        assert rb.p_choose.data[0, twins[1]] == 0.5
        cases += 2

    # Adding a constant to every mean score leaves the gates unchanged.
    for _ in range(150):
        m = int(rng.integers(2, 10))
        k_s = int(rng.integers(1, m + 1))
        row = rng.normal(size=(1, m))
        shift = float(rng.normal()) * 3.0
        gates = []
        selected = []
        for offset in (0.0, shift):
            router = RouterParams.create(rng, 2, 1, m, k_s, m)
            router.w_mu2 = Tensor(row + offset)
            rb = route_batch(Tensor(np.zeros((1, 2))),
                             Tensor(np.ones((1, 1))), router)
            gates.append(rb.gates.data[0])
            selected.append(rb.selected[0])
        assert np.array_equal(selected[0], selected[1])
        assert np.allclose(gates[0], gates[1], rtol=0.0, atol=1e-12)
        cases += 1

    assert cases >= 1000
    return f"{cases} random cases"


@criterion("criterion 03 loss closed forms")
def test_03_loss_closed_forms():
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    identical = attention_cosine_loss([Tensor(2.0 * e1), Tensor(3.0 * e1)])
    orthogonal = attention_cosine_loss([Tensor(e1), Tensor(e2)])
    antipodal = attention_cosine_loss([Tensor(e1), Tensor(-e1)])
    assert abs(float(identical.data) - 1.0) <= 1e-12
    assert abs(float(orthogonal.data) - 0.5) <= 1e-12
    assert abs(float(antipodal.data)) <= 1e-12

    # Uniform gates with a dyadic value keep every intermediate exact.
    uniform8 = Tensor(np.full((16, 8), 0.125))
    assert float(importance_loss(uniform8).data) == 0.0
    assert float(load_loss(Tensor(np.full((16, 8), 0.5))).data) == 0.0
    uniform6 = Tensor(np.full((10, 6), 1.0 / 6.0))
    assert abs(float(importance_loss(uniform6).data)) <= 1e-12
    assert abs(float(load_loss(uniform6).data)) <= 1e-12

    rng = np.random.default_rng(33)
    logits = rng.normal(scale=2.0, size=(8, 4))
    labels = rng.integers(0, 2, size=8).astype(np.float64)
    assignment = (rng.random((8, 4)) < 0.5).astype(np.float64)
    assignment[0, 0] = 1.0
    got = expert_specific_loss(Tensor(logits), labels, assignment)

    # Brute force: recompute each assigned pair's term from the logit,
    # then reduce with the same full-array sum.
    per_pair = np.zeros((8, 4))
    for i in range(8):
        for j in range(4):
            if assignment[i, j] == 1.0:
                z = logits[i, j]
                pos = max(z, 0.0)
                term = (pos - z * labels[i]) + np.log1p(np.exp(-abs(z)))
                per_pair[i, j] = term
    assert float(got.data) == float(np.sum(per_pair))
    return "pairwise cosines, uniform balance, brute-force expert sum"


@criterion("criterion 04 auc pairwise oracle")
def test_04_auc_pairwise_oracle():
    rng = np.random.default_rng(404)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(2, 101))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[int(rng.integers(0, n))] ^= 1
        scores = rng.integers(0, 6, size=n).astype(np.float64) * 0.25
        got = auc_roc(scores, labels)

        wins = 0.0
        n_pos = int((labels == 1).sum())
        n_neg = n - n_pos
        for sp in scores[labels == 1]:
            for sn in scores[labels == 0]:
                if sp > sn:
                    wins += 1.0
                elif sp == sn:
                    wins += 0.5
        assert got == wins / (n_pos * n_neg)
        checked += 1
    assert checked == 200
    return "200 tied instances, exact match"


@criterion("criterion 05 synthetic overfit")
def test_05_synthetic_overfit():
    records = synthesize_dataset(seed=11,
                                 tasks={"A": "carbonyl", "B": "aromatic_ring"},
                                 per_task=100)
    assert len(records) == 200
    tasks = resolve_tasks(["A", "B"], None, fallback_dim=16)
    cfg = ModelConfig(embed_dim=32, num_gnn_layers=2, num_processing_layers=2,
                      num_experts=8, k_s=2, k_t=4, pool_ratio=0.5, task_dim=16)
    model = Model.create(cfg, seed=1)
    epochs = 200
    settings = TrainSettings(batch_size=100, seed=1, lr=0.01, beta=0.1,
                             toggles=LossToggles())
    opt = OptimizerState.create(model.parameters(), lr=0.01, weight_decay=0.001)
    schedule = ScheduleConfig(total_steps=epochs * 2)

    start = time.perf_counter()
    step = 0
    reached = None
    for epoch in range(epochs):
        _, step = train_epoch(model, records, tasks, settings, opt,
                              schedule, epoch, step)
        metrics = evaluate(model, records, tasks, settings, epoch=epoch,
                           split="train")
        aucs = metrics.per_task_auc
        if all(aucs[t] is not None and aucs[t] >= 0.99 for t in ("A", "B")):
            reached = epoch
            break
    elapsed = time.perf_counter() - start
    assert reached is not None, "train AUC never reached 0.99 on both tasks"
    assert elapsed < 300.0
    return f"both tasks >= 0.99 at epoch {reached}"


@criterion("criterion 06 dominance mitigation")
def test_06_dominance_mitigation(records_dir):
    records = synthesize_dataset(seed=23,
                                 tasks={"A": "carbonyl", "B": "aromatic_ring"},
                                 per_task=50)
    tasks = resolve_tasks(["A", "B"], None, fallback_dim=12)
    cfg = ModelConfig(embed_dim=16, num_gnn_layers=1, num_processing_layers=2,
                      num_experts=6, k_s=2, k_t=4, pool_ratio=0.5, task_dim=12)
    log_dir = records_dir / "dominance"
    log_dir.mkdir(parents=True, exist_ok=True)

    shares: dict[tuple[str, int], float] = {}
    for name, toggles in (("exp_on", LossToggles()),
                          ("exp_off", LossToggles(exp=False))):
        for seed in (0, 1, 2, 3):
            log = MetricsLog(log_dir / f"{name}_seed{seed}.csv")

            def track(model, settings, epoch):
                metrics = evaluate(model, records, tasks, settings,
                                   epoch=epoch, split="train")
                log.append(metrics)
                shares[(name, seed)] = metrics.max_gate_share

            run_training(records, tasks, cfg, seed=seed, epochs=25, lr=0.02,
                         weight_decay=0.001, beta=0.1, toggles=toggles,
                         batch_size=50, per_epoch=track)

    # A bare "lower", no margin: seed 0 wins by 0.002, and scaling the
    # initial parameters by 1 + 1e-9 * N(0, 1) moved seed 3's on-share by up
    # to 0.013, so twice the noise is wider than seed 0's lead.
    wins = sum(shares[("exp_on", s)] < shares[("exp_off", s)]
               for s in (0, 1, 2, 3))
    detail = " ".join(
        f"s{s}={shares[('exp_on', s)]:.3f}/{shares[('exp_off', s)]:.3f}"
        for s in (0, 1, 2, 3))
    assert wins >= 3, f"max-gate share lower in only {wins}/4 runs ({detail})"
    return f"{wins}/4 seeds, on/off shares {detail}"


# A seed counts as a win only if the penalty with the attention term on is
# at most this fraction of its value with the term off. The seeds that are
# stable under perturbation measure 0.37-0.56; a chaotic seed swings between
# about 0.8 and 1.3, so a bare "lower" would turn on its last decimals.
DIVERSITY_MARGIN = 0.8


@criterion("criterion 07 projection diversity")
def test_07_projection_diversity(records_dir):
    records = synthesize_dataset(seed=23, tasks={"A": "carbonyl"},
                                 per_task=100)
    tasks = resolve_tasks(["A"], None, fallback_dim=12)
    cfg = ModelConfig(embed_dim=8, num_gnn_layers=1, num_processing_layers=2,
                      num_experts=8, k_s=2, k_t=4, pool_ratio=0.5, task_dim=12)
    log_dir = records_dir / "diversity"
    log_dir.mkdir(parents=True, exist_ok=True)

    final: dict[tuple[str, int], float] = {}
    for name, toggles in (("att_on", LossToggles()),
                          ("att_off", LossToggles(att=False))):
        for seed in (0, 1, 2, 3):
            rows = ["epoch,att_penalty,mean_abs_cos"]

            def track(model, settings, epoch):
                value = attention_penalty(model)
                rows.append(f"{epoch},{value:.10f},{mean_abs_cos(model):.10f}")
                final[(name, seed)] = value

            run_training(records, tasks, cfg, seed=seed, epochs=100, lr=0.05,
                         weight_decay=0.0, beta=0.1, toggles=toggles,
                         batch_size=100, per_epoch=track)
            (log_dir / f"{name}_seed{seed}.csv").write_text(
                "".join(row + "\n" for row in rows))

    wins = sum(final[("att_on", s)] <= DIVERSITY_MARGIN * final[("att_off", s)]
               for s in (0, 1, 2, 3))
    detail = " ".join(
        f"s{s}={final[('att_on', s)]:.3f}/{final[('att_off', s)]:.3f}"
        for s in (0, 1, 2, 3))
    assert wins >= 3, (f"attention penalty at most {DIVERSITY_MARGIN} x off "
                       f"in only {wins}/4 runs ({detail})")
    return f"{wins}/4 seeds, on/off attention penalty {detail}"


@criterion("criterion 08 split integrity")
def test_08_split_integrity():
    records = synthesize_dataset(seed=31,
                                 tasks={"A": "carbonyl", "B": "aromatic_ring"},
                                 per_task=250)
    assert len(records) == 500
    first = stratified_scaffold_split(records, (0.8, 0.0, 0.2), seed=5)
    second = stratified_scaffold_split(records, (0.8, 0.0, 0.2), seed=5)
    assert first.splits == second.splits

    classes: dict[tuple[str, int], list[int]] = {}
    for idx, record in enumerate(records):
        classes.setdefault((record.task_id, record.label), []).append(idx)
    assert len(classes) == 4

    for idxs in classes.values():
        groups: dict[str, list[int]] = {}
        for idx in idxs:
            key = scaffold_key(records[idx].graph)
            groups.setdefault(key, []).append(idx)
        for members in groups.values():
            assert len({first.splits[i] for i in members}) == 1
        train_n = sum(1 for i in idxs if first.splits[i] == "train")
        biggest = max(len(members) for members in groups.values())
        assert abs(train_n - 0.8 * len(idxs)) <= biggest
    return "500 records, 4 classes, groups unsplit, 80/20 within one group"


@criterion("criterion 09 unseen task routing")
def test_09_unseen_task_routing():
    records = synthesize_dataset(seed=13,
                                 tasks={"A": "carbonyl", "B": "carbonyl"},
                                 per_task=60)
    train_recs = [r for r in records if r.task_id == "A"]
    eval_recs = [r for r in records if r.task_id == "B"]
    tasks = resolve_tasks(["A", "B"], None, fallback_dim=12)
    cfg = ModelConfig(embed_dim=16, num_gnn_layers=2, num_processing_layers=2,
                      num_experts=6, k_s=2, k_t=4, pool_ratio=0.5, task_dim=12)
    model = run_training(train_recs, tasks, cfg, seed=0, epochs=40, lr=0.02,
                         weight_decay=0.001, beta=0.1, toggles=LossToggles(),
                         batch_size=60)
    settings = TrainSettings(batch_size=60, seed=0, lr=0.02, beta=0.1,
                             toggles=LossToggles())
    metrics = evaluate(model, eval_recs, tasks, settings, split="test")
    auc = metrics.per_task_auc["B"]
    assert auc is not None and auc > 0.5
    return f"unseen-task AUC {auc:.3f}"


@criterion("criterion 10 bitwise reproducibility")
def test_10_bitwise_reproducibility(tmp_path):
    records = synthesize_dataset(seed=7,
                                 tasks={"A": "carbonyl", "B": "aromatic_ring"},
                                 per_task=16)
    data = tmp_path / "data.csv"
    write_dataset_csv(data, [(r.smiles, r.label, r.task_id) for r in records])
    out_dir = tmp_path / "run"
    config = tmp_path / "train.cfg"
    config.write_text(
        "embed_dim = 6\nnum_gnn_layers = 1\nnum_processing_layers = 2\n"
        "num_experts = 4\nk_s = 2\nk_t = 3\npool_ratio = 0.5\ntask_dim = 6\n"
        "batch_size = 16\nepochs = 2\nseed = 5\nlr = 0.005\n"
        f"dataset = {data}\nout_dir = {out_dir}\n")

    assert cli.main(["train", "--config", str(config)]) == 0
    first = out_dir / "first-checkpoint.bin"
    shutil.move(out_dir / "checkpoint.bin", first)
    assert cli.main(["train", "--config", str(config)]) == 0

    blob_a = first.read_bytes()
    blob_b = (out_dir / "checkpoint.bin").read_bytes()
    assert blob_a == blob_b
    # parameter bytes, not the file size: the file holds the config text,
    # whose paths change with the temporary directory
    param_bytes = sum(a.nbytes for a in load_checkpoint(first).params.values())
    return f"two runs, identical checkpoints of {param_bytes} parameter bytes"
