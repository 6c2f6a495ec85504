"""Smoke test of the benchmark harness at a tiny shape.

    python3 -m pytest perfbench -q

Checks the harness's own code (corpus, sessions, output checks, tracing and
the metric names promised in BENCHMARK.json) in seconds, without running
the full workloads.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import pytest  # noqa: E402

import corpus  # noqa: E402
import workloads  # noqa: E402
from moce import molgraph  # noqa: E402
from moce.model import ModelConfig  # noqa: E402
from tracer import Tracer  # noqa: E402

TINY = ModelConfig(embed_dim=8, num_gnn_layers=1, num_processing_layers=2,
                   num_experts=4, k_s=1, k_t=2, pool_ratio=0.5, task_dim=8)


def _tiny(name: str) -> workloads.Spec:
    spec = workloads.WORKLOADS[name]
    return replace(spec, config=TINY, atoms=(8, 10), train_size=16,
                   held_size=16, batch=8,
                   chunk=16 if spec.chunk == spec.train_size else 8, calls=2,
                   schedule_calls=2, requests=20, setups=2)


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_corpus_is_seeded_sized_and_labelled_by_motif():
    rows = corpus.generate(3, (8, 12), 10)
    assert rows == corpus.generate(3, (8, 12), 10)
    assert rows != corpus.generate(4, (8, 12), 10)
    for smiles, label, task in rows:
        mol = molgraph.parse_smiles(smiles)
        assert 8 <= mol.num_atoms <= 12
        present = any(frag in smiles for frag, _ in corpus.MOTIFS[task])
        assert present == bool(label), (smiles, label, task)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_measure_reports_every_end_to_end_metric(name, tmp_path):
    out = workloads.measure(_tiny(name), seed=5, seconds=0.0,
                            work=str(tmp_path))
    assert out.failed == 0, out.notes
    assert out.attempted > 0
    expected = {m["name"] for m in _benchmark()["end_to_end"]}
    assert set(out.metrics) == expected
    assert all(v > 0 for v in out.metrics.values()), out.metrics


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_trace_reports_every_per_layer_metric(name, tmp_path):
    out = workloads.trace(_tiny(name), seed=5, seconds=0.0,
                          work=str(tmp_path))
    assert out.failed == 0, out.notes
    expected = {m["name"] for m in _benchmark()["per_layer"]}
    assert set(out.metrics) == expected
    m = out.metrics
    assert 0 <= m["trace.uncovered_ms"] < m["trace.unit_ms"]
    assert m["experts.sag_project_batch_calls"] == 2 * TINY.num_experts
    assert m["encoder.gin_forward_calls"] == 2 * TINY.num_gnn_layers
    assert m["experts.routed_share"] == pytest.approx(
        TINY.k_s / TINY.num_experts)
    assert (m["checkpoint.bytes"] > 0) == _tiny(name).checkpoint
    assert (m["autodiff.tape_nodes"] > 0) == (_tiny(name).main == "train")


def test_a_missing_target_is_reported_absent():
    tracer = Tracer()
    tracer.install([("gone", "moce.experts", "no_such_function", None),
                    ("gone.method", "moce.model", "Model.no_such", None)])
    tracer.uninstall()
    assert tracer.absent == {"gone", "gone.method"}


def test_install_and_uninstall_restore_every_attribute():
    import moce.encoder
    import moce.train
    original = moce.encoder.batch_graphs
    tracer = Tracer()
    tracer.install(workloads.TARGETS)
    assert moce.train.batch_graphs is moce.encoder.batch_graphs
    assert moce.encoder.batch_graphs is not original
    tracer.uninstall()
    assert moce.train.batch_graphs is original
    assert moce.encoder.batch_graphs is original


def test_benchmark_file_names_are_valid():
    bench = _benchmark()
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
               for n in names)
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
