"""Command line behavior: exit codes, files written, output contracts.

Commands run in-process through main(argv) so tests stay fast and can
inspect stdout/stderr with capsys.
"""

import math
import shutil

import numpy as np
import pytest

from moce.checkpoint import load_checkpoint, restore_model
from moce.cli import main
from moce.config import parse_config
from moce.encoder import batch_graphs
from moce.experts import resolve_tasks
from moce.model import Model
from moce.molgraph import featurize, parse_smiles, write_dataset_csv
from moce.synthetic import synthesize_dataset
from moce.train import read_metrics_log

TINY_CFG = """\
embed_dim = 6
num_gnn_layers = 1
num_processing_layers = 2
num_experts = 4
k_s = 2
k_t = 3
task_dim = 6
batch_size = 16
epochs = 2
seed = 5
lr = 0.005
beta = 0.1
dataset = {data}
split_file = {splits}
out_dir = {out}
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A dataset, a split file, and one finished training run."""
    root = tmp_path_factory.mktemp("cli")
    records = synthesize_dataset(
        seed=7, tasks={"carbonyl": "carbonyl", "aromatic": "aromatic_ring"},
        per_task=24)
    data = root / "data.csv"
    write_dataset_csv(data, [(r.smiles, r.label, r.task_id) for r in records])
    splits = root / "splits.csv"
    assert main(["split", "--data", str(data), "--out", str(splits),
                 "--seed", "3"]) == 0
    cfg = root / "run.cfg"
    out = root / "run"
    cfg.write_text(TINY_CFG.format(data=data, splits=splits, out=out))
    assert main(["train", "--config", str(cfg)]) == 0
    return {"root": root, "data": data, "splits": splits, "cfg": cfg,
            "out": out, "checkpoint": out / "checkpoint.bin"}


class TestUsage:
    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 1
        capsys.readouterr()

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_missing_required_option_is_usage_error(self, capsys):
        assert main(["split", "--data", "x.csv"]) == 1
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()


class TestShowConfig:
    def test_output_parses_back_to_defaults(self, capsys):
        assert main(["show-config"]) == 0
        text = capsys.readouterr().out
        from moce.config import RunConfig
        assert parse_config(text) == RunConfig()


class TestSplit:
    def test_deterministic_output_file(self, workdir, capsys):
        again = workdir["root"] / "splits2.csv"
        assert main(["split", "--data", str(workdir["data"]),
                     "--out", str(again), "--seed", "3"]) == 0
        capsys.readouterr()
        assert again.read_bytes() == workdir["splits"].read_bytes()

    def test_prints_per_class_counts(self, workdir, capsys):
        out = workdir["root"] / "splits3.csv"
        assert main(["split", "--data", str(workdir["data"]),
                     "--out", str(out), "--seed", "1"]) == 0
        printed = capsys.readouterr().out
        for task in ("carbonyl", "aromatic"):
            for label in (0, 1):
                assert f"task {task} label {label}:" in printed
        assert "train=" in printed and "test=" in printed

    def test_bad_csv_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("who,what,where\nx,y,z\n")
        assert main(["split", "--data", str(bad),
                     "--out", str(tmp_path / "s.csv")]) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_fractions_is_data_error(self, workdir, capsys):
        assert main(["split", "--data", str(workdir["data"]),
                     "--out", str(workdir["root"] / "s4.csv"),
                     "--fractions", "0.9,0.2,0.1"]) == 2
        capsys.readouterr()


class TestTrain:
    def test_writes_checkpoint_and_metrics(self, workdir):
        assert workdir["checkpoint"].exists()
        rows = read_metrics_log(workdir["out"] / "metrics.csv")
        splits = {r["split"] for r in rows}
        assert splits == {"train", "valid"}
        epochs = {r["epoch"] for r in rows}
        assert epochs == {"0", "1"}
        tasks = {r["task_id"] for r in rows}
        assert tasks == {"carbonyl", "aromatic", "__mean__"}

    def test_same_config_reproduces_checkpoint_bitwise(self, workdir, capsys):
        first = workdir["root"] / "first.bin"
        shutil.copy(workdir["checkpoint"], first)
        assert main(["train", "--config", str(workdir["cfg"])]) == 0
        capsys.readouterr()
        assert workdir["checkpoint"].read_bytes() == first.read_bytes()

    def test_resume_matches_unbroken_run(self, workdir, capsys):
        root = workdir["root"]
        cfg_a = root / "a.cfg"
        cfg_a.write_text(TINY_CFG.format(data=workdir["data"],
                                         splits=workdir["splits"],
                                         out=root / "run-a")
                         + "stop_after = 1\n")
        assert main(["train", "--config", str(cfg_a)]) == 0
        cfg_b = root / "b.cfg"
        cfg_b.write_text(TINY_CFG.format(data=workdir["data"],
                                         splits=workdir["splits"],
                                         out=root / "run-a"))
        assert main(["train", "--config", str(cfg_b), "--resume",
                     str(root / "run-a" / "checkpoint.bin")]) == 0
        capsys.readouterr()

        resumed = load_checkpoint(root / "run-a" / "checkpoint.bin")
        unbroken = load_checkpoint(workdir["checkpoint"])
        assert resumed.step == unbroken.step
        for name in unbroken.params:
            assert np.array_equal(resumed.params[name], unbroken.params[name])
            assert np.array_equal(resumed.opt_m[name], unbroken.opt_m[name])

    def test_missing_dataset_key_is_data_error(self, tmp_path, capsys):
        cfg = tmp_path / "no-data.cfg"
        cfg.write_text("epochs = 1\n")
        assert main(["train", "--config", str(cfg)]) == 2
        assert "dataset" in capsys.readouterr().err

    def test_fallback_disabled_without_embeddings_is_data_error(
            self, workdir, tmp_path, capsys):
        cfg = tmp_path / "strict.cfg"
        cfg.write_text(TINY_CFG.format(data=workdir["data"],
                                       splits=workdir["splits"],
                                       out=tmp_path / "out")
                       + "allow_fallback_embeddings = false\n")
        assert main(["train", "--config", str(cfg)]) == 2
        assert "embedding" in capsys.readouterr().err.lower()


class TestEval:
    def test_table_and_file(self, workdir, capsys):
        out = workdir["root"] / "eval.csv"
        assert main(["eval", "--checkpoint", str(workdir["checkpoint"]),
                     "--data", str(workdir["data"]),
                     "--split", str(workdir["splits"]),
                     "--split-name", "valid", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "carbonyl" in printed and "aromatic" in printed
        assert "__mean__" in printed
        rows = read_metrics_log(out)
        assert {r["split"] for r in rows} == {"valid"}

    def test_missing_split_file_warns_and_uses_everything(self, workdir,
                                                          tmp_path, capsys):
        out = tmp_path / "eval.csv"
        assert main(["eval", "--checkpoint", str(workdir["checkpoint"]),
                     "--data", str(workdir["data"]),
                     "--split", str(tmp_path / "absent.csv"),
                     "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "not found" in captured.err
        # every record evaluated: counts equal the whole dataset
        assert f"{'__mean__':<20s} {48:>6d}" in captured.out

    def test_corrupted_checkpoint_is_data_error(self, workdir, tmp_path,
                                                capsys):
        damaged = tmp_path / "damaged.bin"
        blob = bytearray(workdir["checkpoint"].read_bytes())
        blob[len(blob) // 2] ^= 0x20
        damaged.write_bytes(bytes(blob))
        assert main(["eval", "--checkpoint", str(damaged),
                     "--data", str(workdir["data"]),
                     "--out", str(tmp_path / "e.csv")]) == 2
        capsys.readouterr()


class TestPredict:
    def run_predict(self, workdir, capsys, smiles="CC(=O)OC",
                    task="carbonyl"):
        code = main(["predict", "--checkpoint", str(workdir["checkpoint"]),
                     "--smiles", smiles, "--task-id", task])
        assert code == 0
        return capsys.readouterr().out

    def test_output_contract(self, workdir, capsys):
        out = self.run_predict(workdir, capsys)
        lines = out.strip().splitlines()
        prob = float(lines[2].split(":")[1])
        assert 0.0 <= prob <= 1.0
        weights = [float(w) for w in lines[3].split(":")[1].split()]
        assert len(weights) == 2
        assert math.isclose(sum(weights), 1.0, rel_tol=1e-9)
        for layer_line in lines[4:6]:
            gates = [float(part.rsplit(" ", 1)[1])
                     for part in layer_line.split(":")[1].split(",")]
            assert len(gates) == 2  # exactly k_s selected experts
            assert math.isclose(sum(gates), 1.0, rel_tol=1e-9)

    def test_deterministic(self, workdir, capsys):
        assert self.run_predict(workdir, capsys) == \
            self.run_predict(workdir, capsys)

    def test_probability_matches_model_forward(self, workdir, capsys):
        printed = self.run_predict(workdir, capsys, smiles="c1ccccc1",
                                   task="aromatic")
        prob = float(printed.strip().splitlines()[2].split(":")[1])

        ckpt = load_checkpoint(workdir["checkpoint"])
        cfg = parse_config(ckpt.config_text)
        model = Model.create(cfg.model_config(), ckpt.seed, dtype=cfg.dtype())
        restore_model(model, ckpt)
        tasks = resolve_tasks(["aromatic"], None, fallback_dim=cfg.task_dim)
        from moce.autodiff import Tensor
        batch = batch_graphs([featurize(parse_smiles("c1ccccc1"))])
        t = Tensor(tasks["aromatic"].embedding.reshape(1, -1))
        logit = float(model.forward(batch, t, noise_on=False).logits.data[0])
        assert prob == pytest.approx(1.0 / (1.0 + math.exp(-logit)), abs=1e-6)

    def test_bad_smiles_is_data_error(self, workdir, capsys):
        assert main(["predict", "--checkpoint", str(workdir["checkpoint"]),
                     "--smiles", "C1CC", "--task-id", "t"]) == 2
        capsys.readouterr()

    def test_missing_task_embeddings_file_is_data_error(self, workdir,
                                                        tmp_path, capsys):
        absent = tmp_path / "typo.tsv"
        assert main(["predict", "--checkpoint", str(workdir["checkpoint"]),
                     "--smiles", "CCO", "--task-id", "carbonyl",
                     "--task-embeddings", str(absent)]) == 2
        assert str(absent) in capsys.readouterr().err


class TestGradcheckCommand:
    def test_passes_with_exit_zero(self, capsys):
        assert main(["gradcheck"]) == 0
        assert "all" in capsys.readouterr().out

    def test_impossible_tolerance_exits_three(self, capsys):
        assert main(["gradcheck", "--tol", "1e-18"]) == 3
        assert "FAILED" in capsys.readouterr().out
