"""Command line behavior: exit codes, files written, output contracts.

Commands run in-process through main(argv) so tests stay fast and can
inspect stdout/stderr with capsys.
"""

import math
import shutil

import numpy as np
import pytest

from moce import molgraph
from moce.checkpoint import load_checkpoint, restore_model, serialize
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

    def test_parses_each_row_once(self, workdir, monkeypatch, capsys):
        calls = []
        real = molgraph.parse_smiles

        def counting(smiles):
            calls.append(smiles)
            return real(smiles)

        monkeypatch.setattr(molgraph, "parse_smiles", counting)
        assert main(["split", "--data", str(workdir["data"]),
                     "--out", str(workdir["root"] / "once.csv")]) == 0
        capsys.readouterr()
        rows = workdir["data"].read_text().splitlines()[1:]
        assert sorted(calls) == sorted(row.split(",")[0] for row in rows)

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

    @pytest.mark.parametrize("fractions", ["0.9,0.2,0.1", "1.2,-0.1,-0.1",
                                           "nan,0.5,0.5"])
    def test_fractions_are_checked_before_loading(self, tmp_path, capsys,
                                                  fractions):
        # the dataset does not exist: the fractions fail first
        assert main(["split", "--data", str(tmp_path / "absent.csv"),
                     "--out", str(tmp_path / "s.csv"),
                     "--fractions", fractions]) == 2
        assert "sum to 1" in one_line_error(capsys, "split")


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

    def test_resume_keeps_checkpoint_lr_and_weight_decay(self, workdir,
                                                         capsys):
        # the resumed run edits seed, lr and weight_decay; the checkpoint's
        # values win, so the run still matches the unbroken one, and its
        # checkpoint records the values it ran with
        root = workdir["root"]
        cfg_a = root / "lr-a.cfg"
        cfg_a.write_text(TINY_CFG.format(data=workdir["data"],
                                         splits=workdir["splits"],
                                         out=root / "run-lr")
                         + "stop_after = 1\n")
        assert main(["train", "--config", str(cfg_a)]) == 0
        capsys.readouterr()
        cfg_b = root / "lr-b.cfg"
        cfg_b.write_text(TINY_CFG.format(data=workdir["data"],
                                         splits=workdir["splits"],
                                         out=root / "run-lr")
                         .replace("lr = 0.005", "lr = 0.05")
                         .replace("seed = 5", "seed = 7")
                         + "weight_decay = 0.3\n")
        assert main(["train", "--config", str(cfg_b), "--resume",
                     str(root / "run-lr" / "checkpoint.bin")]) == 0
        err = capsys.readouterr().err
        assert err.count("note: resuming with checkpoint seed 5 "
                         "(config said 7)") == 1
        assert err.count("note: resuming with checkpoint lr 0.005 and "
                         "weight decay 0.01 (config said 0.05 and 0.3)") == 1

        resumed = load_checkpoint(root / "run-lr" / "checkpoint.bin")
        unbroken = load_checkpoint(workdir["checkpoint"])
        saved = parse_config(resumed.config_text)
        for run in (resumed, saved):
            assert (run.seed, run.lr, run.weight_decay) == (5, 0.005, 0.01)
        assert resumed.step == unbroken.step
        for name in unbroken.params:
            assert np.array_equal(resumed.params[name], unbroken.params[name])
            assert np.array_equal(resumed.opt_m[name], unbroken.opt_m[name])
            assert np.array_equal(resumed.opt_v[name], unbroken.opt_v[name])

    def test_checkpoint_every_writes_each_epoch_but_the_last(
            self, workdir, tmp_path, capsys):
        cfg = tmp_path / "every.cfg"
        cfg.write_text(TINY_CFG.format(data=workdir["data"],
                                       splits=workdir["splits"],
                                       out=tmp_path / "run")
                       .replace("epochs = 2", "epochs = 3")
                       + "checkpoint_every = 1\n")
        assert main(["train", "--config", str(cfg)]) == 0
        run = tmp_path / "run"
        assert (run / "checkpoint-epoch1.bin").exists()
        assert (run / "checkpoint-epoch2.bin").exists()
        assert not (run / "checkpoint-epoch3.bin").exists()

        resumed_cfg = tmp_path / "resumed.cfg"
        resumed_cfg.write_text(cfg.read_text().replace(
            str(tmp_path / "run"), str(tmp_path / "resumed")))
        assert main(["train", "--config", str(resumed_cfg), "--resume",
                     str(run / "checkpoint-epoch1.bin")]) == 0
        capsys.readouterr()
        final = load_checkpoint(run / "checkpoint.bin")
        resumed = load_checkpoint(tmp_path / "resumed" / "checkpoint.bin")
        assert (resumed.epoch, resumed.step) == (final.epoch, final.step)
        for name in final.params:
            assert np.array_equal(resumed.params[name], final.params[name])

    def test_resumed_metrics_match_unbroken_run(self, workdir, tmp_path,
                                                capsys):
        cfg = tmp_path / "three.cfg"
        cfg.write_text(TINY_CFG.format(data=workdir["data"],
                                       splits=workdir["splits"],
                                       out=tmp_path / "run")
                       .replace("epochs = 2", "epochs = 3")
                       + "checkpoint_every = 1\n")
        assert main(["train", "--config", str(cfg)]) == 0
        metrics = tmp_path / "run" / "metrics.csv"
        unbroken = metrics.read_bytes()
        checkpoint = tmp_path / "epoch1.bin"
        shutil.copy(tmp_path / "run" / "checkpoint-epoch1.bin", checkpoint)

        # in place: the rows of epochs 1 and 2 are written once, not twice
        assert main(["train", "--config", str(cfg), "--resume",
                     str(checkpoint)]) == 0
        assert metrics.read_bytes() == unbroken

        # a fresh out_dir gets the header and the resumed epochs only
        fresh = tmp_path / "fresh.cfg"
        fresh.write_text(cfg.read_text().replace(str(tmp_path / "run"),
                                                 str(tmp_path / "fresh")))
        assert main(["train", "--config", str(fresh), "--resume",
                     str(checkpoint)]) == 0
        capsys.readouterr()
        header, *rows = unbroken.splitlines(keepends=True)
        assert rows and all(r[:2] in (b"0,", b"1,", b"2,") for r in rows)
        assert (tmp_path / "fresh" / "metrics.csv").read_bytes() == b"".join(
            [header] + [r for r in rows if not r.startswith(b"0,")])

    @pytest.mark.parametrize("edit", [
        lambda text: text,
        lambda text: text.replace("epochs = 2", "epochs = 4") + "stop_after = 2\n",
    ], ids=["epochs", "stop_after"])
    def test_resume_past_the_last_epoch_is_data_error(self, workdir, tmp_path,
                                                      capsys, edit):
        # a 4-epoch run's checkpoint resumed by a run that ends at epoch 2
        text = TINY_CFG.format(data=workdir["data"], splits=workdir["splits"],
                               out=tmp_path / "run")
        four = tmp_path / "four.cfg"
        four.write_text(text.replace("epochs = 2", "epochs = 4"))
        assert main(["train", "--config", str(four)]) == 0
        capsys.readouterr()
        checkpoint = tmp_path / "run" / "checkpoint.bin"
        metrics = tmp_path / "run" / "metrics.csv"
        before = checkpoint.read_bytes(), metrics.read_bytes()

        two = tmp_path / "two.cfg"
        two.write_text(edit(text))
        assert main(["train", "--config", str(two), "--resume",
                     str(checkpoint)]) == 2
        err = one_line_error(capsys, "train")
        assert "at epoch 4, past this run's last epoch 2" in err
        assert (checkpoint.read_bytes(), metrics.read_bytes()) == before

    @pytest.mark.parametrize("field, value", [
        ("seed", -1), ("epoch", -1), ("step", -1), ("opt_step_count", -5),
        ("lr", float("nan")), ("weight_decay", -0.01)])
    def test_resume_from_impossible_counters_is_data_error(
            self, workdir, tmp_path, capsys, field, value):
        # a checksum-valid file whose one counter or rate cannot be right
        ckpt = load_checkpoint(workdir["checkpoint"])
        fields = {name: getattr(ckpt, name) for name in (
            "seed", "epoch", "step", "opt_step_count", "lr", "weight_decay")}
        fields[field] = value
        bad = tmp_path / "bad.bin"
        bad.write_bytes(serialize(ckpt.config_text, ckpt.params, ckpt.opt_m,
                                  ckpt.opt_v, **fields))
        cfg = tmp_path / "resume.cfg"
        cfg.write_text(TINY_CFG.format(data=workdir["data"],
                                       splits=workdir["splits"],
                                       out=tmp_path / "run"))
        assert main(["train", "--config", str(cfg), "--resume",
                     str(bad)]) == 2
        assert field in one_line_error(capsys, "train")
        assert not (tmp_path / "run" / "checkpoint.bin").exists()

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
        assert capsys.readouterr().err == (
            "moce train: error: no embedding for task 'aromatic' and "
            "fallback is disabled\n")


    @pytest.mark.parametrize("index", ["999", "-1"])
    def test_split_index_outside_dataset_is_data_error(
            self, workdir, tmp_path, capsys, index):
        splits = tmp_path / "splits.csv"
        splits.write_text(f"record_index,split\n0,train\n{index},train\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY_CFG.format(data=workdir["data"], splits=splits,
                                       out=tmp_path / "out"))
        assert main(["train", "--config", str(cfg)]) == 2
        assert "record" in capsys.readouterr().err


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

    def test_missing_split_file_is_data_error(self, workdir, tmp_path,
                                              capsys):
        out = tmp_path / "eval.csv"
        assert main(["eval", "--checkpoint", str(workdir["checkpoint"]),
                     "--data", str(workdir["data"]),
                     "--split", str(tmp_path / "absent.csv"),
                     "--out", str(out)]) == 2
        assert "absent.csv" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("index", ["99", "-1"])
    def test_split_index_outside_dataset_is_data_error(
            self, workdir, tmp_path, capsys, index):
        splits = tmp_path / "splits.csv"
        splits.write_text(f"record_index,split\n{index},test\n")
        assert main(["eval", "--checkpoint", str(workdir["checkpoint"]),
                     "--data", str(workdir["data"]), "--split", str(splits),
                     "--out", str(tmp_path / "e.csv")]) == 2
        assert "record" in capsys.readouterr().err

    def test_non_ascii_split_index_is_data_error(self, workdir, tmp_path,
                                                 capsys):
        # "\u0663" is ARABIC-INDIC DIGIT THREE, which int() reads as 3
        splits = tmp_path / "splits.csv"
        splits.write_text("record_index,split\n\u0663,test\n",
                          encoding="utf-8")
        assert main(["eval", "--checkpoint", str(workdir["checkpoint"]),
                     "--data", str(workdir["data"]), "--split", str(splits),
                     "--out", str(tmp_path / "e.csv")]) == 2
        assert "record_index" in one_line_error(capsys, "eval")

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

    def test_non_finite_logit_is_data_error(self, workdir, tmp_path, capsys):
        ckpt = load_checkpoint(workdir["checkpoint"])
        nan_params = {name: np.full_like(arr, np.nan)
                      for name, arr in ckpt.params.items()}
        broken = tmp_path / "nan.bin"
        broken.write_bytes(serialize(
            ckpt.config_text, nan_params, ckpt.opt_m, ckpt.opt_v, ckpt.seed,
            ckpt.epoch, ckpt.step, ckpt.opt_step_count, ckpt.lr,
            ckpt.weight_decay))
        assert main(["predict", "--checkpoint", str(broken), "--smiles", "CCO",
                     "--task-id", "carbonyl"]) == 2
        assert "nan" in one_line_error(capsys, "predict")
        assert "probability" not in capsys.readouterr().out

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


def one_line_error(capsys, command: str) -> str:
    """The stderr of a data error: one line naming the command."""
    err = capsys.readouterr().err
    assert err.startswith(f"moce {command}: error: ")
    assert err.count("\n") == 1, err
    return err


NOT_UTF8 = b"\xff\xfe bytes that are not UTF-8 \xc3\x28\n"
# one field over the csv module's default limit of 131,072 characters
HUGE_FIELD = '"' + "C" * 131_073 + '"'


class TestUnreadableFiles:
    @pytest.mark.parametrize("header", ["smiles,label,task_id",
                                        "record_index,split"])
    def test_oversized_csv_field(self, workdir, tmp_path, capsys, header):
        bad = tmp_path / "huge.csv"
        bad.write_text(f"{header}\n{HUGE_FIELD},1,t\n")
        if header.startswith("smiles"):
            argv = ["split", "--data", str(bad), "--out", str(tmp_path / "s")]
        else:
            argv = ["eval", "--checkpoint", str(workdir["checkpoint"]),
                    "--data", str(workdir["data"]), "--split", str(bad),
                    "--out", str(tmp_path / "e.csv")]
        assert main(argv) == 2
        err = one_line_error(capsys, argv[0])
        assert "row 2" in err and "field larger than field limit" in err

    def test_dataset_that_is_not_utf8(self, tmp_path, capsys):
        bad = tmp_path / "data.csv"
        bad.write_bytes(b"smiles,label,task_id\n" + NOT_UTF8)
        assert main(["split", "--data", str(bad),
                     "--out", str(tmp_path / "s.csv")]) == 2
        assert "not UTF-8" in one_line_error(capsys, "split")

    def test_split_file_that_is_not_utf8(self, workdir, tmp_path, capsys):
        bad = tmp_path / "split.csv"
        bad.write_bytes(b"record_index,split\n" + NOT_UTF8)
        assert main(["eval", "--checkpoint", str(workdir["checkpoint"]),
                     "--data", str(workdir["data"]), "--split", str(bad),
                     "--out", str(tmp_path / "e.csv")]) == 2
        assert "not UTF-8" in one_line_error(capsys, "eval")

    def test_task_embeddings_that_are_not_utf8(self, workdir, tmp_path,
                                               capsys):
        bad = tmp_path / "tasks.tsv"
        bad.write_bytes(NOT_UTF8)
        assert main(["predict", "--checkpoint", str(workdir["checkpoint"]),
                     "--smiles", "CCO", "--task-id", "carbonyl",
                     "--task-embeddings", str(bad)]) == 2
        assert "not UTF-8" in one_line_error(capsys, "predict")

    def test_config_that_is_not_utf8(self, tmp_path, capsys):
        bad = tmp_path / "run.cfg"
        bad.write_bytes(b"epochs = 1\n" + NOT_UTF8)
        assert main(["train", "--config", str(bad)]) == 2
        assert "not UTF-8" in one_line_error(capsys, "train")


class TestPathOfTheWrongKind:
    """A directory where a file is read or written, or a file where the run
    directory goes, is a data error like a missing file."""

    @pytest.mark.parametrize("case", ["eval --checkpoint", "train --config",
                                      "split --data", "split --out",
                                      "train out_dir"])
    def test_is_data_error(self, workdir, tmp_path, capsys, case):
        taken = tmp_path / "taken"
        taken.write_text("a file, not a directory\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY_CFG.format(data=workdir["data"],
                                       splits=workdir["splits"], out=taken))
        data = str(workdir["data"])
        argv = {
            "eval --checkpoint": ["eval", "--checkpoint", str(tmp_path),
                                  "--data", data,
                                  "--out", str(tmp_path / "e.csv")],
            "train --config": ["train", "--config", str(tmp_path)],
            "split --data": ["split", "--data", str(tmp_path),
                             "--out", str(tmp_path / "s.csv")],
            "split --out": ["split", "--data", data, "--out", str(tmp_path)],
            "train out_dir": ["train", "--config", str(cfg)],
        }[case]
        assert main(argv) == 2
        one_line_error(capsys, argv[0])


class TestNegativeSeed:
    """Seeds key NumPy generators, which reject negative integers."""

    def test_split(self, workdir, tmp_path, capsys):
        assert main(["split", "--data", str(workdir["data"]),
                     "--out", str(tmp_path / "s.csv"), "--seed", "-1"]) == 2
        assert "non-negative" in one_line_error(capsys, "split")

    def test_gradcheck(self, capsys):
        assert main(["gradcheck", "--seed", "-1"]) == 2
        assert "non-negative" in one_line_error(capsys, "gradcheck")

    def test_train_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = -1\ndataset = data.csv\n")
        assert main(["train", "--config", str(cfg)]) == 2
        assert "non-negative" in one_line_error(capsys, "train")


class TestTaskEmbeddingLength:
    """TINY_CFG has task_dim = 6; these rows have 4 values."""

    @pytest.fixture
    def short_rows(self, tmp_path):
        path = tmp_path / "tasks.tsv"
        path.write_text("carbonyl\t1,0,0,0\naromatic\t0,1,0,0\n")
        return path

    def check(self, capsys, command):
        err = one_line_error(capsys, command)
        assert "4 values" in err and "task_dim is 6" in err

    def test_train(self, workdir, tmp_path, short_rows, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY_CFG.format(data=workdir["data"],
                                       splits=workdir["splits"],
                                       out=tmp_path / "out")
                       + f"task_embeddings = {short_rows}\n")
        assert main(["train", "--config", str(cfg)]) == 2
        self.check(capsys, "train")

    def test_eval(self, workdir, tmp_path, short_rows, capsys):
        assert main(["eval", "--checkpoint", str(workdir["checkpoint"]),
                     "--data", str(workdir["data"]),
                     "--task-embeddings", str(short_rows),
                     "--out", str(tmp_path / "e.csv")]) == 2
        self.check(capsys, "eval")

    def test_predict(self, workdir, short_rows, capsys):
        assert main(["predict", "--checkpoint", str(workdir["checkpoint"]),
                     "--smiles", "CCO", "--task-id", "carbonyl",
                     "--task-embeddings", str(short_rows)]) == 2
        self.check(capsys, "predict")


class TestGradcheckCommand:
    def test_passes_with_exit_zero(self, capsys):
        assert main(["gradcheck"]) == 0
        assert "all" in capsys.readouterr().out

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_meaningless_tolerance_is_usage_error(self, tol, capsys):
        assert main(["gradcheck", "--tol", tol]) == 1
        captured = capsys.readouterr()
        assert "finite positive" in captured.err
        assert "passed" not in captured.out

    def test_impossible_tolerance_exits_three(self, capsys):
        assert main(["gradcheck", "--tol", "1e-18"]) == 3
        assert "FAILED" in capsys.readouterr().out
