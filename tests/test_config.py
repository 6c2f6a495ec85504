"""Configuration document parsing and constraint validation."""

import numpy as np
import pytest

from moce.config import (ConfigError, RunConfig, default_config_text,
                         load_config, parse_config)
from moce.losses import LossToggles


class TestParsing:
    def test_defaults_round_trip(self):
        assert parse_config(default_config_text()) == RunConfig()

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config(
            "# a comment\n"
            "\n"
            "k_s = 2   # trailing comment\n"
            "k_t = 3\n")
        assert cfg.k_s == 2
        assert cfg.k_t == 3

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key 'k_z'"):
            parse_config("k_z = 4\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("seed = 1\nseed = 2\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("just some words\n")

    def test_bad_int_rejected(self):
        with pytest.raises(ConfigError, match="expected an integer"):
            parse_config("epochs = soon\n")

    def test_bad_float_rejected(self):
        with pytest.raises(ConfigError, match="expected a number"):
            parse_config("lr = fast\n")

    def test_bad_bool_rejected(self):
        with pytest.raises(ConfigError, match="true/false"):
            parse_config("use_att_loss = maybe\n")

    def test_bool_spellings(self):
        cfg = parse_config("use_att_loss = off\nuse_exp_loss = YES\n")
        assert cfg.use_att_loss is False
        assert cfg.use_exp_loss is True

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 42\nout_dir = somewhere\n")
        cfg = load_config(path)
        assert cfg.seed == 42
        assert cfg.out_dir == "somewhere"

    def test_text_round_trip_non_defaults(self):
        cfg = RunConfig(seed=9, use_lod_loss=False, dataset="d.csv",
                        beta=0.25, k_s=2, k_t=5, num_experts=8)
        assert parse_config(cfg.to_text()) == cfg


class TestValidation:
    def test_k_s_above_k_t_rejected(self):
        with pytest.raises(ConfigError, match="k_s must not exceed k_t"):
            parse_config("k_s = 5\nk_t = 4\n")

    def test_k_t_above_num_experts_rejected(self):
        with pytest.raises(ConfigError, match="k_t must not exceed num_experts"):
            parse_config("k_t = 61\n")

    def test_beta_bounds(self):
        with pytest.raises(ConfigError, match=r"beta must be in \(0, 1\]"):
            parse_config("beta = 0\n")
        with pytest.raises(ConfigError, match=r"beta must be in \(0, 1\]"):
            parse_config("beta = 1.5\n")
        assert parse_config("beta = 1\n").beta == 1.0

    def test_pool_ratio_bounds(self):
        with pytest.raises(ConfigError, match=r"pool_ratio must be in \(0, 1\]"):
            parse_config("pool_ratio = 0\n")
        with pytest.raises(ConfigError, match=r"pool_ratio must be in \(0, 1\]"):
            parse_config("pool_ratio = 1.2\n")
        assert parse_config("pool_ratio = 1\n").pool_ratio == 1.0

    def test_precision_values(self):
        with pytest.raises(ConfigError, match="precision must be"):
            parse_config("precision = half\n")
        assert parse_config("precision = float32\n").dtype() == np.float32
        assert RunConfig().dtype() == np.float64

    def test_positive_counts_required(self):
        with pytest.raises(ConfigError, match="epochs must be at least 1"):
            parse_config("epochs = 0\n")
        with pytest.raises(ConfigError, match="embed_dim"):
            parse_config("embed_dim = -3\n")

    def test_min_lr_fraction_range(self):
        with pytest.raises(ConfigError, match="min_lr_fraction"):
            parse_config("min_lr_fraction = 1.5\n")


class TestDerivedViews:
    def test_model_config_fields(self):
        cfg = parse_config("embed_dim = 16\nnum_experts = 8\nk_s = 3\n"
                           "k_t = 6\npool_ratio = 0.7\ntask_dim = 12\n")
        mc = cfg.model_config()
        assert mc.embed_dim == 16
        assert mc.num_experts == 8
        assert mc.k_s == 3
        assert mc.k_t == 6
        assert mc.pool_ratio == 0.7
        assert mc.task_dim == 12

    def test_train_settings_fields(self):
        cfg = parse_config("batch_size = 64\nseed = 3\n"
                           "lr = 0.002\nweight_decay = 0.05\nbeta = 0.2\n"
                           "use_imp_loss = false\n")
        ts = cfg.train_settings()
        assert ts.batch_size == 64
        assert ts.seed == 3
        assert ts.lr == 0.002
        assert ts.beta == 0.2
        assert ts.toggles == LossToggles(imp=False)
