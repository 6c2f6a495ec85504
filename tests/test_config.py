"""Configuration document parsing and constraint validation."""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moce.checkpoint import CorruptCheckpoint, deserialize, serialize
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

    @pytest.mark.parametrize("key, raw", [
        ("lr", "-0.01"), ("lr", "nan"), ("lr", "inf"), ("lr", "-inf"),
        ("weight_decay", "-1"), ("weight_decay", "nan"),
        ("weight_decay", "inf"), ("seed", str(2**63)), ("seed", str(2**64))])
    def test_values_a_checkpoint_cannot_hold_rejected(self, key, raw):
        # a checkpoint cannot hold these: the save fails (seed), or eval,
        # predict and resume reject the file (lr, weight_decay)
        with pytest.raises(ConfigError, match=f"^{key} must"):
            parse_config(f"{key} = {raw}\n")


def _header_floats():
    """Floats across and around the bounds of lr and weight_decay."""
    return st.one_of(st.sampled_from([-1.0, -0.0, 0.0, 5e-324, 0.01, math.nan,
                                      math.inf, -math.inf]), st.floats())


def _header_seeds():
    return st.one_of(st.sampled_from([-1, 0, 2**63 - 1, 2**63, 2**64]),
                     st.integers(-2**65, 2**65))


def _checkpoint_accepts(seed, lr, weight_decay) -> bool:
    """A checkpoint header with these values is written and read back."""
    one = {"w": np.zeros(1)}
    try:
        deserialize(serialize("", one, one, one, seed, 0, 0, 0, lr,
                              weight_decay))
    except (struct.error, CorruptCheckpoint):
        return False
    return True


@settings(deadline=None, max_examples=200)
@given(_header_seeds(), _header_floats(), _header_floats())
@example(2**63, 0.01, 0.01)
@example(0, -0.01, 0.01)
@example(2**63 - 1, 0.0, -0.0)
def test_config_accepts_exactly_what_a_checkpoint_holds(seed, lr, weight_decay):
    """Any config that parses can write a checkpoint that eval, predict and
    resume load, and a config whose run could not is rejected up front."""
    text = f"seed = {seed}\nlr = {lr!r}\nweight_decay = {weight_decay!r}\n"
    try:
        parse_config(text)
        parsed = True
    except ConfigError:
        parsed = False
    assert parsed == _checkpoint_accepts(seed, lr, weight_decay)


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
