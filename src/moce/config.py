"""Run configuration: a small `key = value` document.

One flat file drives a whole run: model shape, training hyperparameters,
loss toggles, and file paths. Lines are `key = value`, `#` starts a
comment, blank lines are ignored. Unknown keys are rejected so typos fail
loudly instead of silently training the default.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, fields

import numpy as np

from .losses import LossToggles
from .model import ModelConfig
from .molgraph import read_utf8
from .train import TrainSettings


class ConfigError(ValueError):
    """Malformed or constraint-violating configuration."""


@dataclass
class RunConfig(ModelConfig):
    """Everything a training run needs, in one validated record; the model
    shape fields come first, from ModelConfig."""

    # optimization
    batch_size: int = 512
    epochs: int = 50
    seed: int = 0
    lr: float = 0.01
    weight_decay: float = 0.01
    beta: float = 0.1
    min_lr_fraction: float = 0.0
    precision: str = "float64"
    stop_after: int = 0
    checkpoint_every: int = 0
    # loss toggles
    use_att_loss: bool = True
    use_exp_loss: bool = True
    use_imp_loss: bool = True
    use_lod_loss: bool = True
    # files
    dataset: str = ""
    split_file: str = ""
    task_embeddings: str = ""
    allow_fallback_embeddings: bool = True
    out_dir: str = "runs/default"

    def validate(self) -> None:
        try:
            super().validate()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if not 0.0 < self.beta <= 1.0:
            raise ConfigError(f"beta must be in (0, 1], got {self.beta}")
        if self.precision not in ("float64", "float32"):
            raise ConfigError(
                f"precision must be float64 or float32, got {self.precision!r}")
        for name in ("batch_size", "epochs"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, "
                                  f"got {getattr(self, name)}")
        # the checkpoint header stores the seed as a signed 64-bit integer
        if not 0 <= self.seed < 2**63:
            raise ConfigError(
                f"seed must be non-negative and below 2**63, got {self.seed}")
        for name in ("lr", "weight_decay"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ConfigError(
                    f"{name} must be finite and non-negative, got {value}")
        if self.stop_after < 0 or self.checkpoint_every < 0:
            raise ConfigError("stop_after and checkpoint_every must be >= 0")
        if not 0.0 <= self.min_lr_fraction <= 1.0:
            raise ConfigError(
                f"min_lr_fraction must be in [0, 1], got {self.min_lr_fraction}")

    def dtype(self):
        return np.float64 if self.precision == "float64" else np.float32

    def model_config(self) -> ModelConfig:
        return ModelConfig(**{f.name: getattr(self, f.name)
                              for f in fields(ModelConfig)})

    def train_settings(self) -> TrainSettings:
        return TrainSettings(
            batch_size=self.batch_size,
            seed=self.seed,
            lr=self.lr,
            beta=self.beta,
            toggles=LossToggles(att=self.use_att_loss, exp=self.use_exp_loss,
                                imp=self.use_imp_loss, lod=self.use_lod_loss),
        )

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool):
                value = "true" if value else "false"
            lines.append(f"{f.name} = {value}")
        return "\n".join(lines) + "\n"


def _convert(name: str, raw: str, target_type):
    if target_type is bool:
        lowered = raw.lower()
        if lowered in ("true", "yes", "1", "on"):
            return True
        if lowered in ("false", "no", "0", "off"):
            return False
        raise ConfigError(f"{name}: expected true/false, got {raw!r}")
    if target_type is int:
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{name}: expected an integer, got {raw!r}") from None
    if target_type is float:
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"{name}: expected a number, got {raw!r}") from None
    return raw


def parse_config(text: str) -> RunConfig:
    """Parse a configuration document; unknown keys and bad values fail."""
    defaults = RunConfig()
    types = {f.name: type(getattr(defaults, f.name)) for f in fields(defaults)}
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, "
                              f"got {stripped!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in types:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _convert(key, raw, types[key])
    cfg = dataclasses.replace(defaults, **values)
    cfg.validate()
    return cfg


def load_config(path) -> RunConfig:
    return parse_config(read_utf8(path, ConfigError, lambda fh: fh.read()))


def default_config_text() -> str:
    """The full key set at default values, ready to edit."""
    return RunConfig().to_text()
