"""Binary checkpoints for training state.

A checkpoint is a single self-describing file holding the configuration
snapshot, every named parameter buffer, the optimizer moments, and the
counters needed to resume the run exactly where it stopped (seed, epoch,
global step). All numbers are little-endian; parameter data is stored as
raw 64-bit floats. The file ends with a SHA-256 digest of everything
before it, so a flipped byte anywhere is detected at load time.
"""

from __future__ import annotations

import hashlib
import io
import math
import struct
from dataclasses import dataclass, field

import numpy as np

MAGIC = b"MOCE1"
FORMAT_VERSION = 1


class CheckpointError(RuntimeError):
    """Base class for unreadable or inconsistent checkpoint files."""


class BadMagic(CheckpointError):
    """The file does not start with the checkpoint signature."""


class VersionMismatch(CheckpointError):
    """The file was written by an incompatible format version."""


class CorruptCheckpoint(CheckpointError):
    """The checksum does not match the file contents."""


@dataclass
class CheckpointData:
    """Everything read back from a checkpoint file."""

    config_text: str
    seed: int
    epoch: int
    step: int
    opt_step_count: int
    lr: float
    weight_decay: float
    beta1: float
    beta2: float
    eps: float
    params: dict = field(default_factory=dict)
    opt_m: dict = field(default_factory=dict)
    opt_v: dict = field(default_factory=dict)


def _write_bytes(buf: io.BytesIO, data: bytes) -> None:
    buf.write(struct.pack("<I", len(data)))
    buf.write(data)


def _write_array(buf: io.BytesIO, arr: np.ndarray) -> None:
    # asarray, not ascontiguousarray: the latter promotes 0-d to 1-d
    arr = np.asarray(arr, dtype="<f8")
    buf.write(struct.pack("<B", arr.ndim))
    for dim in arr.shape:
        buf.write(struct.pack("<I", dim))
    buf.write(arr.tobytes(order="C"))


def serialize(config_text: str, params: dict, opt_m: dict, opt_v: dict,
              seed: int, epoch: int, step: int, opt_step_count: int,
              lr: float, weight_decay: float, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8) -> bytes:
    """Encode training state into the framed binary format."""
    buf = io.BytesIO()
    buf.write(MAGIC)
    buf.write(struct.pack("<I", FORMAT_VERSION))
    _write_bytes(buf, config_text.encode("utf-8"))
    buf.write(struct.pack("<qqq", seed, epoch, step))
    buf.write(struct.pack("<q", opt_step_count))
    buf.write(struct.pack("<ddddd", lr, weight_decay, beta1, beta2, eps))
    names = sorted(params)
    buf.write(struct.pack("<I", len(names)))
    for name in names:
        encoded = name.encode("utf-8")
        buf.write(struct.pack("<H", len(encoded)))
        buf.write(encoded)
        _write_array(buf, params[name])
        _write_array(buf, opt_m.get(name, np.zeros_like(params[name])))
        _write_array(buf, opt_v.get(name, np.zeros_like(params[name])))
    body = buf.getvalue()
    return body + hashlib.sha256(body).digest()


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise CorruptCheckpoint("checkpoint is truncated")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self, n: int) -> str:
        try:
            return self.take(n).decode("utf-8")
        except UnicodeDecodeError:
            raise CorruptCheckpoint("text field is not valid UTF-8") from None

    def array(self) -> np.ndarray:
        (ndim,) = self.unpack("<B")
        shape = tuple(self.unpack("<I")[0] for _ in range(ndim))
        raw = self.take(math.prod(shape) * 8)
        try:
            return np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
        except ValueError:
            raise CorruptCheckpoint(f"array shape {shape} is too large") from None


def deserialize(blob: bytes) -> CheckpointData:
    """Decode a checkpoint blob, verifying signature, version, checksum."""
    if len(blob) < len(MAGIC) + 4 + 32:
        raise CorruptCheckpoint("file too short to be a checkpoint")
    body, digest = blob[:-32], blob[-32:]
    if not body.startswith(MAGIC):
        raise BadMagic("not a checkpoint file (bad signature)")
    if hashlib.sha256(body).digest() != digest:
        raise CorruptCheckpoint("checksum mismatch: the file is damaged")
    reader = _Reader(body)
    reader.take(len(MAGIC))
    (version,) = reader.unpack("<I")
    if version != FORMAT_VERSION:
        raise VersionMismatch(
            f"checkpoint format version {version} is not supported "
            f"(expected {FORMAT_VERSION})")
    (config_len,) = reader.unpack("<I")
    config_text = reader.text(config_len)
    seed, epoch, step = reader.unpack("<qqq")
    (opt_step_count,) = reader.unpack("<q")
    lr, weight_decay, beta1, beta2, eps = reader.unpack("<ddddd")
    (num_params,) = reader.unpack("<I")
    ckpt = CheckpointData(config_text=config_text, seed=seed, epoch=epoch,
                          step=step, opt_step_count=opt_step_count, lr=lr,
                          weight_decay=weight_decay, beta1=beta1, beta2=beta2,
                          eps=eps)
    for _ in range(num_params):
        (name_len,) = reader.unpack("<H")
        name = reader.text(name_len)
        ckpt.params[name] = reader.array()
        ckpt.opt_m[name] = reader.array()
        ckpt.opt_v[name] = reader.array()
    if reader.pos != len(body):
        raise CorruptCheckpoint("trailing bytes after the last buffer")
    return ckpt


def save_checkpoint(path, config_text: str, model, opt, seed: int,
                    epoch: int, step: int) -> None:
    """Write model parameters and optimizer state to `path`."""
    params = {name: p.data for name, p in model.parameters().items()}
    blob = serialize(config_text, params, opt.m, opt.v, seed, epoch, step,
                     opt.step_count, opt.lr, opt.weight_decay, opt.beta1,
                     opt.beta2, opt.eps)
    with open(path, "wb") as fh:
        fh.write(blob)


def load_checkpoint(path) -> CheckpointData:
    with open(path, "rb") as fh:
        return deserialize(fh.read())


def restore_model(model, ckpt: CheckpointData) -> None:
    """Copy checkpoint buffers into an already-built model, by name."""
    params = model.parameters()
    missing = sorted(set(params) - set(ckpt.params))
    extra = sorted(set(ckpt.params) - set(params))
    if missing or extra:
        raise CheckpointError(
            f"parameter names do not match the model "
            f"(missing: {missing[:3]}, unexpected: {extra[:3]})")
    for name, tensor in params.items():
        stored = ckpt.params[name]
        if stored.shape != tensor.data.shape:
            raise CheckpointError(
                f"{name}: stored shape {stored.shape} does not match "
                f"model shape {tensor.data.shape}")
        tensor.data[...] = stored.astype(tensor.data.dtype)


def restore_optimizer(opt, ckpt: CheckpointData) -> None:
    """Copy saved moments and counters into a freshly created optimizer."""
    opt.step_count = ckpt.opt_step_count
    opt.lr = ckpt.lr
    opt.weight_decay = ckpt.weight_decay
    opt.beta1 = ckpt.beta1
    opt.beta2 = ckpt.beta2
    opt.eps = ckpt.eps
    for name, arr in opt.m.items():
        arr[...] = ckpt.opt_m[name].astype(arr.dtype)
    for name, arr in opt.v.items():
        arr[...] = ckpt.opt_v[name].astype(arr.dtype)
