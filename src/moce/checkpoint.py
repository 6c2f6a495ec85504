"""Binary checkpoints for training state.

A checkpoint is a single self-describing file holding the configuration
snapshot, every named parameter buffer, the optimizer moments, and the
counters needed to resume the run exactly where it stopped (seed, epoch,
global step). The header also holds Adam's two decay rates and epsilon,
which are fixed; the reader checks them against the training constants.
All numbers are little-endian; parameter data is stored as raw 64-bit
floats. The file ends with a SHA-256 digest of everything before it, so a
flipped byte anywhere is detected at load time.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .train import ADAM_BETA1, ADAM_BETA2, ADAM_EPS

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
    params: dict = field(default_factory=dict)
    opt_m: dict = field(default_factory=dict)
    opt_v: dict = field(default_factory=dict)


def _write(fh, config_text: str, params: dict, opt_m: dict, opt_v: dict,
           seed: int, epoch: int, step: int, opt_step_count: int, lr: float,
           weight_decay: float) -> None:
    """Stream the framed format to the binary file object `fh`: each
    array's float64 memory is written and hashed in place, never gathered
    into one body, and the digest of everything written goes last. Both
    moment tables hold every parameter's name."""
    digest = hashlib.sha256()

    def put(data) -> None:
        digest.update(data)
        fh.write(data)

    config = config_text.encode("utf-8")
    names = sorted(params)
    put(MAGIC + struct.pack("<II", FORMAT_VERSION, len(config)) + config
        + struct.pack("<qqqqdddddI", seed, epoch, step, opt_step_count, lr,
                      weight_decay, ADAM_BETA1, ADAM_BETA2, ADAM_EPS,
                      len(names)))
    for name in names:
        encoded = name.encode("utf-8")
        put(struct.pack("<H", len(encoded)) + encoded)
        for arr in (params[name], opt_m[name], opt_v[name]):
            # copies only a float32 or non-C-ordered array; keeps 0-d as 0-d
            arr = np.asarray(arr, dtype="<f8", order="C")
            put(struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape))
            put(memoryview(arr).cast("B"))
    fh.write(digest.digest())


def serialize(config_text: str, params: dict, opt_m: dict, opt_v: dict,
              seed: int, epoch: int, step: int, opt_step_count: int,
              lr: float, weight_decay: float) -> bytes:
    """Encode training state into the framed binary format."""
    buf = io.BytesIO()
    _write(buf, config_text, params, opt_m, opt_v, seed, epoch, step,
           opt_step_count, lr, weight_decay)
    return buf.getvalue()


class _Reader:
    def __init__(self, data: memoryview):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.data):
            raise CorruptCheckpoint("checkpoint is truncated")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self, n: int) -> str:
        try:
            return str(self.take(n), "utf-8")
        except UnicodeDecodeError:
            raise CorruptCheckpoint("text field is not valid UTF-8") from None

    def array(self) -> np.ndarray:
        """The next array, as a view of the data (no copy)."""
        (ndim,) = self.unpack("<B")
        shape = self.unpack(f"<{ndim}I")
        raw = self.take(math.prod(shape) * 8)
        try:
            return np.frombuffer(raw, dtype="<f8").reshape(shape)
        except ValueError:
            raise CorruptCheckpoint(f"array shape {shape} is too large") from None


def deserialize(blob) -> CheckpointData:
    """Decode a checkpoint from any bytes-like object, verifying signature,
    version and checksum, that the counters are non-negative and the
    learning rate and weight decay finite and non-negative, and that no
    parameter name repeats. The arrays are views of `blob`, which they
    keep alive; they are writable when `blob` is."""
    view = memoryview(blob).cast("B")
    if len(view) < len(MAGIC) + 4 + 32:
        raise CorruptCheckpoint("file too short to be a checkpoint")
    body, digest = view[:-32], view[-32:]
    if body[:len(MAGIC)] != MAGIC:
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
    lr, weight_decay, *adam = reader.unpack("<ddddd")
    if adam != [ADAM_BETA1, ADAM_BETA2, ADAM_EPS]:
        raise CorruptCheckpoint(
            f"Adam decay rates and epsilon {tuple(adam)} differ from the fixed "
            f"{(ADAM_BETA1, ADAM_BETA2, ADAM_EPS)}")
    for name, value in (("seed", seed), ("epoch", epoch), ("step", step),
                        ("opt_step_count", opt_step_count)):
        if value < 0:
            raise CorruptCheckpoint(f"{name} is negative ({value})")
    for name, value in (("lr", lr), ("weight_decay", weight_decay)):
        if not (math.isfinite(value) and value >= 0.0):
            raise CorruptCheckpoint(
                f"{name} must be finite and non-negative, got {value}")
    (num_params,) = reader.unpack("<I")
    ckpt = CheckpointData(config_text=config_text, seed=seed, epoch=epoch,
                          step=step, opt_step_count=opt_step_count, lr=lr,
                          weight_decay=weight_decay)
    for _ in range(num_params):
        (name_len,) = reader.unpack("<H")
        name = reader.text(name_len)
        if name in ckpt.params:
            raise CorruptCheckpoint(f"parameter {name!r} is stored twice")
        ckpt.params[name] = reader.array()
        ckpt.opt_m[name] = reader.array()
        ckpt.opt_v[name] = reader.array()
    if reader.pos != len(body):
        raise CorruptCheckpoint("trailing bytes after the last buffer")
    return ckpt


def save_checkpoint(path, config_text: str, model, opt, seed: int,
                    epoch: int, step: int) -> None:
    """Write model parameters and optimizer state to `path`. The file is
    streamed to `<path>.tmp` and renamed over `path` once complete, so an
    interrupted save leaves any earlier file at `path` as it was."""
    params = {name: p.data for name, p in model.parameters().items()}
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            _write(fh, config_text, params, opt.views(opt.m),
                   opt.views(opt.v), seed, epoch, step, opt.step_count, opt.lr,
                   opt.weight_decay)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def load_checkpoint(path) -> CheckpointData:
    """Read `path` in one pass into a buffer sized from the file, left
    unfilled until the read; the returned arrays are writable views of
    that buffer."""
    with open(path, "rb") as fh:
        buf = np.empty(os.fstat(fh.fileno()).st_size, np.uint8)
        size = fh.readinto(buf)
    return deserialize(memoryview(buf)[:size])


def _copy_into(live: dict, stored: dict, what: str) -> None:
    """Check names and shapes of every stored array against the live ones,
    then copy each into place, casting only to a float32 run's dtype."""
    missing = sorted(set(live) - set(stored))
    extra = sorted(set(stored) - set(live))
    if missing or extra:
        raise CheckpointError(
            f"{what} names do not match the model "
            f"(missing: {missing[:3]}, unexpected: {extra[:3]})")
    for name, arr in live.items():
        if stored[name].shape != arr.shape:
            raise CheckpointError(
                f"{name}: stored {what} shape {stored[name].shape} does not "
                f"match model shape {arr.shape}")
    for name, arr in live.items():
        np.copyto(arr, stored[name], casting="same_kind")


def restore_model(model, ckpt: CheckpointData) -> None:
    """Copy checkpoint buffers into an already-built model, by name."""
    _copy_into({name: t.data for name, t in model.parameters().items()},
               ckpt.params, "parameter")


def restore_optimizer(opt, ckpt: CheckpointData) -> None:
    """Copy saved moments, by name, and counters into a fresh optimizer."""
    _copy_into(opt.views(opt.m), ckpt.opt_m, "first-moment")
    _copy_into(opt.views(opt.v), ckpt.opt_v, "second-moment")
    opt.step_count = ckpt.opt_step_count
    opt.lr = ckpt.lr
    opt.weight_decay = ckpt.weight_decay
