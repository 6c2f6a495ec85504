"""Binary checkpoints for training state.

A checkpoint is a single self-describing file holding the configuration
snapshot, every named parameter buffer, the optimizer moments, and the
counters needed to resume the run exactly where it stopped (seed, epoch,
global step). The header also holds Adam's two decay rates and epsilon,
which are fixed; the reader checks them against the training constants.
All numbers are little-endian; parameter data is stored as raw 64-bit
floats. The file ends with a SHA-256 digest of everything before it, so a
flipped byte anywhere is detected at load time. Loading holds none of the
arrays: the file is streamed once through the digest, its name and shape
table is read, and each array stays in the file until it is asked for.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import struct
from collections.abc import MutableMapping
from dataclasses import dataclass, field

import numpy as np

from .train import ADAM_BETA1, ADAM_BETA2, ADAM_EPS

MAGIC = b"MOCE1"
FORMAT_VERSION = 1
# The digest pass reads a file through one buffer this size. It stays below
# glibc's initial mmap threshold (128 KiB): freeing a larger, mmapped buffer
# raises the threshold to its size, so a later Model.create's per-tensor
# draws come from the heap, which keeps what they free (a 1 MiB buffer took
# serving a paper-shape checkpoint from 140 MB peak RSS to 236 MB).
CHUNK = 64 * 1024


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
    """Everything read back from a checkpoint: the config text, counters and
    rates, and three name -> array tables (parameters, first and second
    moments). Each table is a `StoredArrays`, which reads an array when it
    is asked for; one given as a plain mapping holds its arrays as given."""

    config_text: str
    seed: int
    epoch: int
    step: int
    opt_step_count: int
    lr: float
    weight_decay: float
    params: MutableMapping = field(default_factory=dict)
    opt_m: MutableMapping = field(default_factory=dict)
    opt_v: MutableMapping = field(default_factory=dict)

    def __post_init__(self):
        for table in ("params", "opt_m", "opt_v"):
            arrays = getattr(self, table)
            if not isinstance(arrays, StoredArrays):
                setattr(self, table, StoredArrays(_Memory(b""), {}))
                getattr(self, table).update(arrays)


class StoredArrays(MutableMapping):
    """One table of a checkpoint's arrays by name, like `ad.Views`: each
    array is made only when asked for. From a file it is read into a fresh,
    writable array; from bytes it is a view of them. An array set by name
    replaces the stored one in this table only."""

    def __init__(self, source, where: dict):
        # name -> (offset, shape) in `source`, or an array set by name
        self.source, self.where = source, where

    def shape(self, name: str) -> tuple[int, ...]:
        entry = self.where[name]
        return entry.shape if isinstance(entry, np.ndarray) else entry[1]

    @contextlib.contextmanager
    def reading(self):
        """A function from name to array, reading through one handle on the
        source, which is opened (and checked) on entry."""
        with self.source.opened() as handle:
            yield lambda name: self._get(handle, name)

    def _get(self, handle, name: str) -> np.ndarray:
        entry = self.where[name]
        return entry if isinstance(entry, np.ndarray) else handle.array(*entry)

    def __getitem__(self, name: str) -> np.ndarray:
        if isinstance(self.where[name], np.ndarray):
            return self.where[name]
        with self.reading() as read:
            return read(name)

    def __setitem__(self, name: str, arr) -> None:
        self.where[name] = np.asarray(arr)

    def __delitem__(self, name: str) -> None:
        del self.where[name]

    def __contains__(self, name) -> bool:
        return name in self.where

    def __iter__(self):
        return iter(self.where)

    def __len__(self) -> int:
        return len(self.where)


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


class _Memory:
    """A checkpoint held in a bytes-like object: its own open handle, whose
    arrays are views of it."""

    def __init__(self, blob):
        self.view = memoryview(blob).cast("B")
        self.size = len(self.view)

    @contextlib.contextmanager
    def opened(self):
        yield self

    def read(self, pos: int, n: int) -> memoryview:
        return self.view[pos:pos + n]

    def sha256(self, n: int) -> bytes:
        return hashlib.sha256(self.view[:n]).digest()

    def array(self, offset: int, shape: tuple[int, ...]) -> np.ndarray:
        return np.frombuffer(self.view, "<f8", math.prod(shape),
                             offset).reshape(shape)


class _Handle:
    """An open checkpoint file of `size` bytes."""

    def __init__(self, fh, size: int):
        self.fh, self.size = fh, size

    def _into(self, pos: int, buf):
        """Fill the byte buffer `buf` from `pos` on; `buf`."""
        self.fh.seek(pos)
        if self.fh.readinto(buf) != len(buf):
            raise CorruptCheckpoint("checkpoint is truncated")
        return buf

    def read(self, pos: int, n: int) -> bytearray:
        return self._into(pos, bytearray(n))

    def sha256(self, n: int) -> bytes:
        digest = hashlib.sha256()
        chunk = memoryview(bytearray(CHUNK))
        for start in range(0, n, CHUNK):
            digest.update(self._into(start, chunk[:min(CHUNK, n - start)]))
        return digest.digest()

    def array(self, offset: int, shape: tuple[int, ...]) -> np.ndarray:
        arr = np.empty(shape, "<f8")
        self._into(offset, arr.reshape(-1).view(np.uint8))
        return arr


class _File:
    """A checkpoint file by path. The first `opened()` records the file's
    identity (device, inode, size, modification time); every later one
    raises CorruptCheckpoint, before anything is read, unless the path
    still names that file unchanged, so an array is only ever read from
    the bytes whose digest was checked. `save_checkpoint` renames a new
    file into place, which gives it a new inode."""

    def __init__(self, path):
        self.path, self.identity = path, None

    @contextlib.contextmanager
    def opened(self):
        # buffered: its readinto fills the whole buffer unless the file ends
        with open(self.path, "rb") as fh:
            st = os.fstat(fh.fileno())
            identity = (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns)
            if self.identity is None:
                self.identity = identity
            elif identity != self.identity:
                raise CorruptCheckpoint(
                    f"{os.fspath(self.path)} has changed since it was loaded")
            yield _Handle(fh, st.st_size)


class _Reader:
    """Walks a checkpoint body, `end` bytes read by `read(pos, n)`."""

    def __init__(self, read, end: int):
        self.read, self.end, self.pos = read, end, 0

    def skip(self, n: int) -> int:
        """Step over the next `n` bytes; where they start."""
        if self.pos + n > self.end:
            raise CorruptCheckpoint("checkpoint is truncated")
        self.pos += n
        return self.pos - n

    def take(self, n: int):
        return self.read(self.skip(n), n)

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self, n: int) -> str:
        try:
            return str(self.take(n), "utf-8")
        except UnicodeDecodeError:
            raise CorruptCheckpoint("text field is not valid UTF-8") from None

    def array(self) -> tuple[int, tuple[int, ...]]:
        """The next array's offset and shape; its bytes are skipped."""
        (ndim,) = self.unpack("<B")
        shape = self.unpack(f"<{ndim}I")
        offset = self.skip(math.prod(shape) * 8)
        try:  # NumPy's own limits on a shape, met by a view of 8 bytes
            np.ndarray(shape, "<f8", bytes(8), strides=(0,) * ndim)
        except ValueError:
            raise CorruptCheckpoint(f"array shape {shape} is too large") from None
        return offset, shape


def _decode(source) -> CheckpointData:
    """The one parser of the format, for a file or bytes alike. It checks,
    in this order: the length, the signature, the checksum, the version,
    then that the counters are non-negative, the learning rate and weight
    decay finite and non-negative, no parameter name repeats and every
    array lies inside the body. It keeps only where each array lies."""
    with source.opened() as handle:
        if handle.size < len(MAGIC) + 4 + 32:
            raise CorruptCheckpoint("file too short to be a checkpoint")
        end = handle.size - 32
        if handle.read(0, len(MAGIC)) != MAGIC:
            raise BadMagic("not a checkpoint file (bad signature)")
        if handle.sha256(end) != handle.read(end, 32):
            raise CorruptCheckpoint("checksum mismatch: the file is damaged")
        reader = _Reader(handle.read, end)
        reader.skip(len(MAGIC))
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
                f"Adam decay rates and epsilon {tuple(adam)} differ from the "
                f"fixed {(ADAM_BETA1, ADAM_BETA2, ADAM_EPS)}")
        for name, value in (("seed", seed), ("epoch", epoch), ("step", step),
                            ("opt_step_count", opt_step_count)):
            if value < 0:
                raise CorruptCheckpoint(f"{name} is negative ({value})")
        for name, value in (("lr", lr), ("weight_decay", weight_decay)):
            if not (math.isfinite(value) and value >= 0.0):
                raise CorruptCheckpoint(
                    f"{name} must be finite and non-negative, got {value}")
        (num_params,) = reader.unpack("<I")
        tables = ({}, {}, {})
        for _ in range(num_params):
            (name_len,) = reader.unpack("<H")
            name = reader.text(name_len)
            if name in tables[0]:
                raise CorruptCheckpoint(f"parameter {name!r} is stored twice")
            for table in tables:
                table[name] = reader.array()
        if reader.pos != end:
            raise CorruptCheckpoint("trailing bytes after the last buffer")
    params, opt_m, opt_v = (StoredArrays(source, t) for t in tables)
    return CheckpointData(config_text=config_text, seed=seed, epoch=epoch,
                          step=step, opt_step_count=opt_step_count, lr=lr,
                          weight_decay=weight_decay, params=params,
                          opt_m=opt_m, opt_v=opt_v)


def deserialize(blob) -> CheckpointData:
    """Decode a checkpoint from any bytes-like object, by the reader that
    `load_checkpoint` uses, with the same checks and errors. The arrays are
    views of `blob`, made on access, which keep it alive; they are writable
    when `blob` is."""
    return _decode(_Memory(blob))


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
    """Read the checkpoint file at `path` as `deserialize` reads bytes,
    holding none of its arrays: the file is streamed once through the
    digest, in CHUNK-sized reads, and its name and shape table is read
    past the array bytes. Each array is read when asked for, into a fresh
    writable array, after checking that `path` still names the file that
    was verified (else CorruptCheckpoint). `restore_model` and
    `restore_optimizer` copy each array into the live buffer of its name
    through such a temporary, no larger than one parameter."""
    return _decode(_File(path))


def _copy_into(*tables) -> None:
    """Check the names and shapes of every stored array in each (live,
    stored, what) table against the live ones, and open each table's
    source, before copying any array into place, casting only to a float32
    run's dtype. So a mismatch or a changed file leaves the live buffers as
    they were."""
    for live, stored, what in tables:
        missing = sorted(set(live) - set(stored))
        extra = sorted(set(stored) - set(live))
        if missing or extra:
            raise CheckpointError(
                f"{what} names do not match the model "
                f"(missing: {missing[:3]}, unexpected: {extra[:3]})")
        for name, arr in live.items():
            if stored.shape(name) != arr.shape:
                raise CheckpointError(
                    f"{name}: stored {what} shape {stored.shape(name)} does "
                    f"not match model shape {arr.shape}")
    with contextlib.ExitStack() as stack:
        reads = [stack.enter_context(stored.reading())
                 for _, stored, _ in tables]
        for (live, _, _), read in zip(tables, reads):
            for name, arr in live.items():
                np.copyto(arr, read(name), casting="same_kind")


def restore_model(model, ckpt: CheckpointData) -> None:
    """Copy checkpoint buffers into an already-built model, by name."""
    _copy_into(({name: t.data for name, t in model.parameters().items()},
                ckpt.params, "parameter"))


def restore_optimizer(opt, ckpt: CheckpointData) -> None:
    """Copy saved moments, by name, and counters into a fresh optimizer."""
    _copy_into((opt.views(opt.m), ckpt.opt_m, "first-moment"),
               (opt.views(opt.v), ckpt.opt_v, "second-moment"))
    opt.step_count = ckpt.opt_step_count
    opt.lr = ckpt.lr
    opt.weight_decay = ckpt.weight_decay
