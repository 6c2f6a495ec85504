"""Checkpoint format: round trips, corruption detection, restoration."""

import hashlib
import struct

import numpy as np
import pytest

from moce.checkpoint import (FORMAT_VERSION, MAGIC, BadMagic, CheckpointData,
                             CheckpointError, CorruptCheckpoint,
                             VersionMismatch, deserialize, load_checkpoint,
                             restore_model, restore_optimizer,
                             save_checkpoint, serialize)
from moce.model import Model, ModelConfig
from moce.train import OptimizerState


def small_state():
    rng = np.random.default_rng(4)
    params = {
        "scalar": np.asarray(rng.normal()),
        "vec": rng.normal(size=3),
        "mat": rng.normal(size=(2, 4)),
    }
    m = {k: rng.normal(size=v.shape) for k, v in params.items()}
    v = {k: np.abs(rng.normal(size=arr.shape)) for k, arr in params.items()}
    return params, m, v


def tiny_model():
    config = ModelConfig(embed_dim=4, num_gnn_layers=1,
                         num_processing_layers=2, num_experts=3, k_s=2,
                         k_t=3, task_dim=5)
    return Model.create(config, seed=11)


class TestRoundTrip:
    def test_bitwise_round_trip(self):
        params, m, v = small_state()
        blob = serialize("epochs = 5\n# snapshot\n", params, m, v,
                         seed=7, epoch=3, step=41, opt_step_count=41,
                         lr=0.01, weight_decay=0.02)
        ckpt = deserialize(blob)
        assert ckpt.config_text == "epochs = 5\n# snapshot\n"
        assert (ckpt.seed, ckpt.epoch, ckpt.step) == (7, 3, 41)
        assert ckpt.opt_step_count == 41
        assert ckpt.lr == 0.01
        assert ckpt.weight_decay == 0.02
        for key, arr in params.items():
            assert ckpt.params[key].shape == arr.shape
            assert np.array_equal(ckpt.params[key], arr)
            assert np.array_equal(ckpt.opt_m[key], m[key])
            assert np.array_equal(ckpt.opt_v[key], v[key])

    def test_scalar_shape_preserved(self):
        params, m, v = small_state()
        ckpt = deserialize(serialize("", params, m, v, 0, 0, 0, 0, 0.1, 0.0))
        assert ckpt.params["scalar"].shape == ()

    def test_unicode_config_text(self):
        params, m, v = small_state()
        text = "out_dir = résultats\n"
        ckpt = deserialize(serialize(text, params, m, v, 0, 0, 0, 0, 0.1, 0.0))
        assert ckpt.config_text == text

    def test_file_round_trip_via_model(self, tmp_path):
        model = tiny_model()
        opt = OptimizerState.create(model.parameters(), lr=0.003,
                                    weight_decay=0.01)
        # make moments non-trivial
        for arr in opt.m.values():
            arr += 0.5
        opt.step_count = 9
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, "seed = 11\n", model, opt, seed=11, epoch=2,
                        step=18)

        ckpt = load_checkpoint(path)
        other = tiny_model()
        for t in other.parameters().values():
            t.data += 1.0  # knock it away before restoring
        restore_model(other, ckpt)
        for name, tensor in model.parameters().items():
            assert np.array_equal(tensor.data, other.parameters()[name].data)

        opt2 = OptimizerState.create(other.parameters(), lr=1.0,
                                     weight_decay=1.0)
        restore_optimizer(opt2, ckpt)
        assert opt2.step_count == 9
        assert opt2.lr == 0.003
        assert opt2.weight_decay == 0.01
        for name in opt.m:
            assert np.array_equal(opt2.m[name], opt.m[name])
            assert np.array_equal(opt2.v[name], opt.v[name])


class TestCorruption:
    def make_blob(self):
        params, m, v = small_state()
        return serialize("k_s = 2\n", params, m, v, 1, 2, 3, 3, 0.01, 0.0)

    def test_single_byte_flip_detected(self):
        blob = self.make_blob()
        for pos in (10, len(blob) // 2, len(blob) - 40):
            damaged = bytearray(blob)
            damaged[pos] ^= 0x40
            with pytest.raises((CorruptCheckpoint, BadMagic)):
                deserialize(bytes(damaged))

    def test_flip_in_checksum_itself_detected(self):
        blob = bytearray(self.make_blob())
        blob[-1] ^= 0x01
        with pytest.raises(CorruptCheckpoint):
            deserialize(bytes(blob))

    def test_truncation_detected(self):
        blob = self.make_blob()
        with pytest.raises(CorruptCheckpoint):
            deserialize(blob[:len(blob) - 9])

    def test_not_a_checkpoint(self):
        with pytest.raises(CorruptCheckpoint):
            deserialize(b"short")
        junk = b"NOTCK" + bytes(100)
        import hashlib
        with pytest.raises(BadMagic):
            deserialize(junk + hashlib.sha256(junk).digest())

    def test_version_mismatch_is_hard_error(self):
        import hashlib
        blob = self.make_blob()
        body = bytearray(blob[:-32])
        body[5:9] = (99).to_bytes(4, "little")
        patched = bytes(body) + hashlib.sha256(bytes(body)).digest()
        with pytest.raises(VersionMismatch, match="99"):
            deserialize(patched)


def sealed_body(config=b"", name=b"w", header=struct.pack("<BI", 1, 2),
                data=bytes(16)) -> bytes:
    """A checkpoint with one parameter, built field by field and given a
    valid checksum, so only the named field can be at fault."""
    body = MAGIC + struct.pack("<I", FORMAT_VERSION)
    body += struct.pack("<I", len(config)) + config
    body += struct.pack("<qqqq", 0, 0, 0, 0)
    body += struct.pack("<ddddd", 0.01, 0.0, 0.9, 0.999, 1e-8)
    body += struct.pack("<IH", 1, len(name)) + name + (header + data) * 3
    return body + hashlib.sha256(body).digest()


class TestChecksumValidBodies:
    def test_well_formed_body_loads(self):
        ckpt = deserialize(sealed_body())
        assert ckpt.params["w"].shape == (2,)

    def test_config_text_not_utf8(self):
        with pytest.raises(CorruptCheckpoint):
            deserialize(sealed_body(config=b"k_s = \xff\n"))

    def test_parameter_name_not_utf8(self):
        with pytest.raises(CorruptCheckpoint):
            deserialize(sealed_body(name=b"w\xfe"))

    def test_dimensions_overflowing_int64(self):
        # 65536 ** 4 = 2 ** 64, which an int64 product wraps to 0
        header = struct.pack("<B4I", 4, 65536, 65536, 65536, 65536)
        with pytest.raises(CorruptCheckpoint):
            deserialize(sealed_body(header=header, data=b""))

    def test_zero_among_huge_dimensions(self):
        header = struct.pack("<B4I", 4, 0, 2**32 - 1, 2**32 - 1, 2**32 - 1)
        with pytest.raises(CorruptCheckpoint):
            deserialize(sealed_body(header=header, data=b""))

    def test_zero_size_array_loads(self):
        header = struct.pack("<B2I", 2, 0, 3)
        assert deserialize(sealed_body(header=header, data=b"")
                           ).params["w"].shape == (0, 3)


class TestRestoreValidation:
    def test_name_mismatch_rejected(self):
        model = tiny_model()
        ckpt = CheckpointData(config_text="", seed=0, epoch=0, step=0,
                              opt_step_count=0, lr=0.1, weight_decay=0.0,
                              beta1=0.9, beta2=0.999, eps=1e-8,
                              params={"nope": np.zeros(3)})
        with pytest.raises(CheckpointError, match="do not match"):
            restore_model(model, ckpt)

    def test_shape_mismatch_rejected(self, tmp_path):
        model = tiny_model()
        opt = OptimizerState.create(model.parameters())
        path = tmp_path / "c.bin"
        save_checkpoint(path, "", model, opt, 0, 0, 0)
        ckpt = load_checkpoint(path)
        ckpt.params["integrator.bias"] = np.zeros(99)
        with pytest.raises(CheckpointError, match="integrator.bias"):
            restore_model(model, ckpt)
