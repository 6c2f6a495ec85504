"""Checkpoint format: round trips, corruption detection, restoration."""

import hashlib
import os
import struct
import tracemalloc
from types import SimpleNamespace

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


def tiny_model(dtype=np.float64):
    config = ModelConfig(embed_dim=4, num_gnn_layers=1,
                         num_processing_layers=2, num_experts=3, k_s=2,
                         k_t=3, task_dim=5)
    return Model.create(config, seed=11, dtype=dtype)


def sized_model():
    """A model whose checkpoint is about 9.8 MB (409,152 parameters)."""
    config = ModelConfig(embed_dim=128, num_gnn_layers=2,
                         num_processing_layers=2, num_experts=8, k_s=2,
                         k_t=3, task_dim=5)
    return Model.create(config, seed=11)


def stand_in(params, m, v):
    """A model and optimizer holding the given arrays as they are."""
    model = SimpleNamespace(parameters=lambda: {
        name: SimpleNamespace(data=arr) for name, arr in params.items()})
    opt = OptimizerState(lr=0.01, weight_decay=0.0, step_count=5, m=m, v=v)
    return model, opt


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


class TestStreaming:
    def test_save_and_load_allocate_at_most_about_one_file(self, tmp_path):
        model = sized_model()
        opt = OptimizerState.create(model.parameters(), lr=0.01,
                                    weight_decay=0.01)
        path = tmp_path / "c.bin"
        tracemalloc.start()
        try:
            save_checkpoint(path, "", model, opt, 0, 0, 0)
            save_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            ckpt = load_checkpoint(path)
            restore_model(model, ckpt)
            restore_optimizer(opt, ckpt)
            load_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size > 9_000_000
        # the body is never gathered on save; on load it is held once
        assert save_peak < 0.1 * size
        assert load_peak < 1.2 * size

    @pytest.mark.parametrize("case", ["float32", "scalar", "transposed"])
    def test_file_holds_exactly_the_serialized_bytes(self, tmp_path, case):
        if case == "float32":
            model = tiny_model(np.float32)
            opt = OptimizerState.create(model.parameters(), lr=0.01,
                                        weight_decay=0.0)
            for arr in opt.v.values():
                arr += np.float32(0.3)
        else:
            params, m, v = small_state()
            if case == "transposed":
                params["mat"] = params["mat"].T
                m["mat"] = np.asfortranarray(m["mat"].T)
                assert not params["mat"].flags.c_contiguous
            model, opt = stand_in(params, m, v)
        path = tmp_path / "c.bin"
        save_checkpoint(path, "k_s = 2\n", model, opt, 3, 4, 5)
        params = {name: t.data for name, t in model.parameters().items()}
        assert path.read_bytes() == serialize(
            "k_s = 2\n", params, opt.m, opt.v, 3, 4, 5, opt.step_count,
            opt.lr, opt.weight_decay)
        ckpt = load_checkpoint(path)
        for name, arr in params.items():
            assert ckpt.params[name].shape == arr.shape
            assert np.array_equal(ckpt.params[name], arr)

    def test_any_bytes_like_input_decodes_alike(self):
        params, m, v = small_state()
        blob = serialize("seed = 1\n", params, m, v, 1, 2, 3, 3, 0.01, 0.0)
        decoded = [deserialize(b) for b in
                   (blob, bytearray(blob), memoryview(blob))]
        for ckpt in decoded[1:]:
            assert ckpt.config_text == decoded[0].config_text
            assert (ckpt.seed, ckpt.epoch, ckpt.step, ckpt.lr) == (1, 2, 3,
                                                                   0.01)
            for table in ("params", "opt_m", "opt_v"):
                for name, arr in getattr(decoded[0], table).items():
                    assert np.array_equal(getattr(ckpt, table)[name], arr)

    def test_file_truncated_on_disk(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "c.bin"
        save_checkpoint(path, "", model,
                        OptimizerState.create(model.parameters(), lr=0.01,
                                              weight_decay=0.01), 0, 0, 0)
        full = path.read_bytes()
        for keep in (0, 10, len(full) // 2, len(full) - 1):
            path.write_bytes(full)
            os.truncate(path, keep)
            with pytest.raises(CorruptCheckpoint):
                load_checkpoint(path)

    def test_interrupted_save_keeps_the_earlier_file(self, tmp_path):
        model = sized_model()
        opt = OptimizerState.create(model.parameters(), lr=0.01,
                                    weight_decay=0.01)
        path = tmp_path / "c.bin"
        save_checkpoint(path, "", model, opt, 0, 1, 1)
        earlier = path.read_bytes()
        partial = []

        class Interrupt:
            """Stands for a moment array; stops the save when it is read."""
            def __array__(self, dtype=None, copy=None):
                partial.append(os.path.getsize(f"{path}.tmp"))
                raise KeyboardInterrupt

        opt.m[sorted(opt.m)[-1]] = Interrupt()
        with pytest.raises(KeyboardInterrupt):
            save_checkpoint(path, "", model, opt, 0, 2, 2)
        assert partial and partial[0] > 0.9 * len(earlier)
        assert path.read_bytes() == earlier
        assert [p.name for p in tmp_path.iterdir()] == ["c.bin"]

    def test_save_builds_no_array_when_every_moment_is_present(self,
                                                               tmp_path):
        model = sized_model()
        opt = OptimizerState.create(model.parameters(), lr=0.01,
                                    weight_decay=0.01)
        largest = max(p.data.nbytes for p in model.parameters().values())
        tracemalloc.start()
        try:
            save_checkpoint(tmp_path / "c.bin", "", model, opt, 0, 0, 0)
            save_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert save_peak < 0.5 * largest

    def test_loaded_arrays_are_writable(self, tmp_path):
        model = tiny_model()
        opt = OptimizerState.create(model.parameters(), lr=0.01,
                                    weight_decay=0.01)
        save_checkpoint(tmp_path / "c.bin", "", model, opt, 0, 0, 0)
        ckpt = load_checkpoint(tmp_path / "c.bin")
        arrays = [arr for table in (ckpt.params, ckpt.opt_m, ckpt.opt_v)
                  for arr in table.values()]
        assert all(arr.flags.writeable for arr in arrays)
        arrays[0][...] = 1.0


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
                data=bytes(16), adam=(0.9, 0.999, 1e-8), counters=(0, 0, 0, 0),
                rates=(0.01, 0.0), copies=1) -> bytes:
    """A checkpoint with one parameter, stored ``copies`` times, built field
    by field and given a valid checksum, so only the named field can be at
    fault. ``counters`` are seed, epoch, step and opt_step_count; ``rates``
    lr and weight_decay."""
    body = MAGIC + struct.pack("<I", FORMAT_VERSION)
    body += struct.pack("<I", len(config)) + config
    body += struct.pack("<qqqq", *counters)
    body += struct.pack("<ddddd", *rates, *adam)
    body += struct.pack("<I", copies) + (
        struct.pack("<H", len(name)) + name + (header + data) * 3) * copies
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

    def test_repeated_parameter_name(self):
        # the second copy would silently replace the first
        with pytest.raises(CorruptCheckpoint, match="'w' .*twice"):
            deserialize(sealed_body(copies=2))

    def test_dimensions_overflowing_int64(self):
        # 65536 ** 4 = 2 ** 64, which an int64 product wraps to 0
        header = struct.pack("<B4I", 4, 65536, 65536, 65536, 65536)
        with pytest.raises(CorruptCheckpoint):
            deserialize(sealed_body(header=header, data=b""))

    def test_zero_among_huge_dimensions(self):
        header = struct.pack("<B4I", 4, 0, 2**32 - 1, 2**32 - 1, 2**32 - 1)
        with pytest.raises(CorruptCheckpoint):
            deserialize(sealed_body(header=header, data=b""))

    @pytest.mark.parametrize("adam", [(0.8, 0.999, 1e-8),
                                      (0.9, 0.99, 1e-8),
                                      (0.9, 0.999, 1e-7),
                                      (0.9, 0.999, float("nan"))])
    def test_adam_slots_other_than_the_fixed_constants(self, adam):
        with pytest.raises(CorruptCheckpoint, match="Adam"):
            deserialize(sealed_body(adam=adam))

    @pytest.mark.parametrize("field", range(4),
                             ids=["seed", "epoch", "step", "opt_step_count"])
    def test_negative_counter(self, field):
        counters = [0, 0, 0, 0]
        counters[field] = -5 if field == 3 else -1
        name = ("seed", "epoch", "step", "opt_step_count")[field]
        with pytest.raises(CorruptCheckpoint, match=name):
            deserialize(sealed_body(counters=tuple(counters)))

    @pytest.mark.parametrize("rates", [(float("nan"), 0.0),
                                       (float("inf"), 0.0), (-0.01, 0.0),
                                       (0.01, float("nan")),
                                       (0.01, float("-inf")), (0.01, -1.0)],
                             ids=["lr-nan", "lr-inf", "lr-negative",
                                  "weight_decay-nan", "weight_decay-inf",
                                  "weight_decay-negative"])
    def test_impossible_rate(self, rates):
        name = "lr" if rates[1] == 0.0 else "weight_decay"
        with pytest.raises(CorruptCheckpoint, match=name):
            deserialize(sealed_body(rates=rates))

    def test_largest_counters_and_zero_rates_load(self):
        big = 2**63 - 1
        ckpt = deserialize(sealed_body(counters=(big, big, big, big),
                                       rates=(0.0, 0.0)))
        assert (ckpt.seed, ckpt.opt_step_count, ckpt.lr) == (big, big, 0.0)

    def test_zero_size_array_loads(self):
        header = struct.pack("<B2I", 2, 0, 3)
        assert deserialize(sealed_body(header=header, data=b"")
                           ).params["w"].shape == (0, 3)


# serialize("k_s = 2\n", {"w": [0.5, -1.25]}, m={"w": [0.125, 0]},
# v={"w": [0.0625, 2]}, seed=1, epoch=2, step=3, opt_step_count=3, lr=0.01,
# weight_decay=0), written when beta1, beta2 and eps were still arguments
# of serialize and fields of the optimizer.
EARLIER_BLOB = bytes.fromhex(
    "4d4f43453101000000080000006b5f73203d20320a010000000000000002000000"
    "00000000030000000000000003000000000000007b14ae47e17a843f0000000000"
    "000000cdccccccccccec3f2b8716d9cef7ef3f3a8c30e28e79453e010000000100"
    "770102000000000000000000e03f000000000000f4bf0102000000000000000000"
    "c03f00000000000000000102000000000000000000b03f00000000000000401d03"
    "290c0f5d06b65b25f3d6e04aa57c97428ec315d51e9f022a2f7c6ac40428")


class TestEarlierFiles:
    def test_earlier_blob_loads(self):
        ckpt = deserialize(EARLIER_BLOB)
        assert (ckpt.seed, ckpt.epoch, ckpt.step) == (1, 2, 3)
        assert (ckpt.lr, ckpt.weight_decay) == (0.01, 0.0)
        assert ckpt.params["w"].tolist() == [0.5, -1.25]
        assert ckpt.opt_v["w"].tolist() == [0.0625, 2.0]

    def test_writer_reproduces_earlier_blob(self):
        w = {"w": np.array([0.5, -1.25])}
        m = {"w": np.array([0.125, 0.0])}
        v = {"w": np.array([0.0625, 2.0])}
        assert serialize("k_s = 2\n", w, m, v, 1, 2, 3, 3, 0.01,
                         0.0) == EARLIER_BLOB


class TestRestoreValidation:
    def test_name_mismatch_rejected(self):
        model = tiny_model()
        ckpt = CheckpointData(config_text="", seed=0, epoch=0, step=0,
                              opt_step_count=0, lr=0.1, weight_decay=0.0,
                              params={"nope": np.zeros(3)})
        with pytest.raises(CheckpointError, match="do not match"):
            restore_model(model, ckpt)

    def test_shape_mismatch_rejected(self, tmp_path):
        model = tiny_model()
        opt = OptimizerState.create(model.parameters(), lr=0.01,
                                    weight_decay=0.01)
        path = tmp_path / "c.bin"
        save_checkpoint(path, "", model, opt, 0, 0, 0)
        ckpt = load_checkpoint(path)
        ckpt.params["integrator.bias"] = np.zeros(99)
        with pytest.raises(CheckpointError, match="integrator.bias"):
            restore_model(model, ckpt)

    def test_optimizer_moment_shape_mismatch_rejected(self):
        # a valid file whose first moment is 0-d for a 3-vector parameter
        blob = serialize("", {"w": np.ones(3)}, {"w": np.asarray(7.0)},
                         {"w": np.ones(3)}, 0, 0, 0, 4, 0.01, 0.0)
        opt = OptimizerState(lr=0.01, weight_decay=0.01,
                             m={"w": np.zeros(3)}, v={"w": np.zeros(3)})
        with pytest.raises(CheckpointError, match="w: stored first-moment"):
            restore_optimizer(opt, deserialize(blob))
        assert opt.m["w"].tolist() == [0.0, 0.0, 0.0]
        assert opt.step_count == 0

    def test_optimizer_missing_moment_rejected(self):
        model = tiny_model()
        opt = OptimizerState.create(model.parameters(), lr=0.01,
                                    weight_decay=0.01)
        params = {name: t.data for name, t in model.parameters().items()}
        ckpt = deserialize(serialize("", params, opt.m, opt.v, 0, 0, 0, 0,
                                     0.1, 0.0))
        del ckpt.opt_v["integrator.bias"]
        with pytest.raises(CheckpointError, match="integrator.bias"):
            restore_optimizer(opt, ckpt)
