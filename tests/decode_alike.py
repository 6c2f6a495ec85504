"""The two checkpoint entry points, `deserialize` and `load_checkpoint`,
fed the same bytes."""

from moce.checkpoint import CheckpointError, deserialize, load_checkpoint

HEADER = ("config_text", "seed", "epoch", "step", "opt_step_count", "lr",
          "weight_decay")


def _outcome(decode, source):
    """What `decode(source)` gives, and a summary to compare: the error's
    type and message, or every header field and stored array."""
    try:
        ckpt = decode(source)
    except CheckpointError as exc:
        return exc, (type(exc), str(exc))
    return ckpt, tuple(getattr(ckpt, key) for key in HEADER) + tuple(
        {name: (arr.shape, arr.tobytes()) for name, arr in table.items()}
        for table in (ckpt.params, ckpt.opt_m, ckpt.opt_v))


def decoded_alike(blob: bytes, path):
    """`deserialize(blob)`, once `load_checkpoint(path)`, where `path` holds
    the same bytes, has decoded them alike or raised a CheckpointError of
    the same type with the same message. Such an error is raised."""
    (ckpt, seen), (_, from_file) = (_outcome(deserialize, blob),
                                    _outcome(load_checkpoint, path))
    assert seen == from_file
    if isinstance(ckpt, CheckpointError):
        raise ckpt
    return ckpt
