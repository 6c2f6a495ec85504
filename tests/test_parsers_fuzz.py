"""Parsers and loaders fed arbitrary input.

Each must return a value or raise the package's own error type, never a
stray IndexError, KeyError, csv.Error, UnicodeDecodeError or bare
ValueError: the CLI maps exactly the package's errors to exit code 2.
"""

import hashlib

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moce.checkpoint import MAGIC, CheckpointError, deserialize, serialize
from moce.experts import TaskEmbeddingError, load_task_embeddings
from moce.molgraph import (DatasetError, SmilesError, SplitAssignment,
                           load_dataset_csv, parse_smiles)

SMILES_ALPHABET = "CNOSPFIBrlcnosp()[]=#$:@+-0123456789%.H/\\*"
NOT_UTF8 = b"\xff\xfe not UTF-8 \xc3\x28\n"
HUGE_FIELD = b'"' + b"C" * 131_073 + b'"'

smiles_text = st.text(alphabet=SMILES_ALPHABET, max_size=24) | st.text(max_size=8)
cells = st.one_of(
    st.sampled_from(["C", "CCO", "c1ccccc1", "C1CC", "[NH4+]", "0", "1",
                     "2", "t", "train", "valid", "-1", "7", "", '"', '"a,b"']),
    smiles_text)
rows = st.lists(st.lists(cells, max_size=4).map(",".join), max_size=6)


def csv_bytes(headers):
    """A file of a chosen header and rows of plausible cells, or raw bytes."""
    text = st.tuples(st.sampled_from(headers), rows).map(
        lambda hr: "\n".join([hr[0], *hr[1]]) + "\n")
    return text.map(str.encode) | st.binary(max_size=200)


def written(tmp_path_factory, data: bytes):
    path = tmp_path_factory.getbasetemp() / "fuzzed-input"
    path.write_bytes(data)
    return path


@settings(deadline=None, max_examples=300)
@given(smiles_text)
@example("B\u00b9")  # str.isdigit() accepts a superscript one; int() does not
def test_parse_smiles_returns_or_raises_smiles_error(smiles):
    try:
        parse_smiles(smiles)
    except SmilesError:
        pass


@settings(deadline=None, max_examples=100)
@given(csv_bytes(["smiles,label,task_id", "smiles,label", ""]))
@example(b"smiles,label,task_id\n" + HUGE_FIELD + b",1,t\n")
@example(b"smiles,label,task_id\n" + NOT_UTF8)
def test_load_dataset_csv_returns_or_raises_dataset_error(tmp_path_factory, data):
    try:
        load_dataset_csv(written(tmp_path_factory, data))
    except DatasetError:
        pass


@settings(deadline=None, max_examples=100)
@given(csv_bytes(["record_index,split", "record_index", ""]))
@example(b"record_index,split\n" + HUGE_FIELD + b",train\n")
@example(b"record_index,split\n" + NOT_UTF8)
def test_split_read_csv_returns_or_raises_dataset_error(tmp_path_factory, data):
    try:
        SplitAssignment.read_csv(written(tmp_path_factory, data))
    except DatasetError:
        pass


embedding_lines = st.lists(
    st.tuples(st.sampled_from(["a", "b", "", "a b"]),
              st.lists(st.sampled_from(["1", "-0.5", "2e3", "nan", "inf", "",
                                        "x", " 3 "]), max_size=4).map(",".join),
              st.sampled_from(["\t", "\t\t", " "])),
    max_size=5).map(lambda ls: "\n".join(f"{t}{sep}{v}" for t, v, sep in ls))


@settings(deadline=None, max_examples=100)
@given(embedding_lines.map(str.encode) | st.binary(max_size=100))
@example(NOT_UTF8)
def test_load_task_embeddings_returns_or_raises_its_error(tmp_path_factory, data):
    try:
        load_task_embeddings(written(tmp_path_factory, data))
    except TaskEmbeddingError:
        pass


BODY = serialize("seed = 1\n", {"a": np.arange(6.0).reshape(2, 3),
                                "b": np.array(0.5)}, {}, {}, seed=1, epoch=2,
                 step=3, opt_step_count=4, lr=0.01, weight_decay=0.0)[:-32]


@settings(deadline=None, max_examples=200)
@given(st.lists(st.tuples(st.integers(len(MAGIC), len(BODY) - 1),
                          st.integers(0, 255)), max_size=4),
       st.integers(len(MAGIC), len(BODY)), st.binary(max_size=12))
def test_deserialize_returns_or_raises_checkpoint_error(edits, cut, tail):
    """The body is damaged and then given a valid digest, so the parser
    itself, not the checksum, must reject it."""
    body = bytearray(BODY)
    for pos, value in edits:
        body[pos] = value
    body = bytes(body[:cut]) + tail
    try:
        deserialize(body + hashlib.sha256(body).digest())
    except CheckpointError:
        pass

