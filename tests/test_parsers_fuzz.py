"""Parsers and loaders fed arbitrary input.

Each must return a value or raise the package's own error type, never a
stray IndexError, KeyError, csv.Error, UnicodeDecodeError or bare
ValueError: the CLI maps exactly the package's errors to exit code 2.
SMILES that a strategy writes valid by construction also check the parser's
ring flags and degrees against a brute-force reference.
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


DIGITS = "0123456789"
# symbol -> (element, aromatic) for every symbol a bracket atom accepts
BRACKET_SYMBOLS = {"B": (5, False), "C": (6, False), "N": (7, False),
                   "O": (8, False), "P": (15, False), "S": (16, False),
                   "F": (9, False), "Cl": (17, False), "Br": (35, False),
                   "I": (53, False), "b": (5, True), "c": (6, True),
                   "n": (7, True), "o": (8, True), "p": (15, True),
                   "s": (16, True)}
NOT_SYMBOLS = ["", "H", "Xe", "Si", "Cs", "l", "*", "@", "\u00b9", "\u0663"]


@st.composite
def bracket_atoms(draw):
    """A bracket atom written from its parts: isotope, symbol, chirality, H
    count, charge and closing bracket. Returns the text and, when it is well
    formed, the (element, aromatic, charge, H count) its parts state."""
    isotope = draw(st.text(DIGITS, max_size=3))
    symbol = draw(st.sampled_from(sorted(BRACKET_SYMBOLS) + NOT_SYMBOLS))
    chirality = "@" * draw(st.integers(0, 2))
    h_digits = draw(st.none() | st.text(DIGITS, max_size=2))
    charge = draw(st.none() | st.tuples(st.sampled_from("+-"), st.integers(1, 3),
                                        st.text(DIGITS, max_size=2)))
    close = draw(st.booleans())
    text = "[" + isotope + symbol + chirality
    hydrogens = 0
    if h_digits is not None:
        text += "H" + h_digits
        hydrogens = int(h_digits) if h_digits else 1
    formal_charge = 0
    if charge is not None:
        sign, run, digits = charge
        text += sign * run + digits
        formal_charge = (1 if sign == "+" else -1) * (int(digits) if digits else run)
    if not close or symbol not in BRACKET_SYMBOLS:
        return text + ("]" if close else ""), None
    return text + "]", (*BRACKET_SYMBOLS[symbol], formal_charge, hydrogens)


@settings(deadline=None, max_examples=300)
@given(bracket_atoms())
@example(("[13C@@H2+3]", (6, False, 3, 2)))
@example(("[nH]", (7, True, 0, 1)))
@example(("[C+H]", None))  # H after the charge
@example(("[C++-]", None))  # mixed sign run
@example(("[Cl", None))
def test_bracket_atom_from_parts(case):
    text, expected = case
    if expected is not None:
        (atom,) = parse_smiles(text).atoms
        assert (atom.element, atom.is_aromatic, atom.formal_charge,
                atom.explicit_hydrogens) == expected
        return
    try:
        parse_smiles(text)
    except SmilesError as exc:
        after_isotope = len(text) - len(text[1:].lstrip(DIGITS))
        assert exc.offset in (0, after_isotope)
    else:
        raise AssertionError(f"{text!r} parsed")


ORGANIC_MAX_VALENCE = [("C", 4), ("N", 3), ("O", 2), ("S", 6), ("P", 5),
                       ("B", 3), ("F", 1), ("Cl", 1), ("Br", 1)]
BRACKET_ATOMS = ["[C]", "[N+]", "[O-]", "[CH2]", "[13C]"]  # no valence ceiling
AROMATIC_ATOMS = ["c", "n", "o", "s", "[nH]"]
BOND_UNITS = {"": 1, "-": 1, "=": 2, "#": 3, ":": 1}


def _ring_label(number):
    return str(number) if number < 10 else f"%{number}"


@st.composite
def valid_smiles(draw):
    """A SMILES written from a random spanning tree plus random extra bonds.

    The tree gives chains and branches; each extra bond becomes a ring
    closure, so fused, spiro and bridged rings all arise. Ring numbers come
    from the free ones, often the lowest (so numbers are reused) and often
    above 9 (written %nn). Elements and bond orders respect each atom's
    valence ceiling; aromatic and bracket atoms have none.
    """
    n = draw(st.integers(1, 14))
    parent = [draw(st.integers(0, i - 1)) for i in range(1, n)]
    children = [[] for _ in range(n)]
    for child, par in enumerate(parent, start=1):
        children[par].append(child)
    edges = {frozenset(e) for e in enumerate(parent, start=1)}
    closures = []
    for u, v in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, n - 1)), max_size=6)):
        if u != v and frozenset((u, v)) not in edges:
            edges.add(frozenset((u, v)))
            closures.append((u, v))

    aromatic = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    symbol, units = {}, [0] * n
    for a, b in sorted(tuple(sorted(e)) for e in edges):
        choices = ["", "-", "=", "#"] + ([":"] if aromatic[a] and aromatic[b] else [])
        sym = symbol[frozenset((a, b))] = draw(st.sampled_from(choices))
        units[a] += BOND_UNITS[sym]
        units[b] += BOND_UNITS[sym]
    token = [draw(st.sampled_from(
        AROMATIC_ATOMS if aromatic[i] else
        [s for s, cap in ORGANIC_MAX_VALENCE if cap >= units[i]] + BRACKET_ATOMS))
        for i in range(n)]

    order, stack = [], [0]  # the writer's preorder
    while stack:
        i = stack.pop()
        order.append(i)
        stack.extend(reversed(children[i]))
    position = {atom: k for k, atom in enumerate(order)}
    opens = [[] for _ in range(n)]
    closes = [[] for _ in range(n)]
    for u, v in closures:
        first, second = sorted((u, v), key=position.get)
        opens[first].append((first, second))
        closes[second].append((first, second))
    ring_text = [""] * n
    number, side = {}, {}
    for i in order:  # closes before opens, so an atom may reuse a number
        for edge in closes[i]:
            sym = symbol[frozenset(edge)] if side[edge] != "open" else ""
            ring_text[i] += sym + _ring_label(number.pop(edge))
        for edge in opens[i]:
            free = [k for k in range(1, 100) if k not in number.values()]
            number[edge] = draw(st.sampled_from(free[:1]) | st.sampled_from(free))
            side[edge] = draw(st.sampled_from(["open", "close", "both"]))
            sym = symbol[frozenset(edge)] if side[edge] != "close" else ""
            ring_text[i] += sym + _ring_label(number[edge])

    def write(i):
        text = token[i] + ring_text[i]
        for k, child in enumerate(children[i]):
            part = symbol[frozenset((i, child))] + write(child)
            text += part if k == len(children[i]) - 1 else f"({part})"
        return text

    return write(0)


def _connected_without(num_atoms, ends, skip):
    """Whether bond ``skip``'s two atoms stay connected when it is removed."""
    adjacency = [[] for _ in range(num_atoms)]
    for k, (a, b) in enumerate(ends):
        if k != skip:
            adjacency[a].append(b)
            adjacency[b].append(a)
    start, goal = ends[skip]
    seen, frontier = {start}, [start]
    while frontier:
        for w in adjacency[frontier.pop()]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return goal in seen


@settings(deadline=None, max_examples=300)
@given(valid_smiles())
@example("c1ccc2ccccc2c1")  # fused
@example("C1CCC2(CC1)CCCC2")  # spiro
@example("C1CC2CCC1C2")  # bridged
@example("c1ccc(cc1)-c1ccccc1")  # ring number reused; the linker is a bridge
@example("C1CC1C1CC1")
def test_ring_flags_and_degrees_match_a_brute_force_reference(smiles):
    graph = parse_smiles(smiles)
    ends = [(bond.a, bond.b) for bond in graph.bonds]
    for k, bond in enumerate(graph.bonds):
        assert bond.in_ring == _connected_without(graph.num_atoms, ends, k), (k, bond)
    for i, atom in enumerate(graph.atoms):
        own = [bond for bond in graph.bonds if i in (bond.a, bond.b)]
        assert atom.degree == len(own), (i, atom)
        assert atom.in_ring == any(bond.in_ring for bond in own), (i, atom)


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


PARAMS = {"a": np.arange(6.0).reshape(2, 3), "b": np.array(0.5)}
ZEROS = {name: np.zeros_like(arr) for name, arr in PARAMS.items()}
BODY = serialize("seed = 1\n", PARAMS, ZEROS, ZEROS, seed=1, epoch=2,
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

