"""SMILES parsing, molecular graphs, featurization, and scaffold splits.

The atom grammar is written once. ``_ATOM_SYMBOLS`` maps the organic subset
(B, C, N, O, P, S, F, Cl, Br, I and the aromatic b, c, n, o, p, s) to element
and aromaticity, for bare and bracket atoms alike. ``_BRACKET`` matches the
syntax ``[isotope]symbol[chirality][H count][charge]`` whatever the symbol,
which is then looked up in that table. The parser also takes ring closures
1-9 and %nn, branches, and the bond symbols - = # :. Stereo markers
(/ \\ @) and isotopes are accepted and ignored. Every parse error carries
the byte offset of the offending token; a closed bracket atom whose element
is outside the subset names it as written.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import re
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np


class SmilesError(ValueError):
    """Base for SMILES parse failures; ``offset`` is the byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnbalancedParenthesis(SmilesError):
    pass


class UnmatchedRingClosure(SmilesError):
    pass


class UnknownAtomToken(SmilesError):
    pass


class ValenceError(SmilesError):
    pass


class UnsupportedElement(ValueError):
    """Featurization saw an atomic number outside the periodic range."""


class EmptyClass(ValueError):
    """A label class required for stratification has no records."""


class DatasetError(ValueError):
    """A dataset or split file failed to load; ``row`` is the 1-based line,
    or None when no single line is at fault."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message if row is None else f"row {row}: {message}")
        self.row = row


class BondOrder(IntEnum):
    SINGLE = 1
    DOUBLE = 2
    TRIPLE = 3
    AROMATIC = 4

    @property
    def valence_units(self) -> int:
        return _VALENCE_UNITS[self]

    @property
    def feature_index(self) -> int:
        return int(self) - 1


# indexed by BondOrder: an aromatic bond contributes one unit; the aromatic
# atom itself contributes one more (handled at the atom level)
_VALENCE_UNITS = (0, 1, 2, 3, 1)

# symbol -> (element, aromatic), for bare and bracket atoms alike
_ATOM_SYMBOLS = {
    "B": (5, False), "C": (6, False), "N": (7, False), "O": (8, False),
    "P": (15, False), "S": (16, False), "F": (9, False), "Cl": (17, False),
    "Br": (35, False), "I": (53, False),
    "b": (5, True), "c": (6, True), "n": (7, True), "o": (8, True),
    "p": (15, True), "s": (16, True),
}

_DEFAULT_VALENCE = {5: 3, 6: 4, 7: 3, 8: 2, 15: 3, 16: 2, 9: 1, 17: 1, 35: 1, 53: 1}
_MAX_VALENCE = {5: 3, 6: 4, 7: 3, 8: 2, 15: 5, 16: 6, 9: 1, 17: 1, 35: 1, 53: 1}

_BOND_CHARS = {
    "-": BondOrder.SINGLE,
    "=": BondOrder.DOUBLE,
    "#": BondOrder.TRIPLE,
    ":": BondOrder.AROMATIC,
    "/": BondOrder.SINGLE,
    "\\": BondOrder.SINGLE,
}


@dataclass
class Atom:
    element: int
    degree: int = 0
    formal_charge: int = 0
    explicit_hydrogens: int = 0
    is_aromatic: bool = False
    in_ring: bool = False


@dataclass
class Bond:
    a: int
    b: int
    order: BondOrder
    in_ring: bool = False


@dataclass
class MolecularGraph:
    atoms: list[Atom]
    bonds: list[Bond]

    @property
    def num_atoms(self) -> int:
        return len(self.atoms)


# ASCII only: str.isdigit() also accepts characters such as "¹" that int() rejects
_DIGITS = "0123456789"


# Syntax first, element second: the symbol is captured as written (a letter
# and the lowercase ones after it) and looked up in _ATOM_SYMBOLS after the
# match. Every part is optional, so a match always succeeds and its groups
# tell which part is missing. [0-9], not \d: \d also matches non-ASCII digits.
_BRACKET = re.compile(
    r"\[([0-9]*)([A-Za-z][a-z]*)?@*(?:H([0-9]*))?(?:(\++|-+)([0-9]*))?(\])?")
_RING = re.compile("%[0-9][0-9]")


def _parse_bracket(s: str, start: int):
    """Parse a bracket atom starting at '['; returns (info, next_index). An
    element outside the subset is named as written when a ``]`` closes the
    atom before any other ``[``."""
    m = _BRACKET.match(s, start)
    _, symbol, h_count, sign, charge_digits, close = m.groups()
    if symbol is None:
        raise UnknownAtomToken("unsupported element in bracket atom",
                               m.end(1) if m.end(1) < len(s) else start)
    if close is None:
        end = s.find("]", start)
        if end == -1 or "[" in s[start + 1:end]:
            raise UnknownAtomToken("unterminated bracket atom", start)
        if symbol in _ATOM_SYMBOLS:
            raise UnknownAtomToken("malformed bracket atom", start)
    if symbol not in _ATOM_SYMBOLS:
        raise UnknownAtomToken(
            f"unsupported element {symbol!r} in bracket atom", m.start(2))
    element, aromatic = _ATOM_SYMBOLS[symbol]
    charge = 0 if sign is None else (
        (1 if sign[0] == "+" else -1) * int(charge_digits or len(sign)))
    hydrogens = 0 if h_count is None else int(h_count or 1)
    return (element, aromatic, charge, hydrogens), m.end()


def parse_smiles(smiles: str) -> MolecularGraph:
    """Parse a SMILES string into a MolecularGraph.

    Atom order follows token order, so two parses of the same string yield
    identical graphs. Implicit hydrogens on plain organic-subset atoms come
    from fixed default valences; bracket atoms are taken as written.

    Each atom's bond to the atom before it builds a spanning tree, and each
    ring-closure digit adds one bond more. A bond is therefore on a ring
    exactly when it is a closure bond or on the tree path between that
    closure's two atoms, and each closure marks that path as it is made.
    """
    if not smiles:
        raise UnknownAtomToken("empty SMILES", 0)

    atoms: list[Atom] = []
    atom_offsets: list[int] = []
    atom_bracket: list[bool] = []
    depth: list[int] = []  # in the spanning tree; the first atom is its root
    parent_bond: list[int] = []  # index into bonds; unread for the root
    valence: list[int] = []  # bond valence units summed per atom
    bonds: list[Bond] = []
    bond_set: set[tuple[int, int]] = set()

    prev: int | None = None
    pending: BondOrder | None = None
    pending_offset = 0
    branch_stack: list[tuple[int | None, int]] = []
    ring_open: dict[int, tuple[int, BondOrder | None, int]] = {}

    def add_atom(element, aromatic, charge, hydrogens, bracket, offset):
        nonlocal prev, pending
        idx = len(atoms)
        atoms.append(Atom(
            element=element,
            formal_charge=charge,
            explicit_hydrogens=hydrogens,
            is_aromatic=aromatic,
        ))
        atom_offsets.append(offset)
        atom_bracket.append(bracket)
        valence.append(0)
        depth.append(0 if prev is None else depth[prev] + 1)
        parent_bond.append(len(bonds))
        if prev is not None:
            add_bond(prev, idx, pending, offset)
        pending = None
        prev = idx

    def add_bond(a, b, order, offset):
        if a == b:
            raise UnmatchedRingClosure("ring bond to the same atom", offset)
        key = (min(a, b), max(a, b))
        if key in bond_set:
            raise UnmatchedRingClosure("duplicate bond", offset)
        bond_set.add(key)
        if order is None:
            if atoms[a].is_aromatic and atoms[b].is_aromatic:
                order = BondOrder.AROMATIC
            else:
                order = BondOrder.SINGLE
        bonds.append(Bond(a, b, order))
        for end in (a, b):
            atoms[end].degree += 1
            valence[end] += order.valence_units

    def mark_ring(a, b):
        # bonds[-1] is the closure bond a-b: with the tree path from a to b
        # it forms one cycle
        bonds[-1].in_ring = atoms[a].in_ring = atoms[b].in_ring = True
        while a != b:
            if depth[a] < depth[b]:
                a, b = b, a
            tree = bonds[parent_bond[a]]
            tree.in_ring = True
            a = tree.a
            atoms[a].in_ring = True

    def close_ring(number, offset):
        nonlocal pending
        if number in ring_open:
            other, other_order, open_offset = ring_open.pop(number)
            order = pending if pending is not None else other_order
            if (pending is not None and other_order is not None
                    and pending != other_order):
                raise UnmatchedRingClosure(
                    f"conflicting bond orders for ring closure {number}", offset)
            add_bond(other, prev, order, offset)
            mark_ring(other, prev)
        else:
            ring_open[number] = (prev, pending, offset)
        pending = None

    i = 0
    n = len(smiles)
    while i < n:
        ch = smiles[i]
        if ch == "(":
            if prev is None:
                raise UnbalancedParenthesis("branch opened before any atom", i)
            branch_stack.append((prev, i))
            i += 1
        elif ch == ")":
            if not branch_stack:
                raise UnbalancedParenthesis("unmatched closing parenthesis", i)
            if pending is not None:
                raise UnknownAtomToken("dangling bond before closing parenthesis",
                                       pending_offset)
            prev, _ = branch_stack.pop()
            i += 1
        elif ch in _BOND_CHARS:
            if pending is not None:
                raise UnknownAtomToken("two consecutive bond symbols", i)
            if prev is None:
                raise UnknownAtomToken("bond symbol before any atom", i)
            pending = _BOND_CHARS[ch]
            pending_offset = i
            i += 1
        elif ch in _DIGITS:
            if prev is None:
                raise UnmatchedRingClosure("ring closure before any atom", i)
            close_ring(int(ch), i)
            i += 1
        elif ch == "%":
            if prev is None:
                raise UnmatchedRingClosure("ring closure before any atom", i)
            if not _RING.match(smiles, i):
                raise UnknownAtomToken("% ring closure needs two digits", i)
            close_ring(int(smiles[i + 1 : i + 3]), i)
            i += 3
        elif ch == "[":
            (element, aromatic, charge, hydrogens), j = _parse_bracket(smiles, i)
            add_atom(element, aromatic, charge, hydrogens, True, i)
            i = j
        elif ch in _ATOM_SYMBOLS:
            if smiles.startswith(("Cl", "Br"), i):
                ch = smiles[i : i + 2]
            element, aromatic = _ATOM_SYMBOLS[ch]
            add_atom(element, aromatic, 0, 0, False, i)
            i += len(ch)
        else:
            raise UnknownAtomToken(f"unknown token {ch!r}", i)

    if pending is not None:
        raise UnknownAtomToken("dangling bond at end of input", pending_offset)
    if branch_stack:
        raise UnbalancedParenthesis("unclosed branch", branch_stack[-1][1])
    if ring_open:
        number, (_, _, offset) = sorted(ring_open.items())[0]
        raise UnmatchedRingClosure(f"unclosed ring bond {number}", offset)

    # an explicit aromatic bond between non-aromatic atoms is malformed; an
    # unspecified aromatic-aromatic bond outside any ring is demoted to single
    # (both orders weigh one valence unit)
    for bond in bonds:
        if bond.order == BondOrder.AROMATIC:
            if not (atoms[bond.a].is_aromatic and atoms[bond.b].is_aromatic):
                raise ValenceError(
                    "aromatic bond with non-aromatic endpoint",
                    atom_offsets[bond.a])
            if not bond.in_ring:
                bond.order = BondOrder.SINGLE

    for idx, atom in enumerate(atoms):
        used = valence[idx]
        if atom.is_aromatic:
            used += 1
        if not atom_bracket[idx]:
            # aromatic atoms are exempt from the ceiling: without
            # kekulization their true bond orders are not resolved
            if not atom.is_aromatic and used > _MAX_VALENCE[atom.element]:
                raise ValenceError(
                    f"valence {used} exceeds maximum for element {atom.element}",
                    atom_offsets[idx])
            atom.explicit_hydrogens = max(0, _DEFAULT_VALENCE[atom.element] - used)
    return MolecularGraph(atoms, bonds)


# featurization vocabularies: 12 named elements plus an "other" bucket
ELEMENT_VOCAB = [5, 6, 7, 8, 9, 14, 15, 16, 17, 34, 35, 53]
_ELEMENT_INDEX = {z: i for i, z in enumerate(ELEMENT_VOCAB)}
OTHER_ELEMENT_INDEX = len(ELEMENT_VOCAB)

NODE_VOCAB_SIZES = (len(ELEMENT_VOCAB) + 1, 7, 5, 2, 2)
EDGE_VOCAB_SIZES = (4, 2)


@dataclass
class FeaturizedGraph:
    """Integer feature matrices plus a directed edge pair-list.

    Node feature columns: element index, degree (capped at 6), formal charge
    index (charge+2, clamped), aromatic flag, ring flag. Edge feature
    columns: bond order index, ring flag. Every bond appears as two directed
    rows, (a, b) then (b, a).
    """

    node_features: np.ndarray
    edge_index: np.ndarray
    edge_features: np.ndarray
    num_nodes: int


def featurize(graph: MolecularGraph) -> FeaturizedGraph:
    rows = []
    for atom in graph.atoms:
        if not isinstance(atom.element, (int, np.integer)) or not (1 <= atom.element <= 118):
            raise UnsupportedElement(f"atomic number {atom.element!r}")
        element_idx = _ELEMENT_INDEX.get(atom.element, OTHER_ELEMENT_INDEX)
        degree = min(atom.degree, 6)
        charge_idx = min(max(atom.formal_charge, -2), 2) + 2
        rows.append([element_idx, degree, charge_idx,
                     int(atom.is_aromatic), int(atom.in_ring)])
    node_features = np.asarray(rows, dtype=np.int64).reshape(len(rows), 5)

    pairs = []
    efeat = []
    for bond in graph.bonds:
        feat = [bond.order.feature_index, int(bond.in_ring)]
        pairs.append([bond.a, bond.b])
        efeat.append(feat)
        pairs.append([bond.b, bond.a])
        efeat.append(feat)
    edge_index = np.asarray(pairs, dtype=np.int64).reshape(len(pairs), 2)
    edge_features = np.asarray(efeat, dtype=np.int64).reshape(len(efeat), 2)
    return FeaturizedGraph(node_features, edge_index, edge_features, graph.num_atoms)


ScaffoldKey = str

EMPTY_SCAFFOLD_KEY: ScaffoldKey = "scaffold:empty"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def scaffold_key(graph: FeaturizedGraph) -> ScaffoldKey:
    """Deterministic identity of the molecule's Murcko scaffold.

    The scaffold is what survives repeatedly deleting non-ring atoms of
    degree <= 1: ring systems and the linkers between them; acyclic
    molecules reduce to the empty scaffold, which maps to a fixed sentinel
    key. Scaffold atom labels start from the atomic number and are refined
    once per scaffold atom over the multiset of (bond order, neighbor label)
    pairs, then hashed order-independently. Atoms in the "other" element
    bucket, which ``parse_smiles`` never produces, all share the label
    "other".
    """
    n = graph.num_nodes
    in_ring = graph.node_features[:, 4].tolist()
    neighbors: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for (a, b), order in zip(graph.edge_index.tolist(),
                             (graph.edge_features[:, 0] + 1).tolist()):
        neighbors[a].append((order, b))

    alive = [True] * n
    degree = [len(neigh) for neigh in neighbors]
    while True:
        victims = [i for i in range(n)
                   if alive[i] and not in_ring[i] and degree[i] <= 1]
        if not victims:
            break
        for v in victims:
            alive[v] = False
            for _, w in neighbors[v]:
                if alive[w]:
                    degree[w] -= 1

    kept = [i for i in range(n) if alive[i]]
    if not kept:
        return EMPTY_SCAFFOLD_KEY
    labels = {
        i: _digest("other" if e == OTHER_ELEMENT_INDEX else str(ELEMENT_VOCAB[e]))
        for i, e in zip(kept, graph.node_features[kept, 0].tolist())
    }
    for _ in range(len(kept)):
        labels = {
            i: _digest(labels[i] + "|" + ",".join(
                sorted(f"{order}:{labels[j]}"
                       for order, j in neighbors[i] if alive[j])
            ))
            for i in kept
        }
    return hashlib.sha256(";".join(sorted(labels.values())).encode("utf-8")).hexdigest()


def read_utf8(path, error: type[Exception], read):
    """``read(fh)`` of ``path`` open as UTF-8 text, less a leading
    byte-order mark, line endings untranslated (as csv needs): every text
    input's one reader. Bytes that are not UTF-8 raise ``error``, naming
    the file."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            return read(fh)
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8 text ({exc.reason})") from None


def _csv_rows(path: str) -> list[list[str]]:
    """Every row of a UTF-8 CSV file (``read_utf8``). A row the csv module
    rejects raises DatasetError."""
    def rows(fh) -> list[list[str]]:
        reader = csv.reader(fh)
        try:
            return list(reader)
        except csv.Error as exc:
            raise DatasetError(str(exc), reader.line_num) from None

    return read_utf8(path, DatasetError, rows)


@dataclass
class DatasetRecord:
    """One labeled molecule for one task."""

    smiles: str
    graph: FeaturizedGraph
    label: int
    task_id: str


SPLIT_NAMES = ("train", "valid", "test")


@dataclass
class SplitAssignment:
    """Record index to split name ('train'/'valid'/'test')."""

    splits: dict[int, str] = field(default_factory=dict)

    def indices(self, split: str) -> list[int]:
        return sorted(i for i, s in self.splits.items() if s == split)

    def select(self, records: list, split: str) -> list:
        """The records assigned to ``split``, in index order. Raises
        DatasetError if any index lies outside ``records``."""
        if self.splits and max(self.splits) >= len(records):
            raise DatasetError(
                f"split index {max(self.splits)} is outside the dataset's "
                f"{len(records)} records")
        return [records[i] for i in self.indices(split)]

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["record_index", "split"])
            for idx in sorted(self.splits):
                writer.writerow([idx, self.splits[idx]])

    @classmethod
    def read_csv(cls, path: str) -> "SplitAssignment":
        out = cls()
        # every cell stripped, as load_dataset_csv strips them
        rows = [[cell.strip() for cell in row] for row in _csv_rows(path)]
        if rows[:1] != [["record_index", "split"]]:
            raise DatasetError("expected header record_index,split", 1)
        for lineno, row in enumerate(rows[1:], start=2):
            if not any(row):
                continue
            if len(row) != 2 or row[1] not in SPLIT_NAMES:
                raise DatasetError(f"bad split row {row!r}", lineno)
            # ASCII only: str.isdecimal() also accepts digits such as "٣"
            if not (row[0].isascii() and row[0].isdecimal()):
                raise DatasetError("record_index must be a non-negative "
                                   f"integer, got {row[0]!r}", lineno)
            idx = int(row[0])
            if idx in out.splits:
                raise DatasetError(f"duplicate record_index {idx}", lineno)
            out.splits[idx] = row[1]
        return out


def stratified_scaffold_split(
    records: list[DatasetRecord],
    fractions: tuple[float, float, float],
    seed: int,
) -> SplitAssignment:
    """Scaffold-grouped split stratified by (task, label) class.

    Within each class, records group by the scaffold key of their
    featurized graph, computed here once per record; groups are ordered by (size descending,
    key ascending), equal-size runs are shuffled by the seed, and each group
    goes whole to the currently most-underfilled split, so a scaffold never
    straddles splits within one class.
    """
    if len(fractions) != 3:
        raise ValueError("fractions must be (train, valid, test)")
    total = float(sum(fractions))
    if not np.isclose(total, 1.0, atol=1e-9) or min(fractions) < 0:
        raise ValueError(f"fractions must be nonnegative and sum to 1, got {fractions}")

    classes: dict[tuple[str, int], list[int]] = {}
    for idx, rec in enumerate(records):
        classes.setdefault((rec.task_id, rec.label), []).append(idx)
    for task_id in sorted({task_id for task_id, _ in classes}):
        for lab in (0, 1):
            if (task_id, lab) not in classes:
                raise EmptyClass(f"task {task_id!r} has no records with label {lab}")

    rng = np.random.default_rng(seed)
    assignment = SplitAssignment()
    for class_key in sorted(classes):
        members = classes[class_key]
        groups: dict[str, list[int]] = {}
        for idx in members:
            groups.setdefault(scaffold_key(records[idx].graph), []).append(idx)
        ordered = sorted(groups.items(), key=lambda kv: (-len(kv[1]), kv[0]))

        shuffled: list[tuple[str, list[int]]] = []
        for _, run in itertools.groupby(ordered, key=lambda kv: len(kv[1])):
            run = list(run)
            shuffled.extend(run[p] for p in rng.permutation(len(run)))

        targets = [frac * len(members) for frac in fractions]
        counts = [0, 0, 0]
        for _, idxs in shuffled:
            deficits = [targets[s] - counts[s] for s in range(3)]
            best = max(range(3), key=lambda s: (deficits[s], -s))
            for idx in idxs:
                assignment.splits[idx] = SPLIT_NAMES[best]
            counts[best] += len(idxs)
    return assignment


def load_dataset_csv(path: str) -> list[DatasetRecord]:
    """Read a ``smiles,label,task_id`` CSV into featurized records.

    Any parse or featurization failure is re-raised as DatasetError naming
    the 1-based file row.
    """
    records: list[DatasetRecord] = []
    rows = _csv_rows(path)
    if not rows or [h.strip() for h in rows[0]] != ["smiles", "label", "task_id"]:
        raise DatasetError("expected header smiles,label,task_id", 1)
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != 3:
            raise DatasetError(f"expected 3 columns, got {len(row)}", lineno)
        smiles, label_text, task_id = (cell.strip() for cell in row)
        if label_text not in ("0", "1"):
            raise DatasetError(f"label must be 0 or 1, got {label_text!r}", lineno)
        try:
            graph = featurize(parse_smiles(smiles))
        except (SmilesError, UnsupportedElement) as exc:
            raise DatasetError(f"{smiles!r}: {exc}", lineno) from exc
        records.append(DatasetRecord(smiles=smiles, graph=graph,
                                     label=int(label_text), task_id=task_id))
    return records


def write_dataset_csv(path: str, rows: list[tuple[str, int, str]]) -> None:
    """Write (smiles, label, task_id) rows with the canonical header."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["smiles", "label", "task_id"])
        for smiles, label, task_id in rows:
            writer.writerow([smiles, label, task_id])
