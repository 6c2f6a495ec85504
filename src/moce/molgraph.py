"""SMILES parsing, molecular graphs, featurization, and scaffold splits.

The parser covers the organic subset (B, C, N, O, P, S, F, Cl, Br, I and
the aromatic forms b, c, n, o, p, s), bracket atoms with charge and explicit
hydrogen counts, ring closures 1-9 and %nn, branches, and the bond symbols
- = # :. Stereo markers (/ \\ @) and isotopes are accepted and ignored.
Every parse error carries the byte offset of the offending token.
"""

from __future__ import annotations

import csv
import hashlib
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
    """A dataset file row failed to load; ``row`` is the 1-based line."""

    def __init__(self, message: str, row: int):
        super().__init__(f"row {row}: {message}")
        self.row = row


class BondOrder(IntEnum):
    SINGLE = 1
    DOUBLE = 2
    TRIPLE = 3
    AROMATIC = 4

    @property
    def valence_units(self) -> int:
        # an aromatic bond contributes one unit; the aromatic atom itself
        # contributes one more (handled at the atom level)
        return {1: 1, 2: 2, 3: 3, 4: 1}[int(self)]

    @property
    def feature_index(self) -> int:
        return int(self) - 1


_SYMBOL_TO_ELEMENT = {
    "B": 5, "C": 6, "N": 7, "O": 8, "P": 15, "S": 16,
    "F": 9, "Cl": 17, "Br": 35, "I": 53,
}
_AROMATIC_SYMBOLS = {"b": 5, "c": 6, "n": 7, "o": 8, "p": 15, "s": 16}

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

    def neighbor_lists(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in self.atoms]
        for bond in self.bonds:
            adj[bond.a].append(bond.b)
            adj[bond.b].append(bond.a)
        return adj


def _parse_bracket(s: str, start: int):
    """Parse a bracket atom starting at '['; returns (info, next_index)."""
    i = start + 1
    n = len(s)
    while i < n and s[i].isdigit():  # isotope, ignored
        i += 1
    element = None
    aromatic = False
    for two in ("Cl", "Br"):
        if s.startswith(two, i):
            element = _SYMBOL_TO_ELEMENT[two]
            i += 2
            break
    if element is None and i < n:
        ch = s[i]
        if ch in _SYMBOL_TO_ELEMENT:
            element = _SYMBOL_TO_ELEMENT[ch]
            i += 1
        elif ch in _AROMATIC_SYMBOLS:
            element = _AROMATIC_SYMBOLS[ch]
            aromatic = True
            i += 1
    if element is None:
        raise UnknownAtomToken("unsupported element in bracket atom", i if i < n else start)
    while i < n and s[i] == "@":  # chirality, ignored
        i += 1
    hydrogens = 0
    if i < n and s[i] == "H":
        i += 1
        digits = ""
        while i < n and s[i].isdigit():
            digits += s[i]
            i += 1
        hydrogens = int(digits) if digits else 1
    charge = 0
    if i < n and s[i] in "+-":
        sign = 1 if s[i] == "+" else -1
        symbol = s[i]
        count = 0
        while i < n and s[i] == symbol:
            count += 1
            i += 1
        digits = ""
        while i < n and s[i].isdigit():
            digits += s[i]
            i += 1
        charge = sign * (int(digits) if digits else count)
    if i >= n or s[i] != "]":
        raise UnknownAtomToken("unterminated bracket atom", start)
    return (element, aromatic, charge, hydrogens), i + 1


def parse_smiles(smiles: str) -> MolecularGraph:
    """Parse a SMILES string into a MolecularGraph.

    Atom order follows token order, so two parses of the same string yield
    identical graphs. Implicit hydrogens on plain organic-subset atoms come
    from fixed default valences; bracket atoms are taken as written.
    """
    if not smiles:
        raise UnknownAtomToken("empty SMILES", 0)

    atoms: list[Atom] = []
    atom_offsets: list[int] = []
    atom_bracket: list[bool] = []
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
        elif ch.isdigit():
            if prev is None:
                raise UnmatchedRingClosure("ring closure before any atom", i)
            close_ring(int(ch), i)
            i += 1
        elif ch == "%":
            if prev is None:
                raise UnmatchedRingClosure("ring closure before any atom", i)
            if i + 2 >= n or not (smiles[i + 1].isdigit() and smiles[i + 2].isdigit()):
                raise UnknownAtomToken("%% ring closure needs two digits", i)
            close_ring(int(smiles[i + 1 : i + 3]), i)
            i += 3
        elif ch == "[":
            (element, aromatic, charge, hydrogens), j = _parse_bracket(smiles, i)
            add_atom(element, aromatic, charge, hydrogens, True, i)
            i = j
        elif smiles.startswith("Cl", i) or smiles.startswith("Br", i):
            symbol = smiles[i : i + 2]
            add_atom(_SYMBOL_TO_ELEMENT[symbol], False, 0, 0, False, i)
            i += 2
        elif ch in _SYMBOL_TO_ELEMENT:
            add_atom(_SYMBOL_TO_ELEMENT[ch], False, 0, 0, False, i)
            i += 1
        elif ch in _AROMATIC_SYMBOLS:
            add_atom(_AROMATIC_SYMBOLS[ch], True, 0, 0, False, i)
            i += 1
        else:
            raise UnknownAtomToken(f"unknown token {ch!r}", i)

    if pending is not None:
        raise UnknownAtomToken("dangling bond at end of input", pending_offset)
    if branch_stack:
        raise UnbalancedParenthesis("unclosed branch", branch_stack[-1][1])
    if ring_open:
        number, (_, _, offset) = sorted(ring_open.items())[0]
        raise UnmatchedRingClosure(f"unclosed ring bond {number}", offset)

    graph = MolecularGraph(atoms, bonds)
    _mark_rings(graph)

    # an explicit aromatic bond between non-aromatic atoms is malformed; an
    # unspecified aromatic-aromatic bond outside any ring is demoted to single
    for bond in graph.bonds:
        if bond.order == BondOrder.AROMATIC:
            a, b = graph.atoms[bond.a], graph.atoms[bond.b]
            if not (a.is_aromatic and b.is_aromatic):
                raise ValenceError(
                    "aromatic bond with non-aromatic endpoint",
                    atom_offsets[bond.a])
            if not bond.in_ring:
                bond.order = BondOrder.SINGLE

    counts = [0] * len(atoms)
    for bond in graph.bonds:
        counts[bond.a] += 1
        counts[bond.b] += 1
    for idx, atom in enumerate(graph.atoms):
        atom.degree = counts[idx]

    for idx, atom in enumerate(graph.atoms):
        used = sum(b.order.valence_units for b in graph.bonds
                   if b.a == idx or b.b == idx)
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
    return graph


def _mark_rings(graph: MolecularGraph) -> None:
    """Set in_ring on bonds (non-bridges) and atoms (touching a ring bond)."""
    n = graph.num_atoms
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for bi, bond in enumerate(graph.bonds):
        adj[bond.a].append((bond.b, bi))
        adj[bond.b].append((bond.a, bi))

    disc = [-1] * n
    low = [0] * n
    is_bridge = [False] * len(graph.bonds)
    timer = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        # iterative DFS; each stack frame is (vertex, parent edge, child iter)
        stack = [(root, -1, iter(adj[root]))]
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            v, parent_edge, children = stack[-1]
            advanced = False
            for w, edge in children:
                if edge == parent_edge:
                    continue
                if disc[w] == -1:
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, edge, iter(adj[w])))
                    advanced = True
                    break
                low[v] = min(low[v], disc[w])
            if not advanced:
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    low[u] = min(low[u], low[v])
                    if low[v] > disc[u]:
                        is_bridge[parent_edge] = True

    for bi, bond in enumerate(graph.bonds):
        bond.in_ring = not is_bridge[bi]
    for atom in graph.atoms:
        atom.in_ring = False
    for bond in graph.bonds:
        if bond.in_ring:
            graph.atoms[bond.a].in_ring = True
            graph.atoms[bond.b].in_ring = True


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


def murcko_scaffold(graph: MolecularGraph) -> MolecularGraph:
    """Iteratively delete non-ring atoms of degree <= 1 until fixpoint.

    Ring systems and the linkers between them survive; acyclic molecules
    reduce to the empty scaffold.
    """
    alive = [True] * graph.num_atoms
    adj = graph.neighbor_lists()
    degree = [len(neigh) for neigh in adj]
    while True:
        victims = [i for i in range(graph.num_atoms)
                   if alive[i] and not graph.atoms[i].in_ring and degree[i] <= 1]
        if not victims:
            break
        for v in victims:
            alive[v] = False
            for w in adj[v]:
                if alive[w]:
                    degree[w] -= 1
            degree[v] = 0

    remap = {}
    atoms = []
    for i, atom in enumerate(graph.atoms):
        if alive[i]:
            remap[i] = len(atoms)
            atoms.append(Atom(
                element=atom.element,
                formal_charge=atom.formal_charge,
                explicit_hydrogens=atom.explicit_hydrogens,
                is_aromatic=atom.is_aromatic,
                in_ring=atom.in_ring,
            ))
    bonds = []
    for bond in graph.bonds:
        if alive[bond.a] and alive[bond.b]:
            bonds.append(Bond(remap[bond.a], remap[bond.b], bond.order, bond.in_ring))
    counts = [0] * len(atoms)
    for bond in bonds:
        counts[bond.a] += 1
        counts[bond.b] += 1
    for idx, atom in enumerate(atoms):
        atom.degree = counts[idx]
    return MolecularGraph(atoms, bonds)


ScaffoldKey = str

EMPTY_SCAFFOLD_KEY: ScaffoldKey = "scaffold:empty"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def scaffold_key(scaffold: MolecularGraph) -> ScaffoldKey:
    """Deterministic scaffold identity via iterated neighborhood refinement.

    Atom labels start from the element and are refined for at least
    num_atoms rounds over the multiset of (bond order, neighbor label)
    pairs, then hashed order-independently. The empty scaffold maps to a
    fixed sentinel key.
    """
    n = scaffold.num_atoms
    if n == 0:
        return EMPTY_SCAFFOLD_KEY
    neighbors: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for bond in scaffold.bonds:
        neighbors[bond.a].append((int(bond.order), bond.b))
        neighbors[bond.b].append((int(bond.order), bond.a))
    labels = [_digest(str(atom.element)) for atom in scaffold.atoms]
    for _ in range(n):
        labels = [
            _digest(labels[i] + "|" + ",".join(
                sorted(f"{order}:{labels[j]}" for order, j in neighbors[i])
            ))
            for i in range(n)
        ]
    return hashlib.sha256(";".join(sorted(labels)).encode("utf-8")).hexdigest()


@dataclass
class DatasetRecord:
    """One labeled molecule for one task."""

    smiles: str
    graph: FeaturizedGraph
    label: int
    task_id: str
    scaffold: ScaffoldKey = ""


@dataclass
class SplitAssignment:
    """Record index to split name ('train'/'valid'/'test')."""

    splits: dict[int, str] = field(default_factory=dict)

    def indices(self, split: str) -> list[int]:
        return sorted(i for i, s in self.splits.items() if s == split)

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["record_index", "split"])
            for idx in sorted(self.splits):
                writer.writerow([idx, self.splits[idx]])

    @classmethod
    def read_csv(cls, path: str) -> "SplitAssignment":
        out = cls()
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != ["record_index", "split"]:
                raise DatasetError("expected header record_index,split", 1)
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 2 or row[1] not in ("train", "valid", "test"):
                    raise DatasetError(f"bad split row {row!r}", lineno)
                out.splits[int(row[0])] = row[1]
        return out


SPLIT_NAMES = ("train", "valid", "test")


def stratified_scaffold_split(
    records: list[DatasetRecord],
    fractions: tuple[float, float, float],
    seed: int,
) -> SplitAssignment:
    """Scaffold-grouped split stratified by (task, label) class.

    Within each class, records group by scaffold key; groups are ordered by
    (size descending, key ascending), equal-size runs are shuffled by the
    seed, and each group goes whole to the currently most-underfilled split,
    so a scaffold never straddles splits within one class.
    """
    if len(fractions) != 3:
        raise ValueError("fractions must be (train, valid, test)")
    total = float(sum(fractions))
    if not np.isclose(total, 1.0, atol=1e-9) or min(fractions) < 0:
        raise ValueError(f"fractions must be nonnegative and sum to 1, got {fractions}")

    by_task: dict[str, set[int]] = {}
    for rec in records:
        by_task.setdefault(rec.task_id, set()).add(rec.label)
    for task_id, labels in sorted(by_task.items()):
        for lab in (0, 1):
            if lab not in labels:
                raise EmptyClass(f"task {task_id!r} has no records with label {lab}")

    classes: dict[tuple[str, int], list[int]] = {}
    for idx, rec in enumerate(records):
        classes.setdefault((rec.task_id, rec.label), []).append(idx)

    rng = np.random.default_rng(seed)
    assignment = SplitAssignment()
    for class_key in sorted(classes):
        members = classes[class_key]
        groups: dict[str, list[int]] = {}
        for idx in members:
            groups.setdefault(records[idx].scaffold, []).append(idx)
        ordered = sorted(groups.items(), key=lambda kv: (-len(kv[1]), kv[0]))

        shuffled: list[tuple[str, list[int]]] = []
        i = 0
        while i < len(ordered):
            j = i
            size = len(ordered[i][1])
            while j < len(ordered) and len(ordered[j][1]) == size:
                j += 1
            run = ordered[i:j]
            for p in rng.permutation(j - i):
                shuffled.append(run[p])
            i = j

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
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["smiles", "label", "task_id"]:
            raise DatasetError("expected header smiles,label,task_id", 1)
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != 3:
                raise DatasetError(f"expected 3 columns, got {len(row)}", lineno)
            smiles, label_text, task_id = (cell.strip() for cell in row)
            if label_text not in ("0", "1"):
                raise DatasetError(f"label must be 0 or 1, got {label_text!r}", lineno)
            try:
                mol = parse_smiles(smiles)
                graph = featurize(mol)
                key = scaffold_key(murcko_scaffold(mol))
            except (SmilesError, UnsupportedElement) as exc:
                raise DatasetError(f"{smiles!r}: {exc}", lineno) from exc
            records.append(DatasetRecord(
                smiles=smiles, graph=graph, label=int(label_text),
                task_id=task_id, scaffold=key,
            ))
    return records


def write_dataset_csv(path: str, rows: list[tuple[str, int, str]]) -> None:
    """Write (smiles, label, task_id) rows with the canonical header."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["smiles", "label", "task_id"])
        for smiles, label, task_id in rows:
            writer.writerow([smiles, label, task_id])
