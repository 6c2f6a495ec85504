"""Seeded multi-task SMILES corpus with planted-motif labels.

Each molecule is a chain of small fragments with an exact heavy-atom count
drawn from the workload's range. A positive record for a task carries one
fragment with that task's motif; the rest of it, and all of a negative
record, comes from plain fragments that carry no task's motif. Labels
therefore follow from construction alone.
"""

from __future__ import annotations

import csv

import numpy as np

# (SMILES fragment, heavy atoms). Every fragment starts and ends on an atom
# that takes one more single bond, so fragments chain into a valid SMILES.
PLAIN = [("C", 1), ("CC", 2), ("C(C)", 2), ("O", 1), ("N", 1), ("S", 1),
         ("C(C)(C)", 3), ("C1CCCC1", 5), ("C1CCNCC1", 6), ("CCO", 3)]
MOTIFS = {
    "carbonyl": [("C(=O)", 2), ("C(=O)O", 3), ("C(=O)N", 3), ("CC(=O)C", 4)],
    "aromatic": [("c1ccccc1", 6), ("c1ccncc1", 6), ("c1ccsc1", 5),
                 ("c1cc(C)ccc1", 7)],
    "halogen": [("C(F)", 2), ("C(Cl)", 2), ("C(Br)", 2), ("C(F)(F)", 3)],
}
TASKS = tuple(sorted(MOTIFS))


def _molecule(rng: np.random.Generator, task: str, positive: bool,
              atoms: int) -> str:
    """One SMILES with exactly ``atoms`` heavy atoms."""
    pieces = []
    budget = atoms
    if positive:
        motif = MOTIFS[task][int(rng.integers(len(MOTIFS[task])))]
        pieces.append(motif)
        budget -= motif[1]
    while budget > 0:
        fits = [f for f in PLAIN if f[1] <= budget]
        piece = fits[int(rng.integers(len(fits)))]
        pieces.append(piece)
        budget -= piece[1]
    return "".join(pieces[i][0] for i in rng.permutation(len(pieces)))


def generate(seed: int, atoms: tuple[int, int],
             per_task: int) -> list[tuple[str, int, str]]:
    """Balanced ``(smiles, label, task_id)`` rows, deterministic in the
    arguments; molecule sizes are uniform over the inclusive range."""
    lo, hi = atoms
    if not 1 <= lo <= hi:
        raise ValueError(f"bad atom range {atoms}")
    if lo < max(f[1] for frags in MOTIFS.values() for f in frags):
        raise ValueError(f"atom range {atoms} cannot hold every motif")
    rng = np.random.Generator(np.random.PCG64(seed))
    rows = []
    for task in TASKS:
        for i in range(per_task):
            label = i % 2
            size = int(rng.integers(lo, hi + 1))
            rows.append((_molecule(rng, task, bool(label), size), label, task))
    return [rows[i] for i in rng.permutation(len(rows))]


def write_csv(path, rows: list[tuple[str, int, str]]) -> None:
    """Dataset CSV in the program's ``smiles,label,task_id`` format."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["smiles", "label", "task_id"])
        writer.writerows(rows)
