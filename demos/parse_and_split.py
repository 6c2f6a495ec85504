"""Walk through SMILES parsing, scaffold keys, and a stratified split.

Parses a few molecules by hand to show what the graph looks like and the
Murcko scaffold key of each featurized graph (an acyclic molecule has the
empty scaffold; toluene shares benzene's key), then builds a synthetic
two-task corpus and splits it so scaffold groups never straddle the
train/test boundary within a label class.
"""

from collections import Counter, defaultdict

from moce.molgraph import (featurize, parse_smiles, scaffold_key,
                           stratified_scaffold_split)
from moce.synthetic import synthesize_dataset

SYMBOLS = {5: "B", 6: "C", 7: "N", 8: "O", 9: "F", 15: "P", 16: "S",
           17: "Cl", 35: "Br", 53: "I"}


def describe(smiles: str) -> None:
    mol = parse_smiles(smiles)
    atoms = " ".join(
        SYMBOLS.get(a.element, str(a.element)) + ("*" if a.is_aromatic else "")
        for a in mol.atoms)
    print(f"{smiles:>14}: {mol.num_atoms} atoms [{atoms}], "
          f"{len(mol.bonds)} bonds, "
          f"scaffold key {scaffold_key(featurize(mol))[:16]}")


def main() -> None:
    print("-- parsing --")
    for smiles in ("CCO", "CC(=O)O", "c1ccccc1", "c1ccc2ccccc2c1",
                   "CC(N)Cc1ccccc1", "Cc1ccccc1"):
        describe(smiles)

    print()
    print("-- splitting a 2-task corpus --")
    records = synthesize_dataset(
        seed=3, tasks={"A": "carbonyl", "B": "aromatic_ring"}, per_task=100)
    assignment = stratified_scaffold_split(records, (0.8, 0.0, 0.2), seed=1)

    by_class = defaultdict(Counter)
    for idx, record in enumerate(records):
        by_class[(record.task_id, record.label)][assignment.splits[idx]] += 1
    for (task_id, label), counts in sorted(by_class.items()):
        print(f"task {task_id} label {label}: "
              f"train={counts['train']:3d} test={counts['test']:3d}")

    straddles = 0
    groups = defaultdict(set)
    for idx, record in enumerate(records):
        key = scaffold_key(record.graph)
        groups[(record.task_id, record.label, key)].add(assignment.splits[idx])
    straddles = sum(1 for dests in groups.values() if len(dests) > 1)
    print(f"{len(groups)} scaffold groups, {straddles} straddle a boundary")


if __name__ == "__main__":
    main()
