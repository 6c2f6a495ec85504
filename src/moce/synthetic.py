"""Seeded synthetic molecule corpus with planted substructure labels.

Molecules are assembled from a pool of small valid fragments whose first
and last atoms are always carbons with spare valence, so fragments can be
chained into one longer SMILES string. Labels come from structural rules
(carbonyl group present, aromatic ring present) checked on the parsed
graph, not assumed from construction. Positives for a rule draw at least
one fragment carrying the motif; negatives draw only from pools without
it, which leaves the other rule's motif available as a distractor.
"""

from __future__ import annotations

import numpy as np

from .molgraph import (
    BondOrder,
    DatasetRecord,
    MolecularGraph,
    featurize,
    parse_smiles,
)


def has_carbonyl(graph: MolecularGraph) -> bool:
    """True when some C=O double bond exists (aromatic bonds excluded)."""
    for bond in graph.bonds:
        if bond.order is not BondOrder.DOUBLE:
            continue
        pair = {graph.atoms[bond.a].element, graph.atoms[bond.b].element}
        if pair == {6, 8}:
            return True
    return False


def has_aromatic_ring(graph: MolecularGraph) -> bool:
    return any(atom.is_aromatic for atom in graph.atoms)


RULES = {
    "carbonyl": has_carbonyl,
    "aromatic_ring": has_aromatic_ring,
}

# every fragment starts and ends on a carbon that tolerates one more bond
PLAIN_FRAGMENTS = [
    "CC", "CCC", "CCCC", "CC(C)C", "CCOC", "CCNC", "C1CCCC1", "C1CCCCC1",
    "CC(O)C", "CCSC",
]
CARBONYL_FRAGMENTS = [
    "CC(=O)C", "CC(=O)OC", "CC(=O)NC", "CC(C)C(=O)C", "CCC(=O)C",
]
AROMATIC_FRAGMENTS = [
    "c1ccccc1", "Cc1ccccc1", "c1ccncc1", "c1ccc(F)cc1", "c1ccsc1",
    "Cc1ccoc1",
]

_POOLS = {
    "plain": PLAIN_FRAGMENTS,
    "carbonyl": CARBONYL_FRAGMENTS,
    "aromatic_ring": AROMATIC_FRAGMENTS,
}


def _assemble(rng: np.random.Generator, motif: str | None,
              distractors: list[str]) -> str:
    """Chain 1-3 fragments; exactly the pools in ``distractors`` plus, for a
    positive, one fragment carrying ``motif`` somewhere in the chain."""
    count = int(rng.integers(1, 4))
    names = [str(rng.choice(distractors)) for _ in range(count)]
    pieces = [str(rng.choice(_POOLS[name])) for name in names]
    if motif is not None:
        slot = int(rng.integers(0, count + 1))
        pieces.insert(slot, str(rng.choice(_POOLS[motif])))
    return "".join(pieces)


def synthesize_task(rng: np.random.Generator, task_id: str, rule_name: str,
                    count: int) -> list[DatasetRecord]:
    """Balanced labeled records for one task; labels verified on the graph."""
    if rule_name not in RULES:
        raise ValueError(f"unknown labeling rule {rule_name!r}; "
                         f"choose from {sorted(RULES)}")
    rule = RULES[rule_name]
    distractors = ["plain"] + [name for name in RULES if name != rule_name]
    records = []
    for i in range(count):
        positive = i % 2 == 0
        smiles = _assemble(rng, rule_name if positive else None, distractors)
        mol = parse_smiles(smiles)
        label = int(rule(mol))
        if label != int(positive):
            raise AssertionError(
                f"construction produced wrong label for {smiles!r}")
        records.append(DatasetRecord(
            smiles=smiles,
            graph=featurize(mol),
            label=label,
            task_id=task_id,
        ))
    return records


def synthesize_dataset(seed: int, tasks: dict[str, str],
                       per_task: int) -> list[DatasetRecord]:
    """Multi-task corpus: ``tasks`` maps task_id -> labeling rule name.

    Each task gets ``per_task`` records, half positive. Deterministic in
    (seed, tasks, per_task); task order follows sorted task ids.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    records: list[DatasetRecord] = []
    for task_id in sorted(tasks):
        records.extend(synthesize_task(rng, task_id, tasks[task_id], per_task))
    perm = rng.permutation(len(records))
    return [records[i] for i in perm]
