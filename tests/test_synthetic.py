"""Synthetic corpus: validity, balance, determinism, planted labels."""

import numpy as np
import pytest

from moce.molgraph import parse_smiles, scaffold_key
from moce.synthetic import (
    AROMATIC_FRAGMENTS,
    CARBONYL_FRAGMENTS,
    PLAIN_FRAGMENTS,
    has_aromatic_ring,
    has_carbonyl,
    synthesize_dataset,
    synthesize_task,
)


class TestRules:
    def test_carbonyl_detection(self):
        assert has_carbonyl(parse_smiles("CC(=O)C"))
        assert has_carbonyl(parse_smiles("CC=O"))
        assert not has_carbonyl(parse_smiles("CCO"))
        assert not has_carbonyl(parse_smiles("C=C"))
        # aromatic C-O bonds are not carbonyls
        assert not has_carbonyl(parse_smiles("c1ccoc1"))

    def test_aromatic_detection(self):
        assert has_aromatic_ring(parse_smiles("c1ccccc1"))
        assert has_aromatic_ring(parse_smiles("Cc1ccoc1"))
        assert not has_aromatic_ring(parse_smiles("C1CCCCC1"))


class TestFragmentPools:
    def test_every_fragment_parses(self):
        for frag in PLAIN_FRAGMENTS + CARBONYL_FRAGMENTS + AROMATIC_FRAGMENTS:
            parse_smiles(frag)

    def test_pool_motifs_are_exclusive(self):
        for frag in PLAIN_FRAGMENTS:
            mol = parse_smiles(frag)
            assert not has_carbonyl(mol) and not has_aromatic_ring(mol)
        for frag in CARBONYL_FRAGMENTS:
            mol = parse_smiles(frag)
            assert has_carbonyl(mol) and not has_aromatic_ring(mol)
        for frag in AROMATIC_FRAGMENTS:
            mol = parse_smiles(frag)
            assert has_aromatic_ring(mol) and not has_carbonyl(mol)

    def test_all_fragment_pairs_concatenate_validly(self):
        pools = PLAIN_FRAGMENTS + CARBONYL_FRAGMENTS + AROMATIC_FRAGMENTS
        for a in pools:
            for b in pools:
                parse_smiles(a + b)


class TestSynthesis:
    def test_balanced_two_task_corpus(self):
        recs = synthesize_dataset(7, {"A": "carbonyl", "B": "aromatic_ring"}, 100)
        assert len(recs) == 200
        for task, label in (("A", 0), ("A", 1), ("B", 0), ("B", 1)):
            count = sum(1 for r in recs
                        if r.task_id == task and r.label == label)
            assert count == 50

    def test_labels_match_rules(self):
        recs = synthesize_dataset(3, {"A": "carbonyl", "B": "aromatic_ring"}, 60)
        for r in recs:
            mol = parse_smiles(r.smiles)
            rule = has_carbonyl if r.task_id == "A" else has_aromatic_ring
            assert int(rule(mol)) == r.label, r.smiles

    def test_deterministic_per_seed(self):
        a = synthesize_dataset(5, {"A": "carbonyl"}, 40)
        b = synthesize_dataset(5, {"A": "carbonyl"}, 40)
        c = synthesize_dataset(6, {"A": "carbonyl"}, 40)
        assert [r.smiles for r in a] == [r.smiles for r in b]
        assert [r.smiles for r in a] != [r.smiles for r in c]

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError, match="labeling rule"):
            synthesize_task(np.random.default_rng(0), "X", "chirality", 10)

    def test_records_are_featurized_with_scaffolds(self):
        recs = synthesize_dataset(8, {"A": "carbonyl"}, 20)
        for r in recs:
            assert r.graph.num_nodes > 0
        keys = {scaffold_key(r.graph) for r in recs}
        assert len(keys) > 1

    def test_negatives_carry_the_other_motif_as_distractor(self):
        recs = synthesize_dataset(7, {"A": "carbonyl", "B": "aromatic_ring"}, 100)
        a_negatives = [r for r in recs if r.task_id == "A" and r.label == 0]
        b_negatives = [r for r in recs if r.task_id == "B" and r.label == 0]
        assert any(has_aromatic_ring(parse_smiles(r.smiles)) for r in a_negatives)
        assert any(has_carbonyl(parse_smiles(r.smiles)) for r in b_negatives)

    def test_same_rule_under_two_task_ids(self):
        # task B can reuse task A's rule, which the masked-task check needs
        recs = synthesize_dataset(9, {"A": "carbonyl", "B": "carbonyl"}, 30)
        for r in recs:
            assert int(has_carbonyl(parse_smiles(r.smiles))) == r.label
