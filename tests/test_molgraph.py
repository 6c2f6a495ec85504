"""Tests for SMILES parsing, featurization, scaffolds, and the split."""

import numpy as np
import pytest

from moce.molgraph import (
    EMPTY_SCAFFOLD_KEY,
    Atom,
    Bond,
    BondOrder,
    DatasetError,
    DatasetRecord,
    EmptyClass,
    MolecularGraph,
    SmilesError,
    UnbalancedParenthesis,
    UnknownAtomToken,
    UnmatchedRingClosure,
    ValenceError,
    NODE_VOCAB_SIZES,
    EDGE_VOCAB_SIZES,
    featurize,
    load_dataset_csv,
    parse_smiles,
    scaffold_key,
    stratified_scaffold_split,
    SplitAssignment,
    write_dataset_csv,
)


class TestParser:
    def test_methane(self):
        g = parse_smiles("C")
        assert g.num_atoms == 1 and not g.bonds
        atom = g.atoms[0]
        assert atom.element == 6
        assert atom.explicit_hydrogens == 4
        assert atom.degree == 0

    def test_ethanol_chain(self):
        g = parse_smiles("CCO")
        assert g.num_atoms == 3 and len(g.bonds) == 2
        assert [a.explicit_hydrogens for a in g.atoms] == [3, 2, 1]
        assert all(b.order == BondOrder.SINGLE for b in g.bonds)

    def test_benzene(self):
        """c1ccccc1: 6 aromatic carbons, 6 aromatic ring bonds, 1 H each.

        Counts frozen from an offline cross-check with an established
        cheminformatics toolkit.
        """
        g = parse_smiles("c1ccccc1")
        assert g.num_atoms == 6 and len(g.bonds) == 6
        assert all(a.is_aromatic and a.in_ring for a in g.atoms)
        assert all(b.order == BondOrder.AROMATIC and b.in_ring for b in g.bonds)
        assert all(a.explicit_hydrogens == 1 for a in g.atoms)
        assert all(a.degree == 2 for a in g.atoms)

    def test_carbonyl_bond_order(self):
        g = parse_smiles("C=O")
        assert g.bonds[0].order == BondOrder.DOUBLE
        assert g.atoms[0].explicit_hydrogens == 2
        assert g.atoms[1].explicit_hydrogens == 0

    def test_acetic_acid_hydrogens(self):
        g = parse_smiles("CC(=O)O")
        assert [a.explicit_hydrogens for a in g.atoms] == [3, 0, 0, 1]

    def test_triple_bond(self):
        g = parse_smiles("C#N")
        assert g.bonds[0].order == BondOrder.TRIPLE
        assert g.atoms[0].explicit_hydrogens == 1
        assert g.atoms[1].explicit_hydrogens == 0

    def test_bracket_ammonium(self):
        g = parse_smiles("[NH4+]")
        atom = g.atoms[0]
        assert atom.formal_charge == 1
        assert atom.explicit_hydrogens == 4

    def test_bracket_charges(self):
        assert parse_smiles("[O-]").atoms[0].formal_charge == -1
        assert parse_smiles("[N++]").atoms[0].formal_charge == 2
        assert parse_smiles("[N+2]").atoms[0].formal_charge == 2

    def test_isotope_and_stereo_ignored(self):
        g = parse_smiles("[13C]")
        assert g.atoms[0].element == 6
        g = parse_smiles("F/C=C/F")
        assert g.num_atoms == 4
        assert g.bonds[1].order == BondOrder.DOUBLE

    def test_pyridine_vs_pyrrole_nitrogens(self):
        pyridine = parse_smiles("c1ccncc1")
        n_atom = [a for a in pyridine.atoms if a.element == 7][0]
        assert n_atom.explicit_hydrogens == 0
        pyrrole = parse_smiles("c1cc[nH]c1")
        n_atom = [a for a in pyrrole.atoms if a.element == 7][0]
        assert n_atom.explicit_hydrogens == 1

    def test_furan_parses(self):
        g = parse_smiles("c1ccoc1")
        o_atom = [a for a in g.atoms if a.element == 8][0]
        assert o_atom.is_aromatic and o_atom.explicit_hydrogens == 0

    def test_two_letter_elements(self):
        g = parse_smiles("ClCBr")
        assert [a.element for a in g.atoms] == [17, 6, 35]
        assert g.atoms[1].explicit_hydrogens == 2

    def test_percent_ring_closure(self):
        g = parse_smiles("C%12CCCCC%12")
        assert g.num_atoms == 6 and len(g.bonds) == 6
        assert all(a.in_ring for a in g.atoms)

    def test_ring_closure_bond_order(self):
        g = parse_smiles("C=1CCCCC=1")
        ring_bond = g.bonds[-1]
        assert ring_bond.order == BondOrder.DOUBLE
        g = parse_smiles("C1CCCCC=1")
        assert g.bonds[-1].order == BondOrder.DOUBLE

    def test_branching(self):
        g = parse_smiles("CC(C)(C)C")
        center = g.atoms[1]
        assert center.degree == 4 and center.explicit_hydrogens == 0

    def test_biphenyl_bridge_is_single(self):
        g = parse_smiles("c1ccccc1c1ccccc1")
        bridges = [b for b in g.bonds if not b.in_ring]
        assert len(bridges) == 1
        assert bridges[0].order == BondOrder.SINGLE

    def test_aromatic_bonds_have_aromatic_endpoints(self):
        for smiles in ("c1ccccc1", "c1ccncc1", "c1ccc2ccccc2c1"):
            g = parse_smiles(smiles)
            for b in g.bonds:
                if b.order == BondOrder.AROMATIC:
                    assert g.atoms[b.a].is_aromatic and g.atoms[b.b].is_aromatic

    def test_parse_is_deterministic(self):
        a = parse_smiles("CC(=O)Oc1ccccc1C(=O)O")
        b = parse_smiles("CC(=O)Oc1ccccc1C(=O)O")
        assert [vars(x) for x in a.atoms] == [vars(x) for x in b.atoms]
        assert [(x.a, x.b, x.order, x.in_ring) for x in a.bonds] == [
            (x.a, x.b, x.order, x.in_ring) for x in b.bonds
        ]

    def test_degree_sum_is_twice_bond_count(self):
        samples = [
            "C", "CCO", "c1ccccc1", "CC(=O)O", "C1CC1", "c1ccc2ccccc2c1",
            "CC(C)Cc1ccc(C)cc1", "O=C(O)c1ccccc1", "C#CC", "CN1CCCC1",
        ]
        for smiles in samples:
            g = parse_smiles(smiles)
            assert sum(a.degree for a in g.atoms) == 2 * len(g.bonds)


class TestParserErrors:
    def test_unbalanced_open(self):
        with pytest.raises(UnbalancedParenthesis) as err:
            parse_smiles("CC(C")
        assert err.value.offset == 2

    def test_unbalanced_close(self):
        with pytest.raises(UnbalancedParenthesis) as err:
            parse_smiles("CC)C")
        assert err.value.offset == 2

    def test_unclosed_ring(self):
        with pytest.raises(UnmatchedRingClosure) as err:
            parse_smiles("C1CCC")
        assert err.value.offset == 1

    def test_self_ring_bond(self):
        with pytest.raises(UnmatchedRingClosure):
            parse_smiles("C11")

    def test_duplicate_ring_bond(self):
        with pytest.raises(UnmatchedRingClosure):
            parse_smiles("C1C1")

    def test_conflicting_ring_bond_orders(self):
        with pytest.raises(UnmatchedRingClosure):
            parse_smiles("C=1CCCCC-1")

    def test_unknown_token(self):
        with pytest.raises(UnknownAtomToken) as err:
            parse_smiles("CXC")
        assert err.value.offset == 1

    def test_unsupported_bracket_element(self):
        with pytest.raises(UnknownAtomToken) as err:
            parse_smiles("C[Xe](C)C")
        assert err.value.offset == 2

    def test_valence_error_with_offset(self):
        with pytest.raises(ValenceError) as err:
            parse_smiles("C(=O)(=O)(=O)=O")
        assert err.value.offset == 0

    def test_halogen_overbonded(self):
        with pytest.raises(ValenceError):
            parse_smiles("FF=C")

    def test_empty_input(self):
        with pytest.raises(UnknownAtomToken) as err:
            parse_smiles("")
        assert err.value.offset == 0

    def test_dangling_bond(self):
        with pytest.raises(UnknownAtomToken):
            parse_smiles("CC=")

    def test_dot_not_supported(self):
        with pytest.raises(UnknownAtomToken):
            parse_smiles("C.C")

    def test_carbon_dioxide_is_fine(self):
        g = parse_smiles("O=C=O")
        assert g.atoms[1].explicit_hydrogens == 0

    # one row per raise site: (SMILES, error type, message, offset)
    @pytest.mark.parametrize("smiles, error, message, offset", [
        ("", UnknownAtomToken, "empty SMILES", 0),
        ("C11", UnmatchedRingClosure, "ring bond to the same atom", 2),
        ("C1C1", UnmatchedRingClosure, "duplicate bond", 3),
        ("C=1CCCCC-1", UnmatchedRingClosure,
         "conflicting bond orders for ring closure 1", 9),
        ("(C)C", UnbalancedParenthesis, "branch opened before any atom", 0),
        ("CC)C", UnbalancedParenthesis, "unmatched closing parenthesis", 2),
        ("C(C=)C", UnknownAtomToken,
         "dangling bond before closing parenthesis", 3),
        ("C=#C", UnknownAtomToken, "two consecutive bond symbols", 2),
        ("=C", UnknownAtomToken, "bond symbol before any atom", 0),
        ("1CC1", UnmatchedRingClosure, "ring closure before any atom", 0),
        ("%12CC%12", UnmatchedRingClosure, "ring closure before any atom", 0),
        ("C%1", UnknownAtomToken, "% ring closure needs two digits", 1),
        ("C%1C", UnknownAtomToken, "% ring closure needs two digits", 1),
        ("CXC", UnknownAtomToken, "unknown token 'X'", 1),
        ("CC=", UnknownAtomToken, "dangling bond at end of input", 2),
        ("CC(C(C)", UnbalancedParenthesis, "unclosed branch", 2),
        ("C2CC1CC", UnmatchedRingClosure, "unclosed ring bond 1", 4),
        ("CC:C", ValenceError, "aromatic bond with non-aromatic endpoint", 1),
        ("FF=C", ValenceError, "valence 3 exceeds maximum for element 9", 1),
        ("C[Si]", UnknownAtomToken, "unterminated bracket atom", 1),
        ("C[Xe]", UnknownAtomToken, "unsupported element in bracket atom", 2),
        ("[13Xe]", UnknownAtomToken, "unsupported element in bracket atom", 3),
        ("C[", UnknownAtomToken, "unsupported element in bracket atom", 1),
        ("[13", UnknownAtomToken, "unsupported element in bracket atom", 0),
        ("C[Cl", UnknownAtomToken, "unterminated bracket atom", 1),
        ("[CH2+", UnknownAtomToken, "unterminated bracket atom", 0),
    ])
    def test_error_type_message_and_offset(self, smiles, error, message, offset):
        with pytest.raises(SmilesError) as err:
            parse_smiles(smiles)
        assert type(err.value) is error
        assert str(err.value) == f"{message} (offset {offset})"
        assert err.value.offset == offset


class TestFeaturize:
    def test_benzene_node_rows(self):
        g = featurize(parse_smiles("c1ccccc1"))
        # carbon index 1, degree 2, neutral charge index 2, aromatic, ring
        np.testing.assert_array_equal(
            g.node_features, np.tile([1, 2, 2, 1, 1], (6, 1))
        )
        assert g.edge_index.shape == (12, 2)
        assert np.all(g.edge_features[:, 0] == BondOrder.AROMATIC.feature_index)
        assert np.all(g.edge_features[:, 1] == 1)

    def test_bond_order_distinguishes_co_from_c_eq_o(self):
        single = featurize(parse_smiles("CO"))
        double = featurize(parse_smiles("C=O"))
        assert single.edge_features[0, 0] != double.edge_features[0, 0]

    def test_directed_edges_come_in_pairs(self):
        g = featurize(parse_smiles("CC(=O)O"))
        for i in range(0, g.edge_index.shape[0], 2):
            assert tuple(g.edge_index[i]) == tuple(g.edge_index[i + 1][::-1])
            np.testing.assert_array_equal(g.edge_features[i], g.edge_features[i + 1])

    def test_charge_index(self):
        g = featurize(parse_smiles("[NH4+]"))
        assert g.node_features[0, 2] == 3
        g = featurize(parse_smiles("[O-]"))
        assert g.node_features[0, 2] == 1

    def test_feature_indices_stay_inside_vocab(self):
        samples = [
            "C", "CCO", "c1ccccc1", "CC(=O)O", "[NH4+]", "[O-]C",
            "C1CC1", "c1ccc2ccccc2c1", "BrCCl", "C#N", "CS(=O)C",
            "[N+3]", "[P-2]",
        ]
        for smiles in samples:
            g = featurize(parse_smiles(smiles))
            for col, size in enumerate(NODE_VOCAB_SIZES):
                assert np.all(g.node_features[:, col] >= 0)
                assert np.all(g.node_features[:, col] < size), smiles
            for col, size in enumerate(EDGE_VOCAB_SIZES):
                if g.edge_features.size:
                    assert np.all(g.edge_features[:, col] < size), smiles


def _key(smiles: str) -> str:
    return scaffold_key(featurize(parse_smiles(smiles)))


class TestMurckoScaffold:
    def test_acyclic_reduces_to_empty(self):
        assert _key("CCO") == EMPTY_SCAFFOLD_KEY

    def test_single_atom_reduces_to_empty(self):
        assert _key("C") == EMPTY_SCAFFOLD_KEY

    def test_toluene_strips_to_benzene(self):
        assert _key("Cc1ccccc1") == _key("c1ccccc1")

    def test_ring_is_fixpoint(self):
        assert _key("c1ccccc1") != EMPTY_SCAFFOLD_KEY
        assert _key("C1CCCCC1") == _key("CC1CCCCC1")

    def test_linker_between_rings_survives(self):
        assert _key("c1ccccc1CCc1ccccc1") == _key("Cc1ccccc1CCc1ccc(O)cc1")
        assert _key("c1ccccc1CCc1ccccc1") != _key("c1ccccc1Cc1ccccc1")

    def test_long_side_chain_fully_removed(self):
        assert _key("CCCCCc1ccccc1") == _key("c1ccccc1")

    def test_branched_side_chain_fully_removed(self):
        assert _key("CC(C)(C)C(=O)c1ccncc1") == _key("c1ccncc1")


class TestScaffoldKey:
    def test_deterministic_across_calls(self):
        assert _key("c1ccc2ccccc2c1") == _key("c1ccc2ccccc2c1")

    def test_independent_of_atom_order(self):
        assert _key("c1ccncc1") == _key("n1ccccc1")

    def test_distinguishes_ring_chemistry(self):
        benzene = _key("c1ccccc1")
        cyclohexane = _key("C1CCCCC1")
        pyridine = _key("c1ccncc1")
        assert len({benzene, cyclohexane, pyridine}) == 3

    def test_distinguishes_ring_sizes(self):
        keys = {_key(s) for s in ("C1CC1", "C1CCC1", "C1CCCC1", "C1CCCCC1")}
        assert len(keys) == 4

    def test_substituent_invariance_through_murcko(self):
        variants = ["c1ccccc1", "Cc1ccccc1", "CCc1ccccc1", "OCc1ccccc1"]
        assert len({_key(s) for s in variants}) == 1

    def test_unchanged_hash_of_the_scaffold(self):
        # the key of a fixed scaffold is pinned, so split files written
        # before keep their grouping
        assert _key("CCc1ccccc1") == (
            "54b1d322d76764079ac0819c97dec66018497da702b50bd7dc31647a7d7b3546")

    def test_other_element_bucket_shares_one_label(self):
        # a hand-built three-membered ring: one atom of ``element``, two C
        def ring_of(element: int) -> str:
            atoms = [Atom(element=z, in_ring=True) for z in (element, 6, 6)]
            bonds = [Bond(a, b, BondOrder.SINGLE, in_ring=True)
                     for a, b in ((0, 1), (1, 2), (2, 0))]
            return scaffold_key(featurize(MolecularGraph(atoms, bonds)))

        assert ring_of(26) == ring_of(29)
        assert ring_of(26) not in (ring_of(6), ring_of(14))


def _record(label: int, task: str, group: int) -> DatasetRecord:
    """A record whose scaffold is a carbon ring of 3 + ``group`` atoms, so
    each group number has its own scaffold key."""
    return _smiles_record(label, task, "C1" + "C" * (2 + group) + "1")


def _smiles_record(label: int, task: str, smiles: str) -> DatasetRecord:
    return DatasetRecord(smiles=smiles, graph=featurize(parse_smiles(smiles)),
                         label=label, task_id=task)


class TestStratifiedScaffoldSplit:
    def test_partition_and_no_straddle(self):
        records = []
        for i in range(30):
            records.append(_record(i % 2, "t", i % 7))
        split = stratified_scaffold_split(records, (0.6, 0.2, 0.2), seed=0)
        assert sorted(split.splits) == list(range(30))
        # same scaffold and class never straddles splits
        seen = {}
        for idx, name in split.splits.items():
            key = (records[idx].label, records[idx].smiles)
            assert seen.setdefault(key, name) == name

    def test_deterministic_for_fixed_seed(self):
        records = [_record(i % 2, "t", i) for i in range(20)]
        a = stratified_scaffold_split(records, (0.8, 0.1, 0.1), seed=5)
        b = stratified_scaffold_split(records, (0.8, 0.1, 0.1), seed=5)
        assert a.splits == b.splits

    def test_different_seeds_differ(self):
        """10 records, distinct scaffolds: the seeded permutation decides
        which groups land in the small splits."""
        records = [_record(i % 2, "t", i) for i in range(10)]
        a = stratified_scaffold_split(records, (0.8, 0.1, 0.1), seed=0)
        b = stratified_scaffold_split(records, (0.8, 0.1, 0.1), seed=1)
        assert a.splits != b.splits

    def test_class_ratios_respected(self):
        # 3 label-0 and 7 label-1 records, all distinct scaffolds
        records = [_record(0, "t", i) for i in range(3)]
        records += [_record(1, "t", i) for i in range(7)]
        split = stratified_scaffold_split(records, (0.8, 0.1, 0.1), seed=2)
        train = split.indices("train")
        zeros = sum(1 for i in train if records[i].label == 0)
        ones = sum(1 for i in train if records[i].label == 1)
        # per-class targets are 2.4 and 5.6 records; group size is 1
        assert 2 <= zeros <= 3
        assert 5 <= ones <= 6

    def test_empty_class_raises(self):
        records = [_record(1, "t", i) for i in range(5)]
        with pytest.raises(EmptyClass):
            stratified_scaffold_split(records, (0.8, 0.1, 0.1), seed=0)

    def test_multi_task_classes_are_independent(self):
        records = [_record(i % 2, "t1", i) for i in range(10)]
        records += [_record(i % 2, "t2", i) for i in range(10)]
        split = stratified_scaffold_split(records, (0.8, 0.0, 0.2), seed=3)
        assert len(split.splits) == 20

    def test_shared_murcko_scaffold_stays_together(self):
        """Side chains differ but the benzene scaffold is shared, so the
        three benzenes of class 1 form one group and land in one split."""
        benzenes = ["c1ccccc1", "Cc1ccccc1", "CCc1ccccc1"]
        records = [_smiles_record(1, "t", s) for s in benzenes]
        records += [_record(1, "t", i) for i in range(7)]
        records += [_record(0, "t", i) for i in range(5)]
        split = stratified_scaffold_split(records, (0.6, 0.2, 0.2), seed=4)
        assert len({split.splits[i] for i in range(3)}) == 1
        assert len({split.splits[i] for i in range(3, 10)}) > 1

    def test_bad_fractions_rejected(self):
        records = [_record(i % 2, "t", i) for i in range(4)]
        with pytest.raises(ValueError):
            stratified_scaffold_split(records, (0.5, 0.2, 0.2), seed=0)


class TestDatasetCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "data.csv"
        write_dataset_csv(str(path), [
            ("CCO", 0, "tox"),
            ("c1ccccc1", 1, "tox"),
        ])
        records = load_dataset_csv(str(path))
        assert len(records) == 2
        assert records[0].smiles == "CCO" and records[0].label == 0
        assert records[1].graph.num_nodes == 6 and records[1].label == 1

    def test_bad_smiles_names_row(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("smiles,label,task_id\nCCO,0,t\nCC(,1,t\n")
        with pytest.raises(DatasetError) as err:
            load_dataset_csv(str(path))
        assert err.value.row == 3

    def test_bad_label_names_row(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("smiles,label,task_id\nCCO,2,t\n")
        with pytest.raises(DatasetError) as err:
            load_dataset_csv(str(path))
        assert err.value.row == 2

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("CCO,0,t\n")
        with pytest.raises(DatasetError):
            load_dataset_csv(str(path))

    @pytest.mark.parametrize("bom", ["", "\ufeff"], ids=["plain", "bom"])
    def test_read_with_or_without_a_byte_order_mark(self, tmp_path, bom):
        path = tmp_path / "data.csv"
        path.write_text(bom + "smiles,label,task_id\nCCO,1,tox\n",
                        encoding="utf-8")
        [record] = load_dataset_csv(str(path))
        assert (record.smiles, record.label, record.task_id) == ("CCO", 1, "tox")

    @pytest.mark.parametrize("bom", ["", "\ufeff"], ids=["plain", "bom"])
    def test_split_csv_with_or_without_a_byte_order_mark(self, tmp_path, bom):
        path = tmp_path / "split.csv"
        path.write_text(bom + "record_index,split\n0,train\n1,test\n",
                        encoding="utf-8")
        assert SplitAssignment.read_csv(str(path)).splits == {0: "train",
                                                              1: "test"}

    @pytest.mark.parametrize("bom", ["", "\ufeff"], ids=["plain", "bom"])
    def test_split_csv_cells_are_stripped_as_dataset_cells_are(self, tmp_path,
                                                               bom):
        path = tmp_path / "split.csv"
        path.write_text(bom + " record_index , split\n0, train\n 1 ,test \n"
                        "  ,  \n2,\tvalid\n", encoding="utf-8")
        assert SplitAssignment.read_csv(str(path)).splits == {
            0: "train", 1: "test", 2: "valid"}

    def test_split_csv_round_trip(self, tmp_path):
        split = SplitAssignment({0: "train", 1: "test", 2: "valid"})
        path = tmp_path / "split.csv"
        split.write_csv(str(path))
        loaded = SplitAssignment.read_csv(str(path))
        assert loaded.splits == split.splits

    @pytest.mark.parametrize("body, line", [
        ("0,train\nx,valid\n", 3),
        ("0,train\n-1,valid\n", 3),
        ("0,train\n1,valid\n0,test\n", 4),
        ("0,train\n\u0663,valid\n", 3),
    ], ids=["not-an-integer", "negative", "duplicate", "non-ascii-digit"])
    def test_split_csv_bad_index_names_line(self, tmp_path, body, line):
        path = tmp_path / "split.csv"
        path.write_text("record_index,split\n" + body, encoding="utf-8")
        with pytest.raises(DatasetError) as err:
            SplitAssignment.read_csv(str(path))
        assert err.value.row == line

    def test_select_rejects_index_outside_records(self):
        split = SplitAssignment({0: "train", 7: "test"})
        with pytest.raises(DatasetError):
            split.select(["a", "b", "c"], "train")
        assert split.select(list("abcdefgh"), "train") == ["a"]
