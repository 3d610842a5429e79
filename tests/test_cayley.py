"""Table enumeration oracle: counts, canonical forms, regular representations."""

import random
import warnings

import pytest

import cyclicnum as cn
from cyclicnum import (
    CapacityError,
    CayleyTable,
    canonical_form,
    element_orders,
    enumerate_groups,
    regular_representation,
    table_is_cyclic,
    validate_table,
    verify_theorem_small,
)
from cyclicnum.cayley import _candidate_tables, _isomorphic
from cayley_oracles import bb_canonical_form, brute_canonical_form, candidate_tables, meets_search_bounds

# a Latin square with identity 0 that is not associative: (1*1)*1 = 3 but
# 1*(1*1) = 0 (built from the order-6 cyclic table by swapping the
# intercalate at rows {1,4}, columns {2,5})
NON_ASSOCIATIVE_LOOP = (
    (0, 1, 2, 3, 4, 5),
    (1, 2, 0, 4, 5, 3),
    (2, 3, 4, 5, 0, 1),
    (3, 4, 5, 0, 1, 2),
    (4, 5, 3, 1, 2, 0),
    (5, 0, 1, 2, 3, 4),
)


def circulant(n):
    return tuple(tuple((i + j) % n for j in range(n)) for i in range(n))


def relabel(table, rho):
    """Apply the identity-fixing relabeling rho (new label -> old label)."""
    n = len(table)
    sigma = [0] * n
    for new, old in enumerate(rho):
        sigma[old] = new
    return tuple(
        tuple(sigma[table[rho[x]][rho[y]]] for y in range(n)) for x in range(n)
    )


class TestValidateTable:
    def test_accepts_cyclic_tables(self):
        for n in (1, 2, 5, 9):
            validate_table(circulant(n))

    def test_rejects_broken_identity(self):
        with pytest.raises(ValueError):
            validate_table(((1, 2, 0), (0, 1, 2), (2, 0, 1)))

    def test_rejects_non_latin(self):
        with pytest.raises(ValueError):
            validate_table(((0, 1), (1, 1)))

    def test_rejects_ragged_or_empty(self):
        with pytest.raises(ValueError):
            validate_table(((0, 1), (1,)))
        with pytest.raises(ValueError):
            validate_table(())

    def test_rejects_non_associative_loop(self):
        with pytest.raises(ValueError, match="associativity"):
            validate_table(NON_ASSOCIATIVE_LOOP)

    def test_cayley_table_constructor_validates(self):
        with pytest.raises(ValueError):
            CayleyTable(NON_ASSOCIATIVE_LOOP)
        assert CayleyTable(circulant(4)).n == 4


class TestEnumeration:
    def test_class_counts_up_to_seven(self):
        assert [len(enumerate_groups(n)) for n in range(1, 8)] == [1, 1, 1, 2, 1, 2, 1]

    def test_class_count_order_eight(self, oracle_pack):
        classes, _ = oracle_pack
        assert len(classes[8]) == 5
        assert sum(1 for c in classes[8] if table_is_cyclic(c)) == 1

    def test_labeled_table_counts(self, labeled_tables):
        # identity-fixed group tables: sum over classes of (n-1)!/|Aut|
        assert [len(labeled_tables[n]) for n in range(1, 7)] == [1, 1, 1, 4, 6, 80]

    def test_labeled_table_count_order_eight(self, labeled_tables):
        # 7!/4 + 7!/8 + 7!/168 + 7!/8 + 7!/24 over the five classes
        assert len(labeled_tables[8]) == 2760

    def test_pruned_search_finds_every_oracle_class(self, oracle_pack, labeled_tables):
        classes, _ = oracle_pack
        for n in range(1, 9):
            expected = {bb_canonical_form(t) for t in labeled_tables[n]}
            assert {c.table for c in classes[n]} == expected

    def test_order_eight_multisets(self, oracle_pack):
        classes, _ = oracle_pack
        seen = {element_orders(c) for c in classes[8]}
        assert seen == {
            (1, 2, 2, 2, 2, 2, 2, 2),
            (1, 2, 2, 2, 2, 2, 4, 4),
            (1, 2, 2, 2, 4, 4, 4, 4),
            (1, 2, 4, 4, 4, 4, 4, 4),
            (1, 2, 4, 4, 8, 8, 8, 8),
        }

    def test_prime_orders_all_cyclic(self, oracle_pack):
        classes, _ = oracle_pack
        for n in (2, 3, 5, 7):
            assert len(classes[n]) == 1
            assert table_is_cyclic(classes[n][0])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            enumerate_groups(0)

    def test_cap_below_request(self):
        with pytest.raises(CapacityError, match="cap of 15"):
            enumerate_groups(16)

    def test_canonical_form_past_the_cap(self):
        with pytest.raises(CapacityError, match="cap of 15"):
            canonical_form(circulant(16))

    def test_order_nine_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            classes = enumerate_groups(9)
        assert len(classes) == 2

    def test_orders_nine_to_fifteen_match_a000001(self):
        # Z9, Z3 x Z3; Z10, D5; Z11; Z12, Z2 x Z6, A4, Dic3, D6; Z13;
        # Z14, D7; Z15, the first composite cyclic number
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = verify_theorem_small(15)
        assert all(row.agree for row in rows)
        counts = [(row.group_count, row.cyclic_count) for row in rows[8:]]
        assert counts == [(2, 1), (2, 1), (1, 1), (5, 1), (1, 1), (2, 1), (1, 1)]

    def test_order_twelve_multisets(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            classes = enumerate_groups(12)
        assert sorted(element_orders(c) for c in classes) == sorted([
            (1, 2, 3, 3, 4, 4, 6, 6, 12, 12, 12, 12),  # Z12
            (1, 2, 2, 2, 3, 3, 6, 6, 6, 6, 6, 6),  # Z2 x Z6
            (1, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3),  # A4
            (1, 2, 3, 3, 4, 4, 4, 4, 4, 4, 6, 6),  # Dic3
            (1, 2, 2, 2, 2, 2, 2, 2, 3, 3, 6, 6),  # D6
        ])


class TestPropagatingSearch:
    """The search that fills forced cells against the oracle that branches
    on every cell, and the isomorphism test against brute-force forms."""

    @staticmethod
    def assert_matches_branching_oracle(n):
        found = _candidate_tables(n)
        unfiltered = candidate_tables(n)
        assert found == [t for t in unfiltered if meets_search_bounds(t)], n
        assert all(a < b for a, b in zip(found, found[1:])), n
        classes = {c.table for c in enumerate_groups(n)}
        # Against the oracle without the two bounds: no class is lost.
        assert classes == {bb_canonical_form(t) for t in unfiltered}, n

    def test_candidates_and_classes_up_to_nine(self):
        for n in range(1, 10):
            self.assert_matches_branching_oracle(n)

    def test_candidates_and_classes_at_order_ten(self):
        # The oracle search takes about 15 s here: 199 candidates.
        self.assert_matches_branching_oracle(10)

    def test_isomorphic_matches_brute_force_on_every_labeled_table_up_to_six(self, oracle_pack, labeled_tables):
        classes, _ = oracle_pack
        for n in range(1, 7):
            for table in labeled_tables[n]:
                form = brute_canonical_form(table)
                for c in classes[n]:
                    assert _isomorphic(table, c.table) == (form == c.table), (table, c.table)

    def test_isomorphic_matches_brute_force_on_order_eight_relabelings(self, oracle_pack):
        classes, _ = oracle_pack
        rng = random.Random(20261019)
        for t in classes[8]:
            for _ in range(100):
                shuffled = relabel(t.table, [0] + rng.sample(range(1, 8), 7))
                form = brute_canonical_form(shuffled)
                for c in classes[8]:
                    assert _isomorphic(shuffled, c.table) == (form == c.table)


class TestCanonicalForm:
    def test_idempotent(self, oracle_pack):
        classes, _ = oracle_pack
        for n, tables in classes.items():
            for t in tables:
                assert canonical_form(t.table) == t.table

    def test_invariant_under_relabeling_500_trials(self, oracle_pack):
        classes, _ = oracle_pack
        rng = random.Random(20260825)
        for n, tables in classes.items():
            for t in tables:
                reference = canonical_form(t)
                for _ in range(500):
                    rho = [0] + rng.sample(range(1, n), n - 1) if n > 1 else [0]
                    shuffled = relabel(t.table, rho)
                    assert canonical_form(shuffled) == reference

    # The branch and bound oracle checks the unfiltered search's classes at
    # orders 9 and 10, where trying every relabeling is too slow; it is
    # held to brute force here.
    @pytest.mark.parametrize("form", [canonical_form, bb_canonical_form])
    def test_matches_brute_force_on_every_labeled_table_up_to_seven(self, labeled_tables, form):
        for n in range(1, 8):
            for table in labeled_tables[n]:
                assert form(table) == brute_canonical_form(table)

    @pytest.mark.parametrize("form", [canonical_form, bb_canonical_form])
    def test_matches_brute_force_on_order_eight_relabelings(self, oracle_pack, form):
        classes, _ = oracle_pack
        rng = random.Random(20261018)
        for t in classes[8]:
            for _ in range(30):
                shuffled = relabel(t.table, [0] + rng.sample(range(1, 8), 7))
                assert form(shuffled) == brute_canonical_form(shuffled) == t.table

    def test_separates_the_two_order_four_groups(self):
        z4, v4 = circulant(4), ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))
        assert canonical_form(z4) != canonical_form(v4)


class TestTableQueries:
    def test_cyclic_tables_detected(self):
        for n in (1, 2, 3, 6, 11):
            assert table_is_cyclic(circulant(n))

    def test_klein_table_not_cyclic(self):
        v4 = ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))
        assert not table_is_cyclic(v4)

    def test_element_orders_read_off_table(self):
        assert element_orders(circulant(6)) == (1, 2, 3, 3, 6, 6)
        assert element_orders(((0,),)) == (1,)

    def test_raw_non_group_tables_rejected(self):
        # ((0, 1), (1, 1)) once sent the power loop round 1 -> 1 forever
        for query in (table_is_cyclic, element_orders, canonical_form):
            for bad in (((0, 1), (1, 1)), NON_ASSOCIATIVE_LOOP):
                with pytest.raises(ValueError):
                    query(bad)


class TestRegularRepresentation:
    def test_trivial_table(self):
        G = regular_representation(((0,),))
        assert len(G) == 1

    def test_cyclic_six(self):
        G = regular_representation(circulant(6))
        assert len(G) == 6
        assert cn.is_cyclic(G) is not None

    def test_cyclicity_agrees_with_table_for_all_classes(self, oracle_pack):
        classes, _ = oracle_pack
        for n, tables in classes.items():
            for t in tables:
                G = regular_representation(t)
                rows = tuple(cn.Permutation(row) for row in t.table)
                assert len(G) == n
                assert G.elements == tuple(sorted(rows))
                assert G.generators == (rows[1:] if n > 1 else rows[:1])
                assert (cn.is_cyclic(G) is not None) == table_is_cyclic(t)

    def test_nonabelian_order_six_matches_witness(self, oracle_pack):
        classes, _ = oracle_pack
        noncyclic = [t for t in classes[6] if not table_is_cyclic(t)]
        assert len(noncyclic) == 1
        witness_group = cn.closure(cn.witness_arrow_case(6, 2, 3).generators)
        witness_orders = tuple(sorted(cn.perm_order(g) for g in witness_group))
        assert element_orders(noncyclic[0]) == witness_orders

    def test_witness_multisets_appear_among_classes(self, oracle_pack):
        classes, _ = oracle_pack
        for n in (4, 6, 8):
            cert = cn.build_witness(n)
            G = cn.closure(cert.generators)
            mine = tuple(sorted(cn.perm_order(g) for g in G))
            assert mine in {element_orders(t) for t in classes[n]}


class TestTheoremReport:
    def test_small_run_agrees(self):
        rows = verify_theorem_small(6)
        assert all(row.agree for row in rows)
        by_n = {row.n: row for row in rows}
        assert (by_n[6].group_count, by_n[6].cyclic_count) == (2, 1)
        assert (by_n[4].group_count, by_n[4].cyclic_count) == (2, 1)
        assert by_n[5].all_cyclic and by_n[5].predicted
        assert not by_n[4].all_cyclic and not by_n[4].predicted
