"""Group engine: closure, structure queries, conjugation machinery.

The heavier corpus-wide sweeps (Lagrange, counting laws over every
witness group) live in test_acceptance; here the same operations are
pinned against small named groups where the right answers are known or
recomputable by direct scans.
"""

import itertools

import pytest

import cyclicnum as cn
import group_oracles as oracle
from cyclicnum import CapacityError, Permutation, Subgroup, cycle, identity


@pytest.fixture(scope="module")
def w30():
    return cn.closure(cn.build_witness(30).generators)


@pytest.fixture(scope="module")
def z15():
    return cn.closure([cycle(range(15), 15)])


def subgroup_sizes(G):
    return sorted(len(H) for H in cn.all_subgroups(G))


class TestClosure:
    def test_three_cycle(self):
        G = cn.closure([cycle([0, 1, 2], 3)])
        assert len(G) == 3

    def test_symmetric_group_on_three_points(self, s3):
        assert len(s3) == 6
        # all 6 bijections of 3 points appear
        assert set(s3.elements) == {
            Permutation(p) for p in itertools.permutations(range(3))
        }

    def test_klein_four(self, klein):
        assert len(klein) == 4
        assert cn.is_cyclic(klein) is None

    def test_identity_always_first(self, s3, d4, q8):
        for G in (s3, d4, q8):
            assert G.elements[0] == identity(G.degree)

    def test_cap_exceeded(self):
        with pytest.raises(CapacityError):
            cn.closure([cycle(range(12), 12)], max_size=5)

    def test_rejects_empty_or_mixed_degrees(self):
        with pytest.raises(ValueError):
            cn.closure([])
        with pytest.raises(ValueError):
            cn.closure([identity(3), identity(4)])

    def test_group_equality_ignores_generating_set(self, s3):
        again = cn.closure([cycle([0, 2], 3), cycle([0, 1], 3)])
        assert again == s3


class TestElementOrder:
    def test_identity(self, s3):
        assert cn.element_order(s3, identity(3)) == 1

    def test_three_cycle_divides_group_order(self, s3):
        g = cycle([0, 1, 2], 3)
        assert cn.element_order(s3, g) == 3
        assert len(s3) % 3 == 0

    def test_orders_in_cyclic_15(self, z15):
        orders = {cn.element_order(z15, g) for g in z15}
        assert orders == {1, 3, 5, 15}

    def test_non_member_rejected(self, s3):
        with pytest.raises(ValueError):
            cn.element_order(s3, identity(4))


class TestGeneratedSubgroupAndCyclicity:
    def test_identity_generates_trivial(self, s3):
        assert len(cn.generated_subgroup(s3, identity(3))) == 1

    def test_three_cycle_generates_a3(self, s3):
        H = cn.generated_subgroup(s3, cycle([0, 1, 2], 3))
        assert len(H) == 3

    def test_size_equals_element_order(self, d4):
        for g in d4:
            assert len(cn.generated_subgroup(d4, g)) == cn.element_order(d4, g)

    def test_cyclic_detection(self, z6, s3, klein):
        g = cn.is_cyclic(z6)
        assert g is not None and cn.element_order(z6, g) == 6
        assert cn.is_cyclic(s3) is None
        assert cn.is_cyclic(klein) is None

    def test_cyclic_iff_max_order_hits_group_size(self, s3, d4, klein, z6, q8, z15):
        for G in (s3, d4, klein, z6, q8, z15):
            max_order = max(cn.element_order(G, g) for g in G)
            assert (cn.is_cyclic(G) is not None) == (max_order == len(G))


class TestCosets:
    def test_whole_group_single_block(self, s3):
        H = cn.all_subgroups(s3)[-1]
        assert len(H) == 6
        assert len(cn.left_cosets(s3, H)) == 1

    def test_trivial_subgroup_singletons(self, s3):
        H = cn.all_subgroups(s3)[0]
        assert len(H) == 1
        blocks = cn.left_cosets(s3, H)
        assert len(blocks) == 6 and all(len(b) == 1 for b in blocks)

    def test_order_two_subgroup_three_blocks(self, s3):
        H = cn.generated_subgroup(s3, cycle([0, 1], 3))
        blocks = cn.left_cosets(s3, H)
        assert len(blocks) == 3 and all(len(b) == 2 for b in blocks)

    def test_blocks_partition(self, d4):
        for H in cn.all_subgroups(d4):
            blocks = cn.left_cosets(d4, H)
            seen = [g for b in blocks for g in b]
            assert len(seen) == len(d4)
            assert set(seen) == set(d4.elements)
            assert len(blocks) * len(H) == len(d4)


class TestCenter:
    def test_abelian_center_is_whole_group(self, klein, z6):
        for G in (klein, z6):
            assert len(cn.center(G)) == len(G)

    def test_named_centers(self, s3, d4, q8):
        assert len(cn.center(s3)) == 1
        assert len(cn.center(d4)) == 2
        assert len(cn.center(q8)) == 2

    def test_matches_full_commutation_scan(self, s3, d4, q8, w30):
        for G in (s3, d4, q8, w30):
            slow = {a for a in G if all(a * b == b * a for b in G)}
            assert set(cn.center(G).elements) == slow


class TestSubsetProduct:
    def test_identity_coset(self, s3):
        H = cn.generated_subgroup(s3, cycle([0, 1, 2], 3))
        assert cn.subset_product(H, [identity(3)]) == set(H.elements)

    def test_subgroup_is_idempotent(self, d4):
        for H in cn.all_subgroups(d4):
            assert cn.subset_product(H, H) == set(H.elements)

    def test_coset_of_odd_permutations(self, s3):
        H = cn.generated_subgroup(s3, cycle([0, 1, 2], 3))
        odd = cn.subset_product(H, [cycle([0, 1], 3)])
        assert len(odd) == 3 and odd.isdisjoint(H.elements)

    def test_product_with_center_grows_when_center_outside(self, w30):
        # a maximal subgroup missing the center must grow when multiplied by it
        Z = cn.center(w30)
        grew = 0
        for F in cn.maximal_subgroups(w30):
            if not set(Z.elements) <= set(F.elements):
                assert len(cn.subset_product(F, Z)) > len(F)
                grew += 1
        assert grew > 0  # the order-30 witness does have such a maximal subgroup


class TestConjugation:
    def test_conjugation_by_identity(self, s3):
        e = identity(3)
        for g in s3:
            assert cn.conjugate_element(s3, g, e) == g

    def test_class_sizes_s3(self, s3):
        sizes = sorted(
            len(cn.conjugacy_class(s3, g))
            for g in (identity(3), cycle([0, 1, 2], 3), cycle([0, 1], 3))
        )
        assert sizes == [1, 2, 3]

    def test_classes_partition_and_divide(self, s3, d4, q8):
        for G in (s3, d4, q8):
            seen = set()
            total = 0
            for g in G:
                if g in seen:
                    continue
                cls = cn.conjugacy_class(G, g)
                assert len(G) % len(cls) == 0
                assert cls.isdisjoint(seen)
                seen |= cls
                total += len(cls)
            assert total == len(G)

    def test_conjugate_subgroup_by_member_is_identity_map(self, s3):
        F = cn.generated_subgroup(s3, cycle([0, 1], 3))
        for b in F:
            assert cn.conjugate_subgroup(s3, F, b).elements == F.elements

    def test_transposition_subgroups_mutually_conjugate(self, s3):
        subs = [H for H in cn.all_subgroups(s3) if len(H) == 2]
        assert len(subs) == 3
        F = subs[0]
        images = {cn.conjugate_subgroup(s3, F, b).elements for b in s3}
        assert images == {H.elements for H in subs}

    def test_conjugate_preserves_size_and_maximality(self, d4, w30):
        for G in (d4, w30):
            maxima = {H.elements for H in cn.maximal_subgroups(G)}
            for H in cn.maximal_subgroups(G):
                for b in G.generators:
                    K = cn.conjugate_subgroup(G, H, b)
                    assert len(K) == len(H)
                    assert K.elements in maxima

    def test_membership_enforced(self, s3):
        with pytest.raises(ValueError):
            cn.conjugate_element(s3, identity(4), identity(4))


class TestNormalizerAndCounting:
    def test_abelian_normalizer_is_whole_group(self, z6):
        for H in cn.all_subgroups(z6):
            assert len(cn.normalizer(z6, H)) == len(z6)

    def test_s3_normalizers(self, s3):
        A3 = cn.generated_subgroup(s3, cycle([0, 1, 2], 3))
        T = cn.generated_subgroup(s3, cycle([0, 1], 3))
        assert cn.normalizer(s3, A3).elements == s3.elements
        assert cn.normalizer(s3, T).elements == T.elements

    def test_normalizer_contains_subgroup(self, d4, q8, w30):
        for G in (d4, q8, w30):
            for H in cn.all_subgroups(G):
                assert set(H.elements) <= set(cn.normalizer(G, H).elements)

    def test_counting_law(self, s3, d4, q8, w30):
        for G in (s3, d4, q8, w30):
            for H in cn.all_subgroups(G):
                count = cn.count_conjugate_subgroups(G, H)
                assert count * len(cn.normalizer(G, H)) == len(G)

    def test_normal_subgroup_counts_once(self, s3):
        A3 = cn.generated_subgroup(s3, cycle([0, 1, 2], 3))
        assert cn.count_conjugate_subgroups(s3, A3) == 1

    def test_transposition_subgroup_counts_three(self, s3):
        T = cn.generated_subgroup(s3, cycle([0, 1], 3))
        assert cn.count_conjugate_subgroups(s3, T) == 3


class TestSubgroupEnumeration:
    def test_s3_inventory(self, s3):
        assert subgroup_sizes(s3) == [1, 2, 2, 2, 3, 6]

    def test_d4_inventory(self, d4):
        assert subgroup_sizes(d4) == [1, 2, 2, 2, 2, 2, 4, 4, 4, 8]

    def test_q8_inventory(self, q8):
        assert subgroup_sizes(q8) == [1, 2, 4, 4, 4, 8]

    def test_klein_and_z6_inventories(self, klein, z6):
        assert subgroup_sizes(klein) == [1, 2, 2, 2, 4]
        assert subgroup_sizes(z6) == [1, 2, 3, 6]

    def test_subgroups_revalidate_publicly(self, d4):
        for H in cn.all_subgroups(d4):
            assert Subgroup(d4, H.elements).elements == H.elements

    def test_subgroup_constructor_rejects_bad_sets(self, s3):
        with pytest.raises(ValueError):
            Subgroup(s3, [])
        with pytest.raises(ValueError):
            Subgroup(s3, [identity(4)])
        with pytest.raises(ValueError):
            Subgroup(s3, [identity(3), cycle([0, 1, 2], 3)])  # not closed

    def test_bound_enforced(self):
        cert = cn.build_witness(72)
        G = cn.closure(cert.generators)
        with pytest.raises(CapacityError):
            cn.all_subgroups(G)

    def test_prime_order_group_has_no_maximal_subgroups(self):
        z5 = cn.closure([cycle(range(5), 5)])
        assert cn.maximal_subgroups(z5) == []

    def test_s3_maximals(self, s3):
        sizes = sorted(len(H) for H in cn.maximal_subgroups(s3))
        assert sizes == [2, 2, 2, 3]

    def test_d4_maximals(self, d4):
        sizes = sorted(len(H) for H in cn.maximal_subgroups(d4))
        assert sizes == [4, 4, 4]

    def test_z6_maximals(self, z6):
        sizes = sorted(len(H) for H in cn.maximal_subgroups(z6))
        assert sizes == [2, 3]


class TestMinimalPower:
    def test_member_gives_one(self, s3):
        F = cn.generated_subgroup(s3, cycle([0, 1, 2], 3))
        for h in F:
            assert cn.minimal_power_in_subgroup(s3, h, F) == 1

    def test_z6_square_subgroup(self, z6):
        g = cn.is_cyclic(z6)
        F = cn.generated_subgroup(z6, g * g)
        assert cn.minimal_power_in_subgroup(z6, g, F) == 2

    def test_q_divides_element_order(self, s3, d4, z6, q8):
        for G in (s3, d4, z6, q8):
            for F in cn.all_subgroups(G):
                for h in G:
                    q = cn.minimal_power_in_subgroup(G, h, F)
                    assert cn.element_order(G, h) % q == 0


class TestNoncentralUnion:
    def test_center_itself_contributes_nothing(self, d4):
        Z = cn.center(d4)
        assert cn.noncentral_union_size(d4, Z) == 0

    def test_s3_transposition_subgroup(self, s3):
        T = cn.generated_subgroup(s3, cycle([0, 1], 3))
        Z = cn.center(s3)
        assert cn.noncentral_union_size(s3, T) == 3
        assert 3 == (len(T) - len(Z)) * len(s3) // len(T)

    def test_s3_rotation_subgroup(self, s3):
        A3 = cn.generated_subgroup(s3, cycle([0, 1, 2], 3))
        assert cn.noncentral_union_size(s3, A3) == 2

    def test_d4_maximal_sum_covers_noncenter(self, d4):
        total = sum(cn.noncentral_union_size(d4, F) for F in cn.maximal_subgroups(d4))
        assert total == len(d4) - len(cn.center(d4))

    def test_self_normalizing_bounds(self, s3, d4, q8, w30):
        # whenever N(F) = F, conjugates meet pairwise in Z, and Z < F < G:
        # |G|/2 <= fhat < |G| - |Z|
        checked = 0
        for G in (s3, d4, q8, w30):
            Z = set(cn.center(G).elements)
            for F in cn.all_subgroups(G):
                if cn.normalizer(G, F).elements != F.elements:
                    continue
                if not (Z < set(F.elements) and len(F) < len(G)):
                    continue
                conjugates = {
                    cn.conjugate_subgroup(G, F, b).elements for b in G
                }
                pairs_ok = all(
                    set(a) & set(b) == Z
                    for a, b in itertools.combinations(conjugates, 2)
                )
                if not pairs_ok:
                    continue
                fhat = cn.noncentral_union_size(G, F)
                assert len(G) / 2 <= fhat < len(G) - len(Z)
                assert fhat == (len(F) - len(Z)) * len(G) // len(F)
                checked += 1
        assert checked > 0


class TestConjugateOnlyToPowers:
    def test_abelian_always_true(self, z6, klein):
        for G in (z6, klein):
            for f in G:
                assert cn.conjugate_only_to_powers(G, f)

    def test_s3_rotation_true_transposition_false(self, s3):
        assert cn.conjugate_only_to_powers(s3, cycle([0, 1, 2], 3))
        assert not cn.conjugate_only_to_powers(s3, cycle([0, 1], 3))


class TestAgainstSweepOracles:
    """Orbit and coset computations against sweeps over all of G."""

    def assert_matches_oracles(self, G, subgroups, elements, label):
        Z = cn.center(G)._elem_set
        for F in subgroups:
            assert set(cn.normalizer(G, F).elements) == oracle.normalizer(G, F), label
            conjugates = oracle.conjugate_subgroups(G, F)
            assert cn.count_conjugate_subgroups(G, F) == len(conjugates), label
            assert cn.noncentral_union_size(G, F) == len(set().union(*conjugates) - Z), label
        for g in elements:
            assert cn.conjugacy_class(G, g) == oracle.conjugacy_class(G, g), label
            assert cn.conjugate_only_to_powers(G, g) == oracle.conjugate_only_to_powers(G, g), label

    def test_every_subgroup_and_class_of_the_corpus(self, corpus_subgroups):
        for name, (G, subgroups) in corpus_subgroups.items():
            self.assert_matches_oracles(G, subgroups, G.elements, name)

    @pytest.mark.parametrize("n", [546, 1014])
    def test_groups_above_512_elements(self, n):
        # 546: S3 x Z91 (arrow witness); 1014: Z13 x Z78 (square witness).
        # One cyclic subgroup of each order up to 13 keeps the sweeps short.
        G = cn.closure(cn.build_witness(n).generators)
        assert len(G) == n > 512
        first_of_order = {}
        for g in G.elements:
            first_of_order.setdefault(cn.element_order(G, g), g)
        elements = [g for k, g in sorted(first_of_order.items()) if 1 < k <= 13]
        subgroups = [cn.generated_subgroup(G, g) for g in elements]
        assert len(subgroups) == 4
        self.assert_matches_oracles(G, subgroups, elements, n)


@pytest.fixture(scope="module")
def witness_closures():
    """n -> (generators, the oracle's element set) for every non-cyclic
    n <= 200 and the arrow witnesses 166 and 237, of degree above 6000."""
    out = {}
    for n in [n for n in range(2, 201) if not cn.is_cyclic_number(n)] + [166, 237]:
        gens = cn.build_witness(n).generators
        out[n] = (gens, oracle.closure(gens, 20000))
    return out


class TestAgainstProductOracles:
    """Gathered products, tuple closure and the order pass against the
    entry-by-entry compose, the Permutation-set closure and perm_order."""

    def assert_orders_match(self, G, label):
        assert cn.all_element_orders(G) == [cn.perm_order(g) for g in G.elements], label

    def test_witnesses_up_to_200_and_two_above_degree_6000(self, witness_closures):
        assert cn.build_witness(166).degree > 6000 and cn.build_witness(237).degree > 6000
        for n, (gens, elements) in witness_closures.items():
            G = cn.closure(gens)
            assert len(G) == n
            assert set(G.elements) == elements, n
            assert list(G.elements) == sorted(elements), n
            self.assert_orders_match(G, n)

    def test_corpus_groups_and_their_subgroups(self, corpus_subgroups):
        for name, (G, subgroups) in corpus_subgroups.items():
            assert set(cn.closure(G.generators).elements) == oracle.closure(G.generators, len(G)), name
            self.assert_orders_match(G, name)
            for H in subgroups:
                K = cn.closure(H.elements)
                assert set(K.elements) == oracle.closure(H.elements, len(H)) == H._elem_set, name
                self.assert_orders_match(K, name)

    def test_degree_one(self):
        G = cn.closure([identity(1)])
        assert set(G.elements) == oracle.closure([identity(1)], 1) == {identity(1)}
        assert cn.all_element_orders(G) == [1]
        assert cn.is_cyclic(G) == identity(1)

    def test_cap_is_exact(self, witness_closures):
        for n, (gens, _) in witness_closures.items():
            assert len(cn.closure(gens, max_size=n)) == n
            with pytest.raises(CapacityError):
                cn.closure(gens, max_size=n - 1)


class TestProofArithmetic:
    def test_power_rule_for_commuting_elements(self, z6, q8):
        g = cn.is_cyclic(z6)
        f, h = g * g, g * g * g
        for j in range(7):
            assert (f * h) ** j == (f**j) * (h**j)
        # central elements commute with everything
        minus_one = next(x for x in q8 if cn.element_order(q8, x) == 2)
        for h in q8:
            for j in range(5):
                assert (minus_one * h) ** j == (minus_one**j) * (h**j)

    def test_power_rule_needs_commutativity(self, s3):
        f, h = cycle([0, 1], 3), cycle([0, 1, 2], 3)
        assert f * h != h * f
        assert (f * h) ** 2 != (f**2) * (h**2)

    def test_conjugation_multiplies_exponent(self):
        # in the 6-element witness group: h^-1 f h = f^2, and h^2 = e brings
        # the exponent to 2^2 = 4 = 1 (mod 3), i.e. back to f itself
        cert = cn.witness_arrow_case(6, 2, 3)
        G = cn.closure(cert.generators)
        h, f = cert.generators
        assert cn.conjugate_element(G, f, h) == f * f
        F = cn.generated_subgroup(G, f)
        q = cn.minimal_power_in_subgroup(G, h, F)
        assert q == 2
        assert cn.element_order(G, h) % q == 0
        assert pow(2, q, 3) == 1
        assert cn.conjugate_element(G, f, h * h) == f
