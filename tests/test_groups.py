"""Group engine: closure, structure queries, conjugation machinery.

The heavier corpus-wide sweeps (Lagrange, counting laws over every
witness group) live in test_acceptance; here the same operations are
pinned against small named groups where the right answers are known or
recomputable by direct scans.
"""

import itertools
import math
import random

import pytest

import cyclicnum as cn
import cyclicnum.groups as groups_module
import group_oracles as oracle
from cyclicnum import CapacityError, Permutation, Subgroup, cycle, identity
from cyclicnum.groups import analyze


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
        # A generator of order above the cap stops its own walk of powers.
        long_cycle = cycle(range(12), 12)
        for gens in ([long_cycle], [cycle([0, 1], 12), long_cycle]):
            with pytest.raises(CapacityError, match=r"cap of 5 elements \(5 built, degree 12\)"):
                cn.closure(gens, max_size=5)
        with pytest.raises(CapacityError, match=r"\(0 built, degree 3\)"):
            cn.closure([identity(3)], max_size=0)

    def test_only_closure_builds_groups(self):
        gens = [cycle([0, 1, 2], 3)]
        with pytest.raises(TypeError):
            cn.FiniteGroup(3, gens, cn.closure(gens).elements)
        with pytest.raises(TypeError, match=r"closure\(\)"):
            cn.FiniteGroup()

    def test_rejects_empty_or_mixed_degrees(self):
        with pytest.raises(ValueError):
            cn.closure([])
        with pytest.raises(ValueError):
            cn.closure([identity(3), identity(4)])

    def test_group_equality_ignores_generating_set(self, s3):
        again = cn.closure([cycle([0, 2], 3), cycle([0, 1], 3)])
        assert again == s3

    def test_element_list_is_built_on_first_read(self):
        gens = cn.build_witness(54).generators
        G = cn.closure(gens)
        built = cn.closure(gens)
        # Membership, in a group or a subgroup, is a key lookup, and
        # equality and hash read orders and generators: none of them
        # builds an element list.
        assert gens[1] * gens[0] in built
        assert identity(G.degree + 1) not in G
        assert G == built and hash(G) == hash(built)
        assert G != cn.closure(gens[:1])
        H = cn.generated_subgroup(G, gens[0])
        assert gens[0] in H and gens[1] not in H and len(H) == cn.perm_order(gens[0])
        assert all("elements" not in vars(X) for X in (G, built, H))
        assert all(g in G for g in built.elements)
        assert list(H) == sorted(H.elements) and "elements" in vars(H)


class TestMembership:
    """``g in G`` is a key lookup and a whole-tuple confirm; the frozenset
    of G's elements is the reference."""

    def test_against_the_element_set_on_the_corpus(self, corpus):
        by_degree = {}
        for G in corpus.values():
            by_degree.setdefault(G.degree, set()).update(G.elements)
        rng = random.Random(26)
        for name, G in corpus.items():
            members = frozenset(G.elements)
            # Every element of every corpus group of the same degree, and
            # random permutations, most of them outside G.
            candidates = by_degree[G.degree] | {Permutation(rng.sample(range(G.degree), G.degree)) for _ in range(50)}
            for g in candidates:
                assert (g in G) == (g in members), (name, g)

    def test_other_degrees_and_objects_are_not_members(self, s3):
        for outside in (identity(2), identity(4), cycle([0, 1], 4), s3.elements[1].images, None, 0):
            assert outside not in s3


class TestEquality:
    """``G == H`` compares degree, order and H's generators in G; the
    frozenset of the elements is the reference."""

    def test_against_the_element_set_on_the_corpus(self, corpus):
        groups = list(corpus.values())
        groups += [cn.closure(G.generators[::-1]) for G in groups]
        groups += [cn.closure([cycle([0, 1], 3)]), cn.closure([cycle([1, 2], 3)])]
        # The normal Klein four-group in S4 and one that is not normal.
        groups += [
            cn.closure([cycle([0, 1], 4) * cycle([2, 3], 4), cycle([0, 2], 4) * cycle([1, 3], 4)]),
            cn.closure([cycle([0, 1], 4), cycle([2, 3], 4)]),
        ]
        sets = [(G.degree, frozenset(G.elements)) for G in groups]
        equal_pairs = 0
        for G, S in zip(groups, sets):
            for H, T in zip(groups, sets):
                assert (G == H) == (S == T), (G, H)
                if S == T:
                    assert hash(G) == hash(H)
                    equal_pairs += G is not H
        assert equal_pairs >= len(corpus)


def numbered_apart_s4():
    """S4 from (0 1), (1 2 3) and (2 3), and from the same generators in
    another order: equal groups whose closure numberings differ."""
    a, b, c = cycle([0, 1], 4), cycle([1, 2, 3], 4), cycle([2, 3], 4)
    G, G2 = cn.closure([a, b, c]), cn.closure([c, a, b])
    assert G == G2 and G is not G2
    assert [G._dimino.images_of(i) for i in range(3)] == [G2._dimino.images_of(i) for i in range(3)]
    assert G._dimino.images_of(3) != G2._dimino.images_of(3)
    return G, G2


class TestEqualParentsNumberedApart:
    """A subgroup of one group, used in an equal group that numbers its
    elements differently, against the sweep oracles in that group."""

    def test_every_subgroup_of_s4(self):
        G, G2 = numbered_apart_s4()
        Z = oracle.center(G2)
        subgroups = cn.all_subgroups(G)
        # A hash of orders alone would put the nine subgroups of order 2 in one bucket.
        assert len({hash(H) for H in subgroups}) == len(subgroups) == 30
        for H in subgroups:
            members = frozenset(H.elements)
            H2 = Subgroup(G2, H.elements)
            assert H == H2 and H2 == H and hash(H) == hash(H2)
            assert all((g in H) == (g in H2) == (g in members) for g in G2.elements)
            N = cn.normalizer(G2, H)
            assert set(N.elements) == oracle.normalizer(G2, H) and N == cn.normalizer(G, H)
            conjugates = oracle.conjugate_subgroups(G2, H)
            assert cn.count_conjugate_subgroups(G2, H) == len(conjugates)
            assert cn.noncentral_union_size(G2, H) == len(set().union(*conjugates) - Z)
            cosets = cn.left_cosets(G2, H)
            assert cosets == cn.left_cosets(G2, H2)
            assert set(map(frozenset, cosets)) == {frozenset(x * h for h in members) for x in G2.elements}
            for g in G2.elements:
                q = cn.minimal_power_in_subgroup(G2, g, H)
                assert g**q in members and not any(g**p in members for p in range(1, q))
                conjugate = {g.inverse() * h * g for h in members}
                assert set(cn.conjugate_subgroup(G2, H, g)) == set(cn.conjugate_subgroup(G, H, g)) == conjugate

    def test_a_subgroup_of_an_unequal_group_is_rejected(self, s3):
        G, _ = numbered_apart_s4()
        A4 = cn.closure([cycle([0, 1, 2], 4), cycle([1, 2, 3], 4)])
        H = cn.generated_subgroup(A4, cycle([0, 1, 2], 4))
        assert H != Subgroup(G, H.elements) and H != cn.generated_subgroup(s3, cycle([0, 1, 2], 3))
        g = cycle([0, 1, 2], 4)
        for query in (
            lambda: cn.normalizer(G, H),
            lambda: cn.count_conjugate_subgroups(G, H),
            lambda: cn.noncentral_union_size(G, H),
            lambda: cn.left_cosets(G, H),
            lambda: cn.minimal_power_in_subgroup(G, g, H),
            lambda: cn.conjugate_subgroup(G, H, g),
        ):
            with pytest.raises(ValueError, match="subgroup belongs to a different group"):
                query()


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

    def test_size_equals_element_order(self, d4, q8, w30):
        # Z19 ⋊ Z2 on a grid of 19^2 points.
        w38 = cn.closure(oracle.grid_arrow_generators(2, 19))
        assert len(w38) == 38 and w38.degree == 361
        for G in (d4, q8, w30, w38):
            for g in G:
                H = cn.generated_subgroup(G, g)
                assert len(H) == cn.element_order(G, g)
                assert set(H.elements) == oracle.closure([g], len(G)), (len(G), g)

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
        # Also checks oracle.center, which the sweep tests compare against.
        for G in (s3, d4, q8, w30):
            slow = {a for a in G if all(a * b == b * a for b in G)}
            assert set(cn.center(G).elements) == slow == oracle.center(G)


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

    def test_every_group_of_order_up_to_8(self, oracle_pack):
        # Subgroup counts of the isomorphism classes of each order, from group
        # theory: Z4, V4; Z6, S3; Z8, Q8, Z4 x Z2, D4, Z2^3.  Z2^3 is a
        # subgroup of itself that needs three generators.
        expected = {1: [1], 2: [2], 3: [2], 4: [3, 5], 5: [2], 6: [4, 6], 7: [2], 8: [4, 6, 8, 10, 16]}
        classes, _ = oracle_pack
        for n, tables in classes.items():
            counts = sorted(len(cn.all_subgroups(cn.regular_representation(t))) for t in tables)
            assert counts == expected[n], n

    def test_dihedral_counts_in_closed_form(self):
        # D_n, of order 2n, has tau(n) + sigma(n) subgroups: one cyclic
        # subgroup of order d and n/d dihedral ones of order 2d for each
        # divisor d of n.
        for n in range(3, 33):
            rotation = cycle(range(n), n)
            reflection = Permutation([-i % n for i in range(n)])
            divisors = [d for d in range(1, n + 1) if n % d == 0]
            G = cn.closure([rotation, reflection])
            assert len(cn.all_subgroups(G)) == len(divisors) + sum(divisors), n

    def test_product_of_two_cyclic_groups_counts_in_closed_form(self):
        # Z_m x Z_n has sum gcd(a, b) subgroups over a | m and b | n
        # (Hampejs, Holighaus, Toth and Wiesmeyr 2014).
        for m in range(2, 9):
            for n in range(m, 64 // m + 1):
                G = cn.closure([cycle(range(m), m + n), cycle(range(m, m + n), m + n)])
                expected = sum(
                    math.gcd(a, b)
                    for a in range(1, m + 1) if m % a == 0
                    for b in range(1, n + 1) if n % b == 0
                )
                assert len(cn.all_subgroups(G)) == expected, (m, n)

    def test_elementary_abelian_3_cubed(self):
        # The subspaces of F3^3: 1 + 13 lines + 13 planes + 1.
        G = cn.closure([cycle([3 * i, 3 * i + 1, 3 * i + 2], 9) for i in range(3)])
        assert len(cn.all_subgroups(G)) == 28

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

    def test_bound_names_the_group_order(self):
        s5 = cn.closure([cycle([0, 1], 5), cycle(range(5), 5)])
        message = r"limited to groups of order 64 \(this group has order 120\)"
        with pytest.raises(CapacityError, match=message):
            cn.all_subgroups(s5)

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
    """Orbit and coset computations against sweeps over all of G, and the
    conjugation maps on element numbers against the same maps on whole
    image tuples."""

    def assert_matches_conjugation_oracles(self, G, subgroups, label):
        """The center, is_cyclic, the class partition (also analyze's) and
        the conjugate counts against the same maps on whole image tuples;
        returns the oracle's center."""
        Z = oracle.center(G)
        assert set(cn.center(G).elements) == Z, label
        assert cn.is_cyclic(G) == oracle.is_cyclic(G), label
        classes = oracle.conjugacy_classes(G)
        assert [cn.conjugacy_class(G, min(cls)) for cls in classes] == classes, label
        report = analyze(G)
        assert report["conjugacy_class_sizes"] == sorted(map(len, classes)), label
        assert report["center_size"] == len(Z), label
        for F in subgroups:
            conjugates = oracle.conjugates(G, F)
            assert cn.count_conjugate_subgroups(G, F) == len(conjugates), label
            assert cn.noncentral_union_size(G, F) == len(set().union(*conjugates) - Z), label
        return Z

    def assert_matches_oracles(self, G, subgroups, elements, label):
        Z = self.assert_matches_conjugation_oracles(G, subgroups, label)
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

    def test_witnesses_up_to_200(self, witness_closures):
        # One cyclic subgroup of each element order; each one's closure
        # has several generators for is_cyclic to choose among.
        for n, gens, _ in witness_closures:
            if n > 200:
                continue
            G = cn.closure(gens)
            elements = first_of_each_order(G, n)
            subgroups = [cn.generated_subgroup(G, g) for g in elements]
            self.assert_matches_conjugation_oracles(G, subgroups, n)
            for g, F in zip(elements, subgroups):
                assert set(cn.normalizer(G, F).elements) == oracle.normalizer(G, F, [g]), n
            for g in elements:
                K = cn.closure([g])
                assert cn.is_cyclic(K) == oracle.is_cyclic(K), (n, g)

    def test_least_generator_against_whole_tuples(self, corpus):
        # Long cycles, and disjoint cycles of coprime lengths, whose
        # generators tie on the first points and whose least generator is
        # not the one closure starts from; the non-cyclic corpus groups
        # give None both ways.
        groups = list(corpus.values())
        groups += [cn.closure([cycle(range(m), m)]) for m in (997, 1000, 2048)]
        groups += [cn.closure([cycle([0, 1], 5) * cycle([2, 4, 3], 5)])]
        g, start = identity(37), 0
        for length in (5, 7, 9, 16):  # each cycle runs down its points
            g = g * cycle(range(start + length - 1, start - 1, -1), 37)
            start += length
        groups += [cn.closure([g])]
        for G in groups:
            d = G._dimino
            orders = groups_module._order_pass(d)
            assert groups_module._least_generator(d, orders) == oracle.least_generator(d, orders), len(G)

    @pytest.mark.parametrize("n", [546, 1014])
    def test_groups_above_512_elements(self, n):
        # 546: S3 x Z91 (arrow witness); 1014: Z13 x Z78 (square witness).
        # One cyclic subgroup of each order up to 13 keeps the sweeps short.
        G = cn.closure(cn.build_witness(n).generators)
        assert len(G) == n > 512
        elements = first_of_each_order(G, 13)
        subgroups = [cn.generated_subgroup(G, g) for g in elements]
        assert len(subgroups) == 4
        self.assert_matches_oracles(G, subgroups, elements, n)


def first_of_each_order(G, up_to):
    """The first element of G of each order k with 1 < k <= up_to."""
    first_of_order = {}
    for g, k in zip(G.elements, cn.all_element_orders(G)):
        first_of_order.setdefault(k, g)
    return [g for k, g in sorted(first_of_order.items()) if 1 < k <= up_to]


@pytest.fixture(scope="module")
def witness_closures():
    """(n, generators, the oracle's element set) for the witness of every
    non-cyclic n <= 200, then for the arrow groups of orders 166 and 237
    on grids of degree above 6000."""
    gens_of = [(n, cn.build_witness(n).generators) for n in range(2, 201) if not cn.is_cyclic_number(n)]
    gens_of += [(n, oracle.grid_arrow_generators(p1, p2)) for n, p1, p2 in [(166, 2, 83), (237, 3, 79)]]
    return [(n, gens, oracle.closure(gens, 20000)) for n, gens in gens_of]


def stage_sizes(gens):
    """|H| after each stage of Dimino's closure, from the oracle: the
    longest cyclic subgroup of a generator (the first one of that
    order), then one more generator outside H at a time."""
    first = max(gens, key=cn.perm_order)
    used = [first]
    H = oracle.closure(used, 20000)
    sizes = [len(H)]
    for g in gens:
        if g not in H:
            used.append(g)
            H = oracle.closure(used, 20000)
            sizes.append(len(H))
    return sizes


def built_before_cap(sizes, max_size):
    """Elements closure holds when it stops at max_size < |G|: a walk
    stops at max_size, and a later stage adds whole cosets of the stage
    before it, of size |H|, while they fit."""
    if max_size < sizes[0]:
        return max_size
    h = max(size for size in sizes if size <= max_size)
    return max_size // h * h


class TestAgainstProductOracles:
    """Gathered products, Dimino's closure and the order pass against the
    entry-by-entry compose, the Permutation-set closure, perm_order and the
    binary-search order pass; every group the order pass sees also has its
    checked base checked."""

    def assert_orders_match(self, G, label):
        assert_base(G, label)
        orders = cn.all_element_orders(G)
        assert orders == [cn.perm_order(g) for g in G.elements] == oracle.element_orders(G), label

    def test_witnesses_up_to_200_and_two_above_degree_6000(self, witness_closures):
        assert [(n, gens[0].degree) for n, gens, _ in witness_closures[-2:]] == [(166, 6889), (237, 6241)]
        for n, gens, elements in witness_closures:
            G = cn.closure(gens)
            assert len(G) == n
            assert set(G.elements) == elements, n
            assert list(G.elements) == sorted(elements), n
            self.assert_orders_match(G, n)
            for order in itertools.permutations(gens):
                assert set(cn.closure(order).elements) == elements, (n, order)

    @pytest.mark.parametrize("n", [2310, 19995])
    def test_every_generator_order_of_three_generator_witnesses(self, n):
        # 19995: p1 = 3, p2 = 31 and a 215-cycle, degree 246, near the cap.
        gens = cn.build_witness(n).generators
        assert len(gens) == 3
        expected = sorted(oracle.closure(gens, 20000))
        assert len(expected) == n
        for order in itertools.permutations(gens):
            assert list(cn.closure(order).elements) == expected, order

    def test_identity_duplicate_and_product_generators(self, witness_closures):
        for n, gens, elements in witness_closures:
            e = identity(gens[0].degree)
            for redundant in (
                [e, *gens],
                [*gens, e],
                [gens[-1], *gens, gens[0]],
                [*gens, gens[0] * gens[-1]],
                [gens[-1] * gens[0], *gens],
            ):
                G = cn.closure(redundant)
                assert set(G.elements) == elements, (n, redundant)
                assert G.generators == tuple(redundant)
        assert len(cn.closure([identity(5), identity(5)])) == 1

    def test_corpus_groups_and_their_subgroups(self, corpus_subgroups):
        for name, (G, subgroups) in corpus_subgroups.items():
            assert set(cn.closure(G.generators).elements) == oracle.closure(G.generators, len(G)), name
            self.assert_orders_match(G, name)
            for H in subgroups:
                K = cn.closure(H.elements)
                assert set(K.elements) == oracle.closure(H.elements, len(H)) == set(H.elements), name
                self.assert_orders_match(K, name)
                assert cn.closure(H.elements[::-1]) == K, name

    def test_degree_one(self):
        G = cn.closure([identity(1)])
        assert set(G.elements) == oracle.closure([identity(1)], 1) == {identity(1)}
        assert cn.all_element_orders(G) == [1]
        assert cn.is_cyclic(G) == identity(1)

    def test_cap_is_exact(self, witness_closures):
        # At, just below and just above the size of each Dimino stage.
        for n, gens, _ in witness_closures:
            sizes = stage_sizes(gens)
            assert sizes[-1] == n
            for size in sizes:
                for max_size in (size - 1, size, size + 1):
                    if max_size >= n:
                        assert len(cn.closure(gens, max_size=max_size)) == n
                        continue
                    built = built_before_cap(sizes, max_size)
                    with pytest.raises(CapacityError) as info:
                        cn.closure(gens, max_size=max_size)
                    message = f"cap of {max_size} elements ({built} built, degree {gens[0].degree})"
                    assert message in str(info.value), (n, max_size)


def elementary_abelian_2(k):
    """Z2^k as k disjoint transpositions on 2k points."""
    return [cycle([2 * i, 2 * i + 1], 2 * k) for i in range(k)]


def assert_base(G, label):
    """Closure's base tells the elements of G apart, and has at most
    log2 |G| points."""
    base = G._dimino.base
    assert len({tuple(g.images[p] for p in base) for g in G.elements}) == len(G), label
    assert 2 ** len(base) <= len(G), label
    return base


class TestMaximalRows:
    """analyze reads each maximal subgroup's normalizer and conjugate count
    off one normality test; the general public paths compute both."""

    @staticmethod
    def assert_rows_match_public_paths(G, label):
        rows = [
            {
                "size": len(H),
                "normalizer_size": len(cn.normalizer(G, H)),
                "conjugate_count": cn.count_conjugate_subgroups(G, H),
            }
            for H in sorted(cn.maximal_subgroups(G), key=lambda H: (-len(H), H.elements))
        ]
        assert analyze(G)["maximal_subgroups"] == rows, label

    def test_corpus(self, corpus):
        for name, G in corpus.items():
            self.assert_rows_match_public_paths(G, name)

    def test_witnesses_above_the_corpus_up_to_64(self):
        # The corpus holds the witnesses up to 60.
        for n in range(61, 65):
            cert = cn.build_witness(n)
            if cert is not None:
                self.assert_rows_match_public_paths(cn.closure(cert.generators), n)

    def test_s4_has_normal_and_self_normalizing_maxima(self):
        # A4 is normal; the three D4 and the four S3 are their own normalizers.
        G = cn.closure([cycle([0, 1], 4), cycle(range(4), 4)])
        rows = [tuple(row.values()) for row in analyze(G)["maximal_subgroups"]]
        assert rows == [(12, 24, 1)] + [(8, 8, 3)] * 3 + [(6, 6, 4)] * 4

    def test_generator_order_changes_no_subgroup_list(self):
        # Z3 x S3, whose size-6 maximal subgroups differ in normalizer:
        # lists sorted by closure's numbering would follow the generators.
        gens = [cycle([0, 1, 2], 6), cycle([3, 4], 6), cycle([3, 4, 5], 6)]
        lists = set()
        for order in itertools.permutations(gens):
            G = cn.closure(order)
            lists.add(tuple(tuple(H.elements for H in subs) for subs in (cn.all_subgroups(G), cn.maximal_subgroups(G))))
        assert len(lists) == 1

    def test_groups_above_the_lattice_bound_have_no_rows(self):
        assert analyze(cn.closure(cn.build_witness(128).generators))["maximal_subgroups"] is None


class TestCheckedBase:
    """The order pass and the lattice key each element by its images on
    closure's base; the oracles use whole image tuples.  The order pass
    is compared on the corpus and the witnesses in TestAgainstProductOracles."""

    @staticmethod
    def assert_lattice_matches_oracle(G, subgroups, label):
        """The lattice and the maxima against the oracle's, and analyze's
        maximal-subgroup rows against the oracle's sweeps over G."""
        expected = oracle.subgroups(G)
        assert [H.elements for H in subgroups] == [H.elements for H in expected], label
        maxima = oracle.maximal_subgroups(G, expected)
        assert [H.elements for H in cn.maximal_subgroups(G)] == [H.elements for H in maxima], label
        rows = [
            {
                "size": len(H),
                "normalizer_size": len(oracle.normalizer(G, H)),
                "conjugate_count": len(oracle.conjugate_subgroups(G, H)),
            }
            for H in sorted(maxima, key=lambda H: (-len(H), H.elements))
        ]
        assert analyze(G)["maximal_subgroups"] == rows, label

    def test_corpus_lattices(self, corpus_subgroups):
        for name, (G, subgroups) in corpus_subgroups.items():
            self.assert_lattice_matches_oracle(G, subgroups, name)

    def test_witness_lattices_up_to_64(self, witness_closures):
        # The corpus holds the witnesses up to 60.
        for n, gens, _ in witness_closures:
            if 60 < n <= 64:
                G = cn.closure(gens)
                self.assert_lattice_matches_oracle(G, cn.all_subgroups(G), n)

    @pytest.mark.parametrize(
        "gens,points",
        [
            ([cycle([0, 1], 3), cycle([0, 1, 2], 3)], 2),
            ([cycle([0, 1], 4), cycle([0, 1, 2, 3], 4)], 3),
            (elementary_abelian_2(3), 3),
            (elementary_abelian_2(4), 4),
            (elementary_abelian_2(5), 5),
        ],
        ids=["S3", "S4", "Z2^3", "Z2^4", "Z2^5"],
    )
    def test_groups_that_need_several_points(self, gens, points):
        # No base of S3 on 3 points, S4 on 4 points or Z2^k as k disjoint
        # transpositions has fewer points than given here.
        G = cn.closure(gens)
        assert len(assert_base(G, len(G))) == points
        orders = cn.all_element_orders(G)
        assert orders == [cn.perm_order(g) for g in G.elements] == oracle.element_orders(G)
        assert [H.elements for H in cn.all_subgroups(G)] == [H.elements for H in oracle.subgroups(G)]

    @pytest.mark.parametrize("m", [2, 3])
    def test_quaternion_group_times_cyclic(self, q8, m):
        # Q8 x Zm: two cyclic subgroups of order 4 that share -1 generate a
        # proper subgroup of order 8 (Q8 itself, and for m = 2 also i with
        # j*z, z the central element of order 2).  The lattice reaches each
        # in one step from <i>, by j or j*z: it normalizes <i>, and its
        # square -1 lies in <i>.
        gens = [Permutation(list(g.images) + list(range(8, 8 + m))) for g in q8.generators]
        gens.append(Permutation(list(range(8)) + [8 + (i + 1) % m for i in range(m)]))
        G = cn.closure(gens)
        assert len(G) == 8 * m
        assert [H.elements for H in cn.all_subgroups(G)] == [H.elements for H in oracle.subgroups(G)]

    def test_a5_the_one_non_solvable_group_below_order_120(self):
        # No prime-index step reaches A5 itself, so the lattice adds G last;
        # every proper subgroup is solvable and is reached by the steps.
        G = cn.closure([cycle([0, 1, 2], 5), cycle(range(5), 5)])
        subgroups = cn.all_subgroups(G)
        assert len(G) == 60 and len(subgroups) == 59
        self.assert_lattice_matches_oracle(G, subgroups, "A5")

    def test_lattice_of_order_64(self):
        # The subspaces of F2^6: 1+63+651+1395+651+63+1, and the maximal
        # ones are the 63 hyperplanes.  The oracle takes about 80 s here.
        G = cn.closure(elementary_abelian_2(6))
        assert len(cn.all_subgroups(G)) == 2825
        maxima = cn.maximal_subgroups(G)
        assert len(maxima) == 63
        assert {len(H) for H in maxima} == {32}


class TestAbelianShortcut:
    """max_element_order reads an abelian G's exponent as the lcm of its
    generator orders and runs the order pass otherwise; both against the
    largest of the oracle's element orders.  is_abelian and membership
    against all ordered pairs of generators and the element frozenset."""

    def test_every_witness_up_to_1000(self):
        reasons = {"square": 0, "arrow": 0}
        for n in range(2, 1001):
            cert = cn.build_witness(n)
            if cert is None:
                continue
            G = cn.closure(cert.generators)
            assert cn.is_abelian(G) == (cert.reason == "square"), n
            assert cn.max_element_order(G) == max(oracle.element_orders(G)), n
            reasons[cert.reason] += 1
        assert reasons == {"square": 392, "arrow": 283}

    @pytest.mark.parametrize(
        "gens, exponent",
        [
            ([Permutation([1, 0, 3, 2]), Permutation([2, 3, 0, 1])], 2),
            ([cycle([0, 1, 2, 3], 4), Permutation([2, 3, 0, 1])], 4),
            ([Permutation([1, 2, 0, 4, 3]), cycle([3, 4], 5)], 6),
            ([cycle([0, 1], 5), cycle([2, 3, 4], 5)], 6),
            ([identity(4), Permutation([1, 0, 3, 2]), Permutation([1, 0, 3, 2]), identity(4), Permutation([2, 3, 0, 1])], 2),
            ([identity(3), identity(3)], 1),
            ([identity(1)], 1),
            (elementary_abelian_2(6), 2),
        ],
        ids=[
            "klein-four",
            "a-generator-and-its-square",
            "z3xz2-and-its-z2",
            "no-generator-of-the-exponents-order",
            "repeated-and-identity-generators",
            "identity-twice",
            "degree-one",
            "the-ci-z2^6-file",
        ],
    )
    def test_abelian_groups_whose_generators_share_points(self, gens, exponent):
        G = cn.closure(gens)
        assert cn.is_abelian(G) and oracle.is_abelian(G)
        assert cn.max_element_order(G) == max(oracle.element_orders(G)) == exponent

    def test_is_abelian_against_all_ordered_pairs(self, corpus):
        abelian = 0
        for name, G in corpus.items():
            assert cn.is_abelian(G) == oracle.is_abelian(G), name
            abelian += cn.is_abelian(G)
        assert 0 < abelian < len(corpus)

    def test_membership_by_key_against_the_element_set(self, corpus):
        # Every corpus element of each degree, and a transposition and a
        # long cycle per degree, tried in every group of that degree; plus
        # one of the wrong degree.
        candidates = {}
        for G in corpus.values():
            m = G.degree
            candidates.setdefault(m, {cycle(sorted({0, m - 1}), m), cycle(range(m), m)}).update(G.elements)
        key_hits_outside = 0
        for name, G in corpus.items():
            d, members = G._dimino, frozenset(G.elements)
            for g in candidates[G.degree]:
                if g in members:
                    assert d.images_of(groups_module._require_member(G, g)) == g.images, name
                    continue
                key_hits_outside += d.key(g.images) in d.index
                with pytest.raises(ValueError, match="element is not a member of the group"):
                    groups_module._require_member(G, g)
            with pytest.raises(ValueError, match="b is not a member of the group"):
                groups_module._require_member(G, identity(G.degree + 1), "b")
        assert key_hits_outside > 0


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


def random_generators(rng, degree):
    """One to three generators of the given degree: whole shuffles, or
    sparse transpositions and 3-cycles."""
    gens = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.5:
            gens.append(Permutation(rng.sample(range(degree), degree)))
        else:
            points = rng.sample(range(degree), min(degree, rng.choice([2, 3])))
            gens.append(cycle(points, degree))
    return gens


def disjoint_product(gens_a, gens_b):
    """Generators of A x B, with B's points moved past A's."""
    m, k = gens_a[0].degree, gens_b[0].degree
    left = [Permutation([*g.images, *range(m, m + k)]) for g in gens_a]
    right = [Permutation([*range(m), *(m + v for v in g.images)]) for g in gens_b]
    return left + right


def random_generator_sets():
    rng = random.Random(20261018)
    sets = [random_generators(rng, rng.randint(1, 7)) for _ in range(1500)]
    for _ in range(100):
        a = random_generators(rng, rng.randint(1, 4))
        b = random_generators(rng, rng.randint(1, 4))
        sets.append(disjoint_product(a, b))
    return sets


NAMED = {
    "S4": [cycle([0, 1], 4), cycle([0, 1, 2, 3], 4)],
    "S5": [cycle([0, 1], 5), cycle(range(5), 5)],
    "Z2^3": [cycle([0, 1], 6), cycle([2, 3], 6), cycle([4, 5], 6)],
}


class TestKeyedClosure:
    """The keyed closure against Dimino's closure on whole image tuples:
    the same sorted elements and element orders, the same CapacityError
    at each cap, and keys that stay pairwise distinct after every coset,
    so that the final base tells the elements apart."""

    @pytest.fixture(autouse=True)
    def keys_stay_distinct(self, monkeypatch):
        # A later key hit can repair keys a coset merged, so check the
        # growth of each coset when it is added, not only at the end.
        real = cn.groups._Dimino._add_coset

        def add_coset(d, x):
            real(d, x)
            assert len(d.index) == d.size

        monkeypatch.setattr(cn.groups._Dimino, "_add_coset", add_coset)

    def assert_matches_oracle(self, gens, label):
        G = cn.closure(gens)
        expected = oracle.dimino_closure([g.images for g in gens], 20000)
        assert [g.images for g in G.elements] == expected, label
        base = G._dimino.base
        key = cn.groups._key(base)
        assert len({key(x) for x in expected}) == len(G) == len(expected), label
        assert 2 ** len(base) <= len(G), label
        orders = oracle.element_orders(G)
        assert cn.all_element_orders(G) == orders, label
        # The order pass in closure's numbering, before the sorted lookup.
        assert sorted(cn.groups._order_pass(G._dimino)) == sorted(orders), label
        assert cn.max_element_order(G) == max(orders), label
        return G

    def test_random_generator_sets_and_direct_products(self):
        for i, gens in enumerate(random_generator_sets()):
            self.assert_matches_oracle(gens, i)

    @pytest.mark.parametrize("name", list(NAMED))
    def test_named_groups(self, name):
        G = self.assert_matches_oracle(NAMED[name], name)
        d = G._dimino
        # Each key names the element closure numbered, read either way.
        for i in range(len(G)):
            x = d.images_of(i)
            assert d.key(x) == d._keys()[i] and d.index[d.key(x)] == i, (name, i)
            assert tuple(map(d.reader(i), range(G.degree))) == x, (name, i)
        assert sorted(map(d.images_of, range(len(G)))) == [g.images for g in G.elements]

    def test_every_cap_on_small_random_groups(self):
        # At every cap up to one past |G|: the same elements, or the same
        # message with the same count of elements built.
        for i, gens in enumerate(random_generator_sets()[:300]):
            images = [g.images for g in gens]
            size = len(oracle.dimino_closure(images, 20000))
            for max_size in range(min(size, 130) + 2):
                try:
                    expected = oracle.dimino_closure(images, max_size)
                except CapacityError as error:
                    with pytest.raises(CapacityError) as info:
                        cn.closure(gens, max_size=max_size)
                    assert str(info.value) == str(error), (i, max_size)
                else:
                    G = cn.closure(gens, max_size=max_size)
                    assert [g.images for g in G.elements] == expected, (i, max_size)
