"""Permutation layer: construction, composition, cycles, orders."""

import math
import random

import group_oracles as oracle
import pytest
from hypothesis import given, strategies as st

from cyclicnum import (
    Permutation,
    compose,
    cycle,
    cycle_lengths,
    identity,
    inverse,
    perm_order,
)


def random_perm(rng, degree):
    images = list(range(degree))
    rng.shuffle(images)
    return Permutation(images)


# hypothesis strategy: a pair/triple of same-degree permutations
same_degree_perms = st.integers(min_value=1, max_value=8).flatmap(
    lambda d: st.tuples(
        st.permutations(range(d)), st.permutations(range(d)), st.permutations(range(d))
    )
)

perm_pairs_up_to_64 = st.integers(min_value=1, max_value=64).flatmap(
    lambda d: st.tuples(st.permutations(range(d)), st.permutations(range(d)))
)


class TestConstruction:
    def test_basic(self):
        f = Permutation([1, 2, 0])
        assert f.degree == 3
        assert f(0) == 1 and f(1) == 2 and f(2) == 0
        assert f.images == (1, 2, 0)

    @pytest.mark.parametrize("bad", [[0, 0], [1, 2], [0, 1, 3], [-1, 0], []])
    def test_rejects_non_bijections(self, bad):
        with pytest.raises(ValueError):
            Permutation(bad)

    def test_identity_is_lexicographically_least(self):
        rng = random.Random(7)
        sample = [random_perm(rng, 5) for _ in range(50)] + [identity(5)]
        assert min(sample) == identity(5)

    def test_equality_and_hash(self):
        assert Permutation([1, 0]) == Permutation((1, 0))
        assert hash(Permutation([1, 0])) == hash(Permutation((1, 0)))
        assert Permutation([1, 0]) != Permutation([0, 1])


class TestCompose:
    def test_applies_right_factor_first(self):
        f = Permutation([1, 2, 0])
        g = Permutation([2, 0, 1])
        assert compose(f, g) == identity(3)  # g is f's inverse
        assert f * f == Permutation([2, 0, 1])

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            compose(Permutation([1, 0]), Permutation([1, 2, 0]))

    @given(same_degree_perms)
    def test_group_axioms(self, triple):
        f, g, h = (Permutation(t) for t in triple)
        e = identity(f.degree)
        assert (f * g) * h == f * (g * h)
        assert f * e == f and e * f == f
        assert f * inverse(f) == e and inverse(f) * f == e

    @given(perm_pairs_up_to_64)
    def test_matches_entrywise_oracle(self, pair):
        f, g = (Permutation(t) for t in pair)
        h = compose(f, g)
        assert h == oracle.compose(f, g)
        assert type(h.images) is tuple and len(h.images) == f.degree

    def test_powers(self):
        f = Permutation([1, 2, 3, 0])
        assert f**0 == identity(4)
        assert f**1 == f
        assert f**4 == identity(4)
        assert f**-1 == f.inverse()
        assert f**-3 == f  # order 4
        assert f**10 == f * f

    def test_inverse_method_matches_function(self):
        f = Permutation([2, 0, 3, 1])
        assert f.inverse() == inverse(f)


class TestCycle:
    def test_transposition(self):
        assert cycle([0, 1], 3) == Permutation([1, 0, 2])

    def test_three_cycle_with_fixed_points(self):
        c = cycle([1, 3, 4], 5)
        assert c == Permutation([0, 3, 2, 4, 1])

    def test_degenerate_cycles_are_identity(self):
        assert cycle([2], 4) == identity(4)
        assert cycle([], 4) == identity(4)

    @pytest.mark.parametrize("points,m", [([0, 0], 3), ([0, 5], 3), ([-1], 3)])
    def test_rejects_bad_points(self, points, m):
        with pytest.raises(ValueError):
            cycle(points, m)

    def test_disjoint_cycles_commute(self):
        rng = random.Random(11)
        for _ in range(100):
            m = rng.randrange(4, 12)
            points = rng.sample(range(m), rng.randrange(2, m))
            split = rng.randrange(1, len(points))
            a, b = cycle(points[:split], m), cycle(points[split:], m)
            assert a * b == b * a


class TestOrder:
    def test_examples(self):
        assert perm_order(identity(5)) == 1
        assert perm_order(Permutation([1, 2, 0])) == 3
        assert perm_order(Permutation([0, 1, 4, 3, 2])) == 2

    def test_cycle_lengths(self):
        f = Permutation([1, 0, 3, 4, 2, 5])
        assert sorted(cycle_lengths(f)) == [1, 2, 3]
        assert perm_order(f) == 6

    def test_order_matches_naive_iteration(self):
        rng = random.Random(20260825)
        for _ in range(500):
            degree = rng.randrange(1, 13)
            f = random_perm(rng, degree)
            k, x = 1, f
            e = identity(degree)
            while x != e:
                x = x * f
                k += 1
            assert perm_order(f) == k

    def test_order_is_lcm_of_cycle_lengths(self):
        rng = random.Random(99)
        for _ in range(200):
            f = random_perm(rng, rng.randrange(1, 10))
            assert perm_order(f) == math.lcm(*cycle_lengths(f))
