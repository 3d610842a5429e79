"""Number-theory layer: factorization, totient, the cyclic-number test."""

import math

import numtheory_oracles as oracle
import pytest
from hypothesis import given, settings, strategies as st

from cyclicnum import (
    check_conditions,
    cyclic_numbers,
    element_of_order,
    euler_phi,
    factorize,
    gcd,
    is_cyclic_number,
    is_prime,
    multiplicative_order,
)
from cyclicnum.numtheory import MAX_INPUT, _sieve_table

PRIMES_BELOW_100 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                    47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97]

# Primes at the top of the supported range: the largest below 2^63, the
# three largest whose squares stay below 2^63, and the primes on either
# side of 2^62 and of 2^32.
LARGEST_PRIME = 2**63 - 25
ROOT_PRIMES = (3037000493, 3037000453, 3037000429)
LARGE_PRIMES = (LARGEST_PRIME, *ROOT_PRIMES, 2**31 - 1, 2**31 + 11, 2**61 - 1,
                4611686018427387847, 4611686018427388039, 4294967291, 4294967311)

# The least strong pseudoprimes to the first 1, 2, ..., 9 prime bases
# (341550071728321 fools every base up to 17, 3825123056546413051 every
# base up to 23), and three Carmichael numbers.
STRONG_PSEUDOPRIMES = {
    2047: (23, 89),
    1373653: (829, 1657),
    25326001: (2251, 11251),
    3215031751: (151, 751, 28351),
    2152302898747: (6763, 10627, 29947),
    3474749660383: (1303, 16927, 157543),
    341550071728321: (10670053, 32010157),
    3825123056546413051: (149491, 747451, 34233211),
}
CARMICHAEL = {561: (3, 11, 17), 1105: (5, 13, 17), 41041: (7, 11, 13, 41)}


def assert_factorization(n):
    """factorize(n) multiplies back to n, in ascending distinct primes."""
    f = factorize(n)
    primes = [p for p, _ in f.factors]
    assert primes == sorted(set(primes))
    assert all(is_prime(p) and a >= 1 for p, a in f.factors)
    assert math.prod(p**a for p, a in f.factors) == n
    return f.factors


class TestFactorize:
    def test_one_has_empty_factorization(self):
        f = factorize(1)
        assert f.factors == ()
        assert f.is_squarefree

    def test_small_examples(self):
        assert factorize(12).factors == ((2, 2), (3, 1))
        assert factorize(97).factors == ((97, 1),)
        assert factorize(118).factors == ((2, 1), (59, 1))
        assert factorize(3600).factors == ((2, 4), (3, 2), (5, 2))

    def test_large_prime(self):
        assert factorize(2**31 - 1).factors == ((2**31 - 1, 1),)

    @given(st.integers(min_value=1, max_value=10**6))
    def test_product_reconstructs_input(self, n):
        f = factorize(n)
        prod = 1
        for p, a in f.factors:
            assert is_prime(p)
            assert a >= 1
            prod *= p**a
        assert prod == n

    def test_factors_sorted_and_distinct(self):
        f = factorize(2 * 2 * 3 * 7 * 7 * 7)
        assert f.factors == ((2, 2), (3, 1), (7, 3))
        assert f.primes == (2, 3, 7)
        assert not f.is_squarefree

    @pytest.mark.parametrize("bad", [0, -4, MAX_INPUT + 1])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            factorize(bad)

    def test_is_prime_matches_table(self):
        assert [p for p in range(2, 100) if is_prime(p)] == PRIMES_BELOW_100
        assert not is_prime(1)
        assert not is_prime(0)

    def test_is_prime_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            is_prime(MAX_INPUT + 1)


class TestAgainstTrialDivision:
    @given(st.integers(min_value=1, max_value=10**7))
    def test_factorize_matches_oracle(self, n):
        assert factorize(n).factors == oracle.factorize(n)

    @given(st.integers(min_value=-10, max_value=10**7))
    def test_is_prime_matches_oracle(self, n):
        assert is_prime(n) == oracle.is_prime(n)

    def test_is_prime_matches_oracle_below_20000(self):
        assert [n for n in range(20000) if is_prime(n)] == [n for n in range(20000) if oracle.is_prime(n)]

    @pytest.mark.parametrize("n", [999983**2, 1000003**2, 1009**4, 999983**2 * 1000003, 1009**2 * 1013])
    def test_squares_match_oracle(self, n):
        # A square cofactor is split by its integer square root, not by rho.
        assert factorize(n).factors == oracle.factorize(n)


class TestTopOfRange:
    """Far past the oracle's reach: checked by multiplication and is_prime."""

    @pytest.mark.parametrize("p", LARGE_PRIMES)
    def test_primes(self, p):
        assert is_prime(p)
        assert factorize(p).factors == ((p, 1),)

    @pytest.mark.parametrize("p", ROOT_PRIMES + (2**31 - 1, 2147483629, 2**21 - 9, 55103))
    def test_prime_powers(self, p):
        for a in range(2, 5):
            if p**a <= MAX_INPUT:
                assert not is_prime(p**a)
                assert factorize(p**a).factors == ((p, a),)

    @pytest.mark.parametrize(
        "p,q",
        [(ROOT_PRIMES[0], ROOT_PRIMES[1]), (ROOT_PRIMES[1], ROOT_PRIMES[2]),
         (2**31 - 1, 2**31 + 11), (4294967291, 2147483647)],
    )
    def test_balanced_semiprimes(self, p, q):
        n = p * q
        assert n <= MAX_INPUT and not is_prime(n)
        assert assert_factorization(n) == tuple((r, 1) for r in sorted((p, q)))

    def test_square_times_prime(self):
        assert assert_factorization(2 * (2**31 - 1) ** 2) == ((2, 1), (2**31 - 1, 2))
        assert assert_factorization(1000003**2 * 9223309) == ((1000003, 2), (9223309, 1))

    @pytest.mark.parametrize("n", range(MAX_INPUT - 200, MAX_INPUT + 1, 7))
    def test_near_the_limit(self, n):
        assert_factorization(n)

    @pytest.mark.parametrize("n,primes", {**STRONG_PSEUDOPRIMES, **CARMICHAEL}.items())
    def test_pseudoprimes_are_composite(self, n, primes):
        assert not is_prime(n)
        assert assert_factorization(n) == tuple((p, 1) for p in primes)


class TestTotientAndGcd:
    def test_known_values(self):
        assert euler_phi(1) == 1
        assert euler_phi(12) == 4
        assert euler_phi(97) == 96
        assert euler_phi(100) == 40

    def test_phi_equals_coprime_count_up_to_2000(self):
        # independent brute-force oracle for the totient
        for n in range(1, 2001):
            assert euler_phi(n) == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)

    @given(
        st.integers(min_value=1, max_value=10**4),
        st.integers(min_value=1, max_value=10**4),
    )
    def test_phi_multiplicative_on_coprime_pairs(self, a, b):
        if math.gcd(a, b) == 1:
            assert euler_phi(a * b) == euler_phi(a) * euler_phi(b)

    def test_gcd_examples(self):
        assert gcd(12, 8) == 4
        assert gcd(15, 8) == 1
        assert gcd(7, 7) == 7

    def test_gcd_rejects_bad_input(self):
        with pytest.raises(ValueError):
            gcd(0, 0)
        with pytest.raises(ValueError):
            gcd(-4, 6)


class TestModArith:
    def test_multiplicative_order_examples(self):
        assert multiplicative_order(2, 7) == 3
        assert multiplicative_order(3, 7) == 6
        assert multiplicative_order(1, 5) == 1

    def test_multiplicative_order_requires_coprime(self):
        with pytest.raises(ValueError):
            multiplicative_order(6, 9)
        with pytest.raises(ValueError):
            multiplicative_order(2, 1)

    def test_multiplicative_order_matches_oracle_below_300(self):
        for modulus in range(2, 300):
            for a in range(modulus):
                if math.gcd(a, modulus) == 1:
                    assert multiplicative_order(a, modulus) == oracle.multiplicative_order(a, modulus)

    @pytest.mark.parametrize("a,modulus", [(3, 10**12 + 39), (2, LARGEST_PRIME), (5, (2**31 - 1) * (2**31 + 11))])
    def test_multiplicative_order_of_large_modulus(self, a, modulus):
        k = multiplicative_order(a, modulus)
        assert euler_phi(modulus) % k == 0
        assert pow(a, k, modulus) == 1
        assert all(pow(a, k // q, modulus) != 1 for q in factorize(k).primes)


class TestElementOfOrder:
    def test_examples(self):
        assert element_of_order(2, 3) == 2
        assert element_of_order(3, 7) == 2
        assert element_of_order(2, 5) == 4
        assert element_of_order(5, 11) == 3
        assert element_of_order(2, 7) == 6

    def test_rejects_non_divisor_or_composite(self):
        with pytest.raises(ValueError):
            element_of_order(3, 5)  # 3 does not divide 4
        with pytest.raises(ValueError):
            element_of_order(4, 5)  # 4 is not prime
        with pytest.raises(ValueError):
            element_of_order(2, 9)  # 9 is not prime

    def test_order_is_exact_and_powers_distinct(self):
        pairs = [(2, 3), (2, 5), (3, 7), (5, 11), (3, 13), (11, 23)]
        for p1, p2 in pairs:
            a = element_of_order(p1, p2)
            assert pow(a, p1, p2) == 1
            powers = {pow(a, k, p2) for k in range(p1)}
            assert len(powers) == p1  # order exactly p1, not a proper divisor

    def test_matches_scan_oracle_below_2000(self):
        # Both branches run here: the least power of b for small p1, the
        # scan once (p1 - 1)**2 >= p2 - 1 (163 pairs, from (5, 11) to (499, 1997)).
        primes = [p for p in range(2, 2000) if oracle.is_prime(p)]
        pairs = [(p1, p2) for p2 in primes for p1 in primes if (p2 - 1) % p1 == 0]
        assert len(pairs) == 832
        for p1, p2 in pairs:
            assert element_of_order(p1, p2) == oracle.element_of_order(p1, p2), (p1, p2)

    @pytest.mark.parametrize("p1,expected", [(2, 2**61 - 2), (3, 636260618972345635)])
    def test_large_p2_is_fast(self, p1, expected):
        # The scan would take about 2**61 / (p1 - 1) steps here.
        assert element_of_order(p1, 2**61 - 1) == expected


class TestCyclicNumbers:
    def test_known_cyclic_numbers(self):
        for n in (1, 2, 3, 5, 7, 11, 15, 33, 35, 255):
            assert is_cyclic_number(n)

    def test_known_non_cyclic_numbers(self):
        for n in (4, 6, 8, 9, 16, 20, 21, 100):
            assert not is_cyclic_number(n)

    def test_condition_reports(self):
        r = check_conditions(20)
        assert (r.squarefree_ok, r.square_prime) == (False, 2)
        assert (r.arrow_ok, r.arrow_pair) == (False, (2, 5))
        r = check_conditions(21)
        assert (r.squarefree_ok, r.square_prime) == (True, None)
        assert (r.arrow_ok, r.arrow_pair) == (False, (3, 7))
        r = check_conditions(15)
        assert r.squarefree_ok and r.arrow_ok

    def test_square_prime_is_smallest(self):
        assert check_conditions(36).square_prime == 2
        assert check_conditions(45).square_prime == 3

    def test_arrow_pair_is_lexicographically_smallest(self):
        # 42 = 2*3*7 admits (2,3), (2,7) and (3,7); report the least
        assert check_conditions(42).arrow_pair == (2, 3)

    def test_gcd_test_agrees_with_conditions_to_5000(self):
        for n in range(1, 5001):
            r = check_conditions(n)
            assert is_cyclic_number(n) == (r.squarefree_ok and r.arrow_ok), n

    def test_cyclic_numbers_ranges(self):
        assert cyclic_numbers(1, 8) == [1, 2, 3, 5, 7]
        assert cyclic_numbers(14, 16) == [15]
        assert cyclic_numbers(20, 22) == []

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=1, max_value=10**6 - 2999))
    def test_sieve_block_matches_oracle(self, lo):
        assert cyclic_numbers(lo, lo + 2999) == oracle.cyclic_numbers(lo, lo + 2999)

    def test_sieve_across_window_boundary(self):
        # Windows hold 2**12 odd integers counted from the first odd n >= lo,
        # so they span 2**13 integers each and this range spans nine, the
        # last one partly.
        lo, hi = 10**6 - 2**16 - 2000, 10**6
        assert cyclic_numbers(lo, hi) == oracle.cyclic_numbers(lo, hi)

    def test_sieve_parity_edges(self):
        # Even and odd ends, single points, and ranges such as [4, 4] that
        # hold no odd n >= 3 and so no sieve window.
        for lo in range(1, 65):
            for hi in range(lo, 65):
                assert cyclic_numbers(lo, hi) == oracle.cyclic_numbers(lo, hi), (lo, hi)

    @settings(max_examples=20, deadline=None)
    @given(
        st.one_of(
            st.integers(min_value=10**6 - 10**4, max_value=10**6 + 10**4),
            st.integers(min_value=10**12, max_value=10**12 + 10**6),
        ),
        st.integers(min_value=0, max_value=200),
    )
    def test_sieve_short_ranges_match_totient(self, lo, span):
        # Above 10**6 a cofactor with no prime factor up to 1000 is
        # factorized, and it must agree with the square marks.
        hi = lo + span
        expected = [n for n in range(lo, hi + 1)
                    if math.gcd(n, oracle.totient(oracle.factorize(n))) == 1]
        assert cyclic_numbers(lo, hi) == expected

    def test_sieve_square_of_prime_above_1000(self):
        # 1009**2 has no prime factor up to 1000 and is not prime: only
        # factorizing it shows that 1009 divides its totient.
        lo, hi = 1009**2 - 100, 1009**2 + 100
        assert 1009**2 not in cyclic_numbers(lo, hi)
        assert cyclic_numbers(lo, hi) == oracle.cyclic_numbers(lo, hi)

    def test_sieve_above_table_square(self):
        # A range of width 301 past 10**6 sieves with the primes up to 1000
        # only, and a rest with two larger prime factors must be split by rho.
        lo, hi = 10**12, 10**12 + 300
        fact = {n: oracle.factorize(n) for n in range(lo, hi + 1)}
        assert any(sum(a for p, a in fs if p > 1000) >= 2 for fs in fact.values())
        expected = [n for n, fs in fact.items() if math.gcd(n, oracle.totient(fs)) == 1]
        assert cyclic_numbers(lo, hi) == expected

    def test_sieve_at_the_limit(self):
        # Past the oracle's reach: each factorization is checked by multiplication.
        lo = MAX_INPUT - 300
        expected = [n for n in range(lo, MAX_INPUT + 1)
                    if math.gcd(n, oracle.totient(assert_factorization(n))) == 1]
        assert cyclic_numbers(lo, MAX_INPUT) == expected

    @pytest.mark.parametrize("lo, width", [(10**6, 10**5), (4 * 10**6, 5000), (10**9, 4000), (10**12, 2000)])
    def test_sieve_bound_follows_the_range(self, lo, width):
        # Sieving bounds 1048, 2001, 4001 and 2001, all above 1000; checked
        # against is_cyclic_number, which factorizes each n.
        assert cyclic_numbers(lo, lo + width) == [n for n in range(lo, lo + width + 1) if is_cyclic_number(n)]

    @pytest.mark.parametrize("bound", [1000, 5000])
    def test_sieve_mark_table(self, bound):
        # The odd primes p up to bound; p**2 and p*r for each odd prime
        # r | p - 1, ascending; and 1/2 mod x for each prime and modulus.
        primes = [p for p in range(3, bound + 1) if oracle.is_prime(p)]
        moduli = sorted(q for p in primes for q in (p * p, *(p * r for r, _ in oracle.factorize(p - 1) if r > 2)))
        halves = tuple(tuple(pow(2, -1, x) for x in column) for column in (primes, moduli))
        assert _sieve_table(bound) == (tuple(primes), tuple(moduli), *halves)

    def test_cyclic_numbers_rejects_bad_range(self):
        with pytest.raises(ValueError):
            cyclic_numbers(5, 4)
        with pytest.raises(ValueError):
            cyclic_numbers(0, 4)
