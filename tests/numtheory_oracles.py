"""Slow reference implementations that the number-theory tests compare against.

These are the trial-division algorithms ``cyclicnum.numtheory`` used
before it gained a sieve, Miller-Rabin and Pollard-Brent rho: ``is_prime``
and ``factorize`` try every candidate divisor up to the square root (about
a minute near 10**17), ``cyclic_numbers`` factorizes each integer of the
range on its own, ``multiplicative_order`` multiplies until it reaches 1,
and ``element_of_order`` scans upward from 2 (linear in p2).  They share
no code with the library, so agreement is a real check.
"""

import math


def is_prime(n):
    """Deterministic trial-division primality test."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    d = 5
    limit = math.isqrt(n)
    while d <= limit:
        if n % d == 0 or n % (d + 2) == 0:
            return False
        d += 6
    return True


def factorize(n):
    """(prime, multiplicity) pairs of n by trial division, primes ascending."""
    factors = []
    rest = n
    for p in (2, 3):
        if rest % p == 0:
            a = 0
            while rest % p == 0:
                rest //= p
                a += 1
            factors.append((p, a))
    d = 5
    while d * d <= rest:
        for p in (d, d + 2):
            if rest % p == 0:
                a = 0
                while rest % p == 0:
                    rest //= p
                    a += 1
                factors.append((p, a))
        d += 6
    if rest > 1:
        factors.append((rest, 1))
    return tuple(factors)


def totient(factors):
    """Euler's phi of the number with these (prime, multiplicity) pairs."""
    return math.prod((p - 1) * p ** (a - 1) for p, a in factors)


def cyclic_numbers(lo, hi):
    """Every n in [lo, hi] with gcd(n, phi(n)) = 1, one factorization each."""
    return [n for n in range(lo, hi + 1) if math.gcd(n, totient(factorize(n))) == 1]


def multiplicative_order(a, modulus):
    """Least k >= 1 with a**k = 1 mod modulus, by repeated multiplication."""
    a %= modulus
    k = 1
    acc = a
    while acc != 1:
        acc = acc * a % modulus
        k += 1
    return k


def element_of_order(p1, p2):
    """Smallest a in [2, p2) with a**p1 = 1 mod p2, by an upward scan (p1 prime)."""
    for a in range(2, p2):
        if pow(a, p1, p2) == 1:
            return a
    raise AssertionError(f"no element of order {p1} modulo {p2}")
