"""Integer arithmetic behind the cyclicity criterion.

Everything here is exact and deterministic: trial-division factorization,
Euler's totient, gcd/Bezout, the two divisibility conditions that
characterize cyclic numbers, and small multiplicative-order searches.
Intended scale is n up to about 10**6; inputs are accepted up to 2**63 - 1
but large prime inputs will be slow (plain trial division, no sieving).

The totient and the two conditions are read off a Factorization
(``phi`` and ``conditions()``), so a caller that needs several of them
factorizes n once; euler_phi and check_conditions are the one-shot forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

MAX_INPUT = 2**63 - 1


def _check_positive(n: int, name: str = "n") -> None:
    if n < 1:
        raise ValueError(f"{name} must be a positive integer, got {n}")
    if n > MAX_INPUT:
        raise ValueError(f"{name} exceeds the supported range (2**63 - 1)")


@dataclass(frozen=True)
class Factorization:
    """Prime decomposition of n as (prime, multiplicity) pairs, primes ascending."""

    n: int
    factors: tuple[tuple[int, int], ...]

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    @property
    def is_squarefree(self) -> bool:
        return all(a == 1 for _, a in self.factors)

    @property
    def phi(self) -> int:
        """Euler's totient of n: the product of (p - 1) * p**(a - 1)."""
        phi = 1
        for p, a in self.factors:
            phi *= (p - 1) * p ** (a - 1)
        return phi

    def conditions(self) -> ConditionReport:
        """The squarefree condition and the p1 | p2 - 1 condition for n."""
        square_prime = next((p for p, a in self.factors if a >= 2), None)
        primes = self.primes
        arrow_pair = next(
            ((p1, p2) for p1 in primes for p2 in primes if p1 != p2 and (p2 - 1) % p1 == 0),
            None,
        )
        return ConditionReport(
            n=self.n,
            squarefree_ok=square_prime is None,
            square_prime=square_prime,
            arrow_ok=arrow_pair is None,
            arrow_pair=arrow_pair,
        )


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the two arithmetic conditions equivalent to gcd(n, phi(n)) = 1.

    ``squarefree_ok`` is False exactly when some prime divides n twice;
    ``square_prime`` then holds the smallest such prime.  ``arrow_ok`` is
    False exactly when some ordered pair of distinct primes (p1, p2) of n
    satisfies p1 | p2 - 1; ``arrow_pair`` then holds the lexicographically
    smallest such pair.
    """

    n: int
    squarefree_ok: bool
    square_prime: int | None
    arrow_ok: bool
    arrow_pair: tuple[int, int] | None


def is_prime(n: int) -> bool:
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


def factorize(n: int) -> Factorization:
    """Prime decomposition by trial division; n = 1 gives an empty factor list."""
    _check_positive(n)
    factors: list[tuple[int, int]] = []
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
    return Factorization(n, tuple(factors))


def euler_phi(n: int) -> int:
    """Count of integers in 1..n coprime to n, via the factorization of n."""
    return factorize(n).phi


def gcd(a: int, b: int) -> int:
    if a < 0 or b < 0:
        raise ValueError("gcd arguments must be nonnegative")
    if a == 0 and b == 0:
        raise ValueError("gcd(0, 0) is undefined")
    return math.gcd(a, b)


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: returns (g, x, y) with a*x + b*y = g = gcd(a, b)."""
    if a < 0 or b < 0:
        raise ValueError("ext_gcd arguments must be nonnegative")
    if a == 0 and b == 0:
        raise ValueError("ext_gcd(0, 0) is undefined")
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    return old_r, old_x, old_y


def is_cyclic_number(n: int) -> bool:
    """True iff gcd(n, phi(n)) = 1, i.e. every group of order n is cyclic."""
    return math.gcd(n, euler_phi(n)) == 1


def check_conditions(n: int) -> ConditionReport:
    """Evaluate the squarefree condition and the p1 | p2 - 1 condition for n."""
    return factorize(n).conditions()


def mod_pow(base: int, exp: int, modulus: int) -> int:
    """base**exp reduced into [0, modulus); modulus must be at least 2."""
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    if exp < 0:
        raise ValueError(f"exponent must be nonnegative, got {exp}")
    if abs(base) > MAX_INPUT or exp > MAX_INPUT or modulus > MAX_INPUT:
        raise ValueError("mod_pow argument exceeds the supported range (2**63 - 1)")
    return pow(base, exp, modulus)


def multiplicative_order(a: int, modulus: int) -> int:
    """Least k >= 1 with a**k = 1 mod modulus; a must be coprime to modulus."""
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    a %= modulus
    if math.gcd(a, modulus) != 1:
        raise ValueError(f"{a} is not invertible modulo {modulus}")
    k = 1
    acc = a
    while acc != 1:
        acc = acc * a % modulus
        k += 1
    return k


def element_of_order(p1: int, p2: int) -> int:
    """Smallest a in [2, p2) whose multiplicative order modulo p2 is exactly p1.

    Requires p1 and p2 prime with p1 dividing p2 - 1; existence is then
    guaranteed, and ascending search keeps the result reproducible.
    """
    if not is_prime(p1):
        raise ValueError(f"p1 must be prime, got {p1}")
    if not is_prime(p2):
        raise ValueError(f"p2 must be prime, got {p2}")
    if (p2 - 1) % p1 != 0:
        raise ValueError(f"{p1} does not divide {p2} - 1")
    for a in range(2, p2):
        # p1 is prime, so ord(a) | p1 collapses to: a**p1 = 1 and a != 1.
        if pow(a, p1, p2) == 1:
            return a
    raise AssertionError("unreachable: an element of the requested order exists")


def cyclic_numbers(lo: int, hi: int) -> list[int]:
    """Ascending list of cyclic numbers in [lo, hi]."""
    _check_positive(lo, "lo")
    _check_positive(hi, "hi")
    if lo > hi:
        raise ValueError(f"empty range: lo={lo} > hi={hi}")
    return [n for n in range(lo, hi + 1) if is_cyclic_number(n)]
