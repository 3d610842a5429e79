"""Integer arithmetic behind the cyclicity criterion.

Everything here is exact and deterministic: factorization, Euler's
totient, the two divisibility conditions that characterize cyclic
numbers, multiplicative orders, and a sieve for the cyclic numbers of a
range.  Every n up to MAX_INPUT = 2**63 - 1 is supported, and
factorization and everything built on it finish in bounded time.
``is_prime`` and ``factorize`` trial-divide by the primes up to 1000,
which settles every n below 10**6; above that, primality is Miller-Rabin
to the first 12 prime bases (deterministic below 3.18 * 10**23, Sorenson
and Webster 2015), and a composite rest is split by Pollard's rho with
Brent's cycle finding (Brent 1980) from fixed seeds.  The worst case
below 2**63, a product of two primes near 2**31, factors in tens of
milliseconds.  The exception is ``element_of_order(p1, p2)``, which takes
about sqrt(p2) modular steps when p1 is near sqrt(p2), some 2**31 for p2
near 2**62.  ``build_witness`` never gets there: an arrow witness has
degree at least p2, so under DEGREE_CAP its p2 is below 10000 and the
call takes at most about 100 modular steps.  Only direct library calls,
or a ``max_degree`` raised far past DEGREE_CAP, reach the slow case.

``cyclic_numbers`` is a segmented totient sieve over odd n only, with
fixed-size windows.  Two kinds of n are settled without a gcd, because a
known prime divides both n and phi(n): an even n >= 4 (2 divides phi(n)
for n >= 3) and an n with p**2 | n for a sieving prime p (p divides
phi(n)).  Every other n is decided by gcd(n, phi(n)) = 1.

The totient and the two conditions are read off a Factorization
(``phi`` and ``conditions()``), so a caller that needs several of them
factorizes n once; euler_phi and check_conditions are the one-shot forms.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

MAX_INPUT = 2**63 - 1
_SMALL_PRIME_BOUND = 1000


def _primes_up_to(bound: int) -> tuple[int, ...]:
    """The primes up to bound, by the sieve of Eratosthenes."""
    flags = bytearray([1]) * (bound + 1)
    flags[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(bound) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, bound + 1, p)))
    return tuple(itertools.compress(range(bound + 1), flags))


# The trial divisors of is_prime and factorize and the sieving primes of
# cyclic_numbers.  An integer above 1 and at most _SMALL_PRIME_BOUND**2
# with no prime factor up to _SMALL_PRIME_BOUND is itself prime.
_SMALL_PRIMES = _primes_up_to(_SMALL_PRIME_BOUND)


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


def _is_strong_probable_prime(n: int) -> bool:
    """Miller-Rabin test of an odd n > 37 to the first 12 prime bases.

    No composite below 3.18 * 10**23 passes all 12, so below MAX_INPUT the
    answer is exact (Jaeschke 1993; Sorenson and Webster 2015).
    """
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in _SMALL_PRIMES[:12]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_prime(n: int) -> bool:
    """Deterministic primality test for n up to MAX_INPUT.

    Trial division by the primes up to 1000 decides every n below 10**6;
    a larger n with no such factor gets the 12-base Miller-Rabin test.
    """
    if n > MAX_INPUT:
        raise ValueError("n exceeds the supported range (2**63 - 1)")
    for p in _SMALL_PRIMES:
        if p * p > n:
            return n > 1
        if n % p == 0:
            return False
    return _is_strong_probable_prime(n)


def _rho(n: int) -> int:
    """A proper divisor of the odd composite n: Pollard's rho, Brent's cycle finding.

    The map x -> x*x + c starts at 2 with c = 1, 2, ... in turn, so the
    result is reproducible.  Differences are multiplied in batches of 128
    between gcds; a batch that overshoots to gcd n is replayed step by step.
    """
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise AssertionError("unreachable: itertools.count never ends")


def _large_cofactor_factors(m: int) -> tuple[tuple[int, int], ...]:
    """(prime, multiplicity) pairs, primes ascending, of m with no prime factor up to 1000.

    Each part is split by rho until it is at most 10**6 (and so prime) or
    passes the Miller-Rabin test.
    """
    primes = []
    parts = [m]
    while parts:
        x = parts.pop()
        if x <= _SMALL_PRIME_BOUND**2 or _is_strong_probable_prime(x):
            primes.append(x)
        else:
            d = _rho(x)
            parts += (d, x // d)
    return tuple(sorted(Counter(primes).items()))


def factorize(n: int) -> Factorization:
    """Prime decomposition of n, primes ascending; n = 1 gives an empty factor list.

    Trial division by the primes up to 1000 stops once p*p exceeds the
    unfactored rest, which fully factors every n below 10**6.  A rest that
    is still above 10**6 is split by Pollard-Brent rho.
    """
    _check_positive(n)
    factors: list[tuple[int, int]] = []
    rest = n
    for p in _SMALL_PRIMES:
        if p * p > rest:
            break
        if rest % p == 0:
            a = 0
            while rest % p == 0:
                rest //= p
                a += 1
            factors.append((p, a))
    if rest > _SMALL_PRIME_BOUND**2:
        factors += _large_cofactor_factors(rest)
    elif rest > 1:
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


def is_cyclic_number(n: int) -> bool:
    """True iff gcd(n, phi(n)) = 1, i.e. every group of order n is cyclic."""
    return math.gcd(n, euler_phi(n)) == 1


def check_conditions(n: int) -> ConditionReport:
    """Evaluate the squarefree condition and the p1 | p2 - 1 condition for n."""
    return factorize(n).conditions()


def multiplicative_order(a: int, modulus: int) -> int:
    """Least k >= 1 with a**k = 1 mod modulus; a must be coprime to modulus.

    The order divides phi(modulus): start there and divide out each prime
    q of the exponent while a**(k/q) is still 1.
    """
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    a %= modulus
    if math.gcd(a, modulus) != 1:
        raise ValueError(f"{a} is not invertible modulo {modulus}")
    k = euler_phi(modulus)
    for q, _ in factorize(k).factors:
        while k % q == 0 and pow(a, k // q, modulus) == 1:
            k //= q
    return k


def element_of_order(p1: int, p2: int) -> int:
    """Smallest a in [2, p2) whose multiplicative order modulo p2 is exactly p1.

    Requires p1 and p2 prime with p1 dividing p2 - 1; such an a then
    exists.  The elements of order p1 are b, b**2, ..., b**(p1 - 1) for
    any b = c**((p2 - 1)/p1) other than 1, so when p1 - 1 is below
    (p2 - 1)/(p1 - 1) the least of those p1 - 1 powers is returned.
    Otherwise a scan upward from 2 finds it; p1 - 1 of the p2 - 2
    candidates qualify, so the scan is expected to stop after about
    (p2 - 1)/(p1 - 1) steps.  The cost is thus O(min(p1, (p2 - 1)/(p1 - 1)))
    modular steps, the scan's share as an expectation, and the result is
    the same either way.  The worst case, p1 near sqrt(p2), is about
    sqrt(p2) steps for either branch, which is not practical for p2 near
    MAX_INPUT.  ``build_witness`` never reaches it: an arrow witness has
    degree at least p2, so under DEGREE_CAP p2 is below 10000 and the
    call takes at most about 100 modular steps.  Only direct library
    calls, or a ``max_degree`` raised far past DEGREE_CAP, reach the
    slow case.
    """
    if not is_prime(p1):
        raise ValueError(f"p1 must be prime, got {p1}")
    if not is_prime(p2):
        raise ValueError(f"p2 must be prime, got {p2}")
    if (p2 - 1) % p1 != 0:
        raise ValueError(f"{p1} does not divide {p2} - 1")
    if (p1 - 1) ** 2 < p2 - 1:  # p1 - 1 < (p2 - 1)/(p1 - 1)
        e = (p2 - 1) // p1
        c = 2
        while (b := pow(c, e, p2)) == 1:
            c += 1
        powers = itertools.accumulate(itertools.repeat(b, p1 - 1), lambda x, y: x * y % p2)
        return min(powers)  # over b, b**2, ..., b**(p1 - 1)
    for a in range(2, p2):
        # p1 is prime, so ord(a) | p1 collapses to: a**p1 = 1 and a != 1.
        if pow(a, p1, p2) == 1:
            return a
    raise AssertionError("unreachable: an element of the requested order exists")


def cyclic_numbers(lo: int, hi: int) -> list[int]:
    """Ascending list of cyclic numbers in [lo, hi], by a segmented totient sieve.

    1 and 2 are cyclic.  An even n >= 4 is not: phi(n) is even for n >= 3,
    so 2 divides gcd(n, phi(n)).  Only odd n are sieved, in windows of
    2**12 odd integers (2**13 consecutive integers, the last window
    possibly fewer), so working memory does not grow with the range.  In
    each window every odd prime p up to min(sqrt(hi), 1000) marks the n
    that p**2 divides, which are not cyclic either (p divides phi(n)), and
    is divided out of its multiples, whose running totients gain a factor
    p - 1.  An unmarked n is then p1 * ... * pk * m with distinct sieving
    primes pi, phi(n) = (p1 - 1) ... (pk - 1) * phi(m), and the cofactor m
    is 1 or prime when it is at most 10**6 (always so when hi <= 10**6).
    A larger m has no prime factor up to 1000, so it goes straight to
    rho without trial division.  An unmarked n is cyclic when
    gcd(n, phi(n)) = 1.
    """
    _check_positive(lo, "lo")
    _check_positive(hi, "hi")
    if lo > hi:
        raise ValueError(f"empty range: lo={lo} > hi={hi}")
    limit = math.isqrt(hi)
    primes = [p for p in _SMALL_PRIMES[1:] if p <= limit]
    hits = list(range(lo, min(hi, 2) + 1))  # 1 and 2
    window = 1 << 12
    for start in range(max(lo, 3) | 1, hi + 1, 2 * window):
        # Index i of the window stands for the odd n = start + 2*i.
        size = min(window, (hi - start) // 2 + 1)
        odd = range(start, start + 2 * size, 2)
        rest = list(odd)
        phi = [1] * size
        unmarked = bytearray(b"\x01") * size
        for p in primes:
            # The odd multiples of an odd q start at i = -start / 2 mod q,
            # and (q + 1) / 2 is the inverse of 2 modulo q.
            i = -start * ((p + 1) // 2) % p
            rest[i::p] = [m // p for m in rest[i::p]]
            phi[i::p] = [f * (p - 1) for f in phi[i::p]]
            q = p * p
            if (i := -start * ((q + 1) // 2) % q) < size:
                unmarked[i::q] = bytes(len(range(i, size, q)))
        if odd[-1] > _SMALL_PRIME_BOUND**2:
            for i in itertools.compress(range(size), unmarked):
                if (m := rest[i]) > _SMALL_PRIME_BOUND**2:
                    phi[i] *= Factorization(m, _large_cofactor_factors(m)).phi
                    rest[i] = 1
        # Every unmarked rest is now 1 or a prime m, which contributes m - 1 to phi.
        survivors = zip(
            itertools.compress(odd, unmarked),
            itertools.compress(rest, unmarked),
            itertools.compress(phi, unmarked),
        )
        hits += [n for n, m, f in survivors if math.gcd(n, f * (m - 1 or 1)) == 1]
    return hits
