"""Expected answers for the benchmark, computed without importing cyclicnum.

Everything here is re-derived from first principles so that a defect in
the program cannot hide behind a shared helper: a deterministic
Miller-Rabin test, a smallest-prime-factor sieve, Euler's totient from a
factorization, and the gcd(n, phi(n)) = 1 criterion.  The answer checks
at the bottom compare the CLI's output with those numbers.
"""

from __future__ import annotations

import json
import math
from array import array

SIEVE_LIMIT = 10**6

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases: exact for n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(x: int) -> int:
    """Least prime >= x."""
    n = max(x, 2)
    while not is_prime(n):
        n += 1
    return n


def spf_table(limit: int = SIEVE_LIMIT) -> array:
    """Smallest prime factor of every composite m <= limit; 0 marks 0, 1 and primes.

    Primes are written largest first, so each composite ends up holding its
    smallest prime factor (which always satisfies p * p <= m).
    """
    small = [p for p in range(2, math.isqrt(limit) + 1) if is_prime(p)]
    spf = array("i", bytes(4 * (limit + 1)))
    for p in reversed(small):
        start = p * p
        spf[start::p] = array("i", [p]) * len(range(start, limit + 1, p))
    return spf


def factor_with_spf(n: int, spf: array) -> dict[int, int]:
    """Prime factorization {p: a} of 1 <= n < len(spf)."""
    fs: dict[int, int] = {}
    while n > 1:
        p = spf[n] or n
        fs[p] = fs.get(p, 0) + 1
        n //= p
    return fs


def phi(fs: dict[int, int]) -> int:
    out = 1
    for p, a in fs.items():
        out *= (p - 1) * p ** (a - 1)
    return out


def value(fs: dict[int, int]) -> int:
    return math.prod(p**a for p, a in fs.items())


def is_cyclic_number(fs: dict[int, int]) -> bool:
    """Every group of order n is cyclic exactly when gcd(n, phi(n)) = 1."""
    return math.gcd(value(fs), phi(fs)) == 1


def cyclic_numbers(lo: int, hi: int, spf: array) -> list[int]:
    return [n for n in range(lo, hi + 1) if is_cyclic_number(factor_with_spf(n, spf))]


def square_prime(fs: dict[int, int]) -> int | None:
    return min((p for p, a in fs.items() if a >= 2), default=None)


def arrow_pair(fs: dict[int, int]) -> tuple[int, int] | None:
    """Lexicographically least pair of distinct primes of n with p1 | p2 - 1."""
    primes = sorted(fs)
    for p1 in primes:
        for p2 in primes:
            if p1 != p2 and (p2 - 1) % p1 == 0:
                return p1, p2
    return None


def witness_shape(fs: dict[int, int]) -> tuple[str, int, int] | None:
    """(reason, degree, generator count) of the documented witness for n, or None.

    "square" uses cycles of lengths p and n/p; "arrow" acts on a p2 x p2
    grid plus a trailing cycle of length m = n/(p1*p2) when m > 1.
    """
    n = value(fs)
    p = square_prime(fs)
    if p is not None:
        return "square", p + n // p, 2
    pair = arrow_pair(fs)
    if pair is None:
        return None
    p1, p2 = pair
    m = n // (p1 * p2)
    return "arrow", p2 * p2 + (m if m > 1 else 0), 3 if m > 1 else 2


def group_count(fs: dict[int, int]) -> int:
    """Groups of order n up to isomorphism, from the classification of small orders.

    Covers n = 1, p, p^2, p^3 and pq; those are all n <= 8.
    """
    shape = sorted(fs.values())
    primes = sorted(fs)
    if shape in ([], [1]):
        return 1
    if shape == [2]:
        return 2
    if shape == [3]:
        return 5
    if shape == [1, 1]:
        p, q = primes
        return 2 if (q - 1) % p == 0 else 1
    raise ValueError(f"no classification rule for the order {value(fs)}")


# ---------------------------------------------------------------------------
# answer checks: each returns None when the output is right, else a reason

def _exit(rc: int, want: int) -> str | None:
    return None if rc == want else f"exit code {rc}, expected {want}"


def judge_check(n: int, fs: dict[int, int], as_json: bool, rc: int, out: str) -> str | None:
    ph = phi(fs)
    g = math.gcd(n, ph)
    cyclic = g == 1
    bad = _exit(rc, 0 if cyclic else 1)
    if bad:
        return bad
    factors = [[p, fs[p]] for p in sorted(fs)]
    if as_json:
        got = json.loads(out)
        pair = arrow_pair(fs)
        want = {
            "n": n,
            "factorization": factors,
            "phi": ph,
            "gcd": g,
            "squarefree_ok": square_prime(fs) is None,
            "square_prime": square_prime(fs),
            "arrow_ok": pair is None,
            "arrow_pair": list(pair) if pair else None,
            "cyclic_number": cyclic,
        }
        wrong = [k for k, v in want.items() if got.get(k) != v]
        return f"wrong fields {wrong}" if wrong else None
    lines = dict(line.split(": ", 1) for line in out.splitlines())
    text = " * ".join(f"{p}^{a}" if a > 1 else str(p) for p, a in factors) or "1"
    want = {
        "factorization": text,
        "phi(n)": str(ph),
        "gcd(n, phi(n))": str(g),
        "verdict": (
            f"every group of order {n} is cyclic"
            if cyclic
            else f"a non-cyclic group of order {n} exists"
        ),
    }
    wrong = [k for k, v in want.items() if lines.get(k) != v]
    return f"wrong lines {wrong}" if wrong else None


def judge_sieve(expected: list[int], as_json: bool, rc: int, out: str) -> str | None:
    bad = _exit(rc, 0)
    if bad:
        return bad
    got = json.loads(out) if as_json else [int(tok) for tok in out.split()]
    return None if got == expected else f"{len(got)} numbers listed, expected {len(expected)}"


def judge_witness(n: int, reason: str, rc: int, path: str) -> str | None:
    bad = _exit(rc, 0)
    if bad:
        return bad
    with open(path, encoding="utf-8") as fh:
        cert = json.load(fh)
    if cert.get("n") != n or cert.get("reason") != reason:
        return f"certificate claims n={cert.get('n')} reason={cert.get('reason')}"
    return None


def judge_verify(n: int, reason: str, rc: int, out: str) -> str | None:
    bad = _exit(rc, 0)
    if bad:
        return bad
    got = json.loads(out)
    if got.get("passed") is not True or got.get("group_size") != n or got.get("reason") != reason:
        return f"verify reported {got}"
    return None


def judge_analyze(n: int, reason: str, rc: int, out: str) -> str | None:
    bad = _exit(rc, 0)
    if bad:
        return bad
    got = json.loads(out)
    if got.get("order") != n or got.get("cyclic") is not False or got.get("abelian") != (reason == "square"):
        return f"analyze reported order={got.get('order')} cyclic={got.get('cyclic')} abelian={got.get('abelian')}"
    return None


def judge_enumerate(n: int, fs: dict[int, int], as_json: bool, rc: int, out: str) -> str | None:
    bad = _exit(rc, 0)
    if bad:
        return bad
    if as_json:
        got = json.loads(out)
        classes, cyclic = got.get("classes"), got.get("cyclic_classes")
    else:
        lines = dict(line.split(": ", 1) for line in out.splitlines())
        classes, cyclic = int(lines["classes"]), int(lines["cyclic classes"])
    if classes != group_count(fs) or cyclic != 1:
        return f"{classes} classes ({cyclic} cyclic) for order {n}"
    return None
