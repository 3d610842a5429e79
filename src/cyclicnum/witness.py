"""Explicit non-cyclic groups of a requested order.

For any n that fails the cyclic-number test there is a concrete witness:

* "square": some prime p has p*p dividing n.  Two disjoint cycles of
  lengths p and n/p generate an abelian group of order n in which no
  element has order above n/p.
* "arrow": n is squarefree but some prime pair p1 < p2 dividing n has
  p1 dividing p2 - 1.  On the p2*p2 grid (point (x, y) stored at index
  x*p2 + y) the maps (x, y) -> (a^k * x, l*x + y) with a of
  multiplicative order p1 mod p2 form a non-abelian group of order
  p1*p2; a trailing cycle of length n/(p1*p2) pads the order up to n.

A certificate records n, which construction was used, its parameters and
the generators.  Verification recomputes the closure from the generators
alone and checks the order and non-cyclicity claims from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

from .errors import CapacityError
from .groups import all_element_orders, closure
from .numtheory import (
    _check_positive,
    check_conditions,
    element_of_order,
    is_prime,
    multiplicative_order,
)
from .perm import Permutation, cycle

DEGREE_CAP = 10000

Reason = Literal["square", "arrow"]


# Both validators test primality last: once the degree formula holds, each
# prime is below the degree, which the generators' image lists spell out.

def _validate_square_params(n: int, params: dict, degree: int) -> None:
    p = params.get("p")
    if not isinstance(p, int) or p < 2:
        raise ValueError("square witness needs a prime parameter p")
    if n % (p * p) != 0:
        raise ValueError(f"p^2 = {p * p} does not divide n = {n}")
    if degree != p + n // p:
        raise ValueError(f"square witness of n = {n}, p = {p} must have degree {p + n // p}")
    if not is_prime(p):
        raise ValueError("square witness needs a prime parameter p")


def _validate_arrow_params(n: int, params: dict, degree: int) -> None:
    p1, p2, a = params.get("p1"), params.get("p2"), params.get("a")
    for name, value in (("p1", p1), ("p2", p2)):
        if not isinstance(value, int) or value < 2:
            raise ValueError(f"arrow witness needs a prime parameter {name}")
    if (p2 - 1) % p1 != 0:
        raise ValueError(f"p1 = {p1} does not divide p2 - 1 = {p2 - 1}")
    if n % (p1 * p2) != 0:
        raise ValueError(f"p1*p2 = {p1 * p2} does not divide n = {n}")
    m = n // (p1 * p2)
    expected = p2 * p2 + (m if m > 1 else 0)
    if degree != expected:
        raise ValueError(f"arrow witness of n = {n} must have degree {expected}")
    for name, value in (("p1", p1), ("p2", p2)):
        if not is_prime(value):
            raise ValueError(f"arrow witness needs a prime parameter {name}")
    # With p1 and p2 prime and a != 1, a^p1 = 1 means a has order exactly p1.
    if not isinstance(a, int) or not 1 < a < p2 or pow(a, p1, p2) != 1:
        raise ValueError(f"parameter a must have multiplicative order {p1} mod {p2}")


@dataclass(frozen=True)
class WitnessCertificate:
    """Claim that a specific generated group is non-cyclic of order n.

    Field types (``n`` and ``degree`` are ints, not floats or bools), the
    generator degrees and construction arithmetic (divisibility, the degree
    formula, primality, the order of a) are checked eagerly and in that
    order, so a certificate that parses is at least internally consistent,
    and no check costs more than the size of its generators allows.
    Whether the generators really produce a non-cyclic group of order n is
    deliberately left to verify_certificate.
    """

    n: int
    reason: Reason
    params: dict = field(compare=False)
    degree: int
    generators: tuple[Permutation, ...]

    def __post_init__(self):
        for name in ("n", "degree"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"certificate field {name!r} must be an integer, got {value!r}")
        _check_positive(self.n)
        if not self.generators:
            raise ValueError("a witness needs at least one generator")
        for g in self.generators:
            if g.degree != self.degree:
                raise ValueError("generator degree does not match the certificate degree")
        if self.reason == "square":
            _validate_square_params(self.n, self.params, self.degree)
        elif self.reason == "arrow":
            _validate_arrow_params(self.n, self.params, self.degree)
        else:
            raise ValueError(f"unknown witness reason {self.reason!r}")


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of recomputing a certificate's claims from its generators."""

    order_ok: bool
    noncyclic_ok: bool
    group_size: int
    max_element_order: int

    @property
    def passed(self) -> bool:
        return self.order_ok and self.noncyclic_ok


def witness_square_case(n: int, p: int, *, max_degree: int = DEGREE_CAP) -> WitnessCertificate:
    """Witness for p*p | n: disjoint cycles of lengths p and n/p."""
    _check_positive(n)
    if not is_prime(p) or n % (p * p) != 0:
        raise ValueError(f"square case needs a prime p with p^2 | n; got p = {p}, n = {n}")
    degree = p + n // p
    if degree > max_degree:
        raise CapacityError(f"witness degree {degree} exceeds the cap of {max_degree}")
    gens = (
        cycle(range(p), degree),
        cycle(range(p, degree), degree),
    )
    return WitnessCertificate(n, "square", {"p": p}, degree, gens)


def affine_map(p1: int, p2: int, a: int, k: int, l: int) -> Permutation:
    """The permutation (x, y) -> (a^k * x mod p2, (l*x + y) mod p2) on p2*p2 points.

    Composing two of these (right factor applied first) gives
    (k, l) * (k', l') = (k + k' mod p1, l * a^k' + l' mod p2), which is how
    the arrow-case group multiplies.
    """
    if not (is_prime(p1) and is_prime(p2)):
        raise ValueError("p1 and p2 must be prime")
    if (p2 - 1) % p1 != 0:
        raise ValueError(f"p1 = {p1} must divide p2 - 1 = {p2 - 1}")
    if not 1 < a < p2 or multiplicative_order(a, p2) != p1:
        raise ValueError(f"a = {a} must have multiplicative order {p1} mod {p2}")
    if not 0 <= k < p1:
        raise ValueError(f"k must lie in [0, {p1})")
    if not 0 <= l < p2:
        raise ValueError(f"l must lie in [0, {p2})")
    ak = pow(a, k, p2)
    images = [0] * (p2 * p2)
    for x in range(p2):
        akx = ak * x % p2
        lx = l * x
        base = akx * p2
        xrow = x * p2
        for y in range(p2):
            images[xrow + y] = base + (lx + y) % p2
    return Permutation._trusted(tuple(images))


def _embed(f: Permutation, degree: int) -> Permutation:
    """Extend f to a larger degree by fixing the new points."""
    return Permutation._trusted(tuple(f.images) + tuple(range(f.degree, degree)))


def witness_arrow_case(n: int, p1: int, p2: int, *, max_degree: int = DEGREE_CAP) -> WitnessCertificate:
    """Witness for p1 | p2 - 1 with p1*p2 | n, n squarefree in the intended use.

    Generators are the affine maps (1, 0) and (0, 1); when n exceeds p1*p2
    a trailing cycle on n/(p1*p2) extra points restores the full order.
    """
    _check_positive(n)
    if not (is_prime(p1) and is_prime(p2)) or (p2 - 1) % p1 != 0:
        raise ValueError(f"arrow case needs primes with p1 | p2 - 1; got {p1}, {p2}")
    if n % (p1 * p2) != 0:
        raise ValueError(f"p1*p2 = {p1 * p2} must divide n = {n}")
    m = n // (p1 * p2)
    grid = p2 * p2
    degree = grid + (m if m > 1 else 0)
    if degree > max_degree:
        raise CapacityError(f"witness degree {degree} exceeds the cap of {max_degree}")
    a = element_of_order(p1, p2)
    gens = [
        _embed(affine_map(p1, p2, a, 1, 0), degree),
        _embed(affine_map(p1, p2, a, 0, 1), degree),
    ]
    if m > 1:
        gens.append(cycle(range(grid, degree), degree))
    return WitnessCertificate(n, "arrow", {"p1": p1, "p2": p2, "a": a}, degree, tuple(gens))


def build_witness(n: int, *, max_degree: int = DEGREE_CAP) -> WitnessCertificate | None:
    """A witness certificate for n, or None when n is a cyclic number.

    When n is not squarefree the square construction is preferred even if
    an arrow pair also exists.
    """
    report = check_conditions(n)
    if report.square_prime is not None:
        return witness_square_case(n, report.square_prime, max_degree=max_degree)
    if report.arrow_pair is not None:
        p1, p2 = report.arrow_pair
        return witness_arrow_case(n, p1, p2, max_degree=max_degree)
    return None


def verify_certificate(cert: WitnessCertificate, *, max_size: int = 20000) -> VerificationReport:
    """Recompute the group from the certificate's generators and re-check it.

    Nothing is taken on faith: the closure is rebuilt and its size compared
    with n.  One pass computes every element order; since each order
    divides |G|, the group is cyclic exactly when the largest reaches |G|.
    """
    G = closure(cert.generators, max_size=max_size)
    max_order = max(all_element_orders(G))
    return VerificationReport(
        order_ok=len(G) == cert.n,
        noncyclic_ok=max_order < len(G),
        group_size=len(G),
        max_element_order=max_order,
    )
