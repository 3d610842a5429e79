"""Finite permutation groups from generators.

A FiniteGroup is the closure of a generating set of equal-degree
permutations.  Elements are kept in a canonical order (sorted by image
table) so group equality, subgroup identity, and conjugate-subgroup
deduplication are plain set comparisons.

Closure runs on raw image tuples: one gather per generator (see
``perm``), one set of tuples in which each product is hashed once, and
Permutation wrappers only for the finished, sorted element list.

``all_element_orders`` gives every element its order in one pass.  For
each h whose order is not yet known it walks h, h^2, ... with h's gather
until the identity, k steps, and gives each power h^j the order
k / gcd(k, j).  Each power is located by binary search in the sorted
elements, log2 |G| tuple comparisons that stop at the first differing
entry.  Distinct walks generate distinct cyclic subgroups, so the pass
takes at most sum |C| steps over the cyclic subgroups C of G.  Since
|G| = sum phi(|C|), that is at most |G| * max k/phi(k), under 5 for
|G| <= 20000.

Queries work directly on the permutations at every group size.
Conjugacy classes and the conjugates of a subgroup are orbits under
conjugation by the generators alone, so neither sweeps all of G, and a
normalizer tests one element per coset.  Only the subgroup lattice,
capped at order 64, builds an index multiplication table (|G|^2
entries), and it does so inside the call.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Sequence
from math import gcd

from .errors import CapacityError
from .perm import Permutation, _gather, compose, identity, perm_order

DEFAULT_CLOSURE_CAP = 20000
DEFAULT_SUBGROUP_BOUND = 64


class _IndexTable:
    """Multiplication table over the canonical element order."""

    __slots__ = ("elems", "mul", "e")

    def __init__(self, elements: Sequence[Permutation]):
        self.elems = list(elements)
        index = {g: i for i, g in enumerate(self.elems)}
        self.mul = [[index[compose(a, b)] for b in self.elems] for a in self.elems]
        self.e = index[identity(self.elems[0].degree)]

    def close(self, seed: Iterable[int]) -> frozenset[int]:
        """Subgroup of indices generated by the seed indices."""
        gens = list(seed)
        mul = self.mul
        els = {self.e, *gens}
        frontier = list(els)
        while frontier:
            fresh = []
            for a in frontier:
                row = mul[a]
                for g in gens:
                    c = row[g]
                    if c not in els:
                        els.add(c)
                        fresh.append(c)
            frontier = fresh
        return frozenset(els)


class FiniteGroup:
    """A closed set of equal-degree permutations plus its generating set.

    Construct with closure(); the constructor itself trusts its inputs.
    Immutable once built.  The identity is always elements[0], since its
    image table sorts first.
    """

    def __init__(self, degree: int, generators: Sequence[Permutation], elements: Iterable[Permutation]):
        self.degree = degree
        self.generators = tuple(generators)
        self.elements = tuple(sorted(elements))
        self._elem_set = frozenset(self.elements)

    @property
    def order(self) -> int:
        return len(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, g: object) -> bool:
        return g in self._elem_set

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FiniteGroup)
            and self.degree == other.degree
            and self._elem_set == other._elem_set
        )

    def __hash__(self) -> int:
        return hash((self.degree, self._elem_set))

    def __repr__(self) -> str:
        return f"<FiniteGroup of order {len(self.elements)} on {self.degree} points>"


class Subgroup:
    """A subset of a parent group's elements that is itself a group.

    The public constructor verifies closure; engine functions that produce
    sets already known to be groups use the trusted path internally.
    """

    def __init__(self, parent: FiniteGroup, elements: Iterable[Permutation]):
        elems = tuple(sorted(set(elements)))
        if not elems:
            raise ValueError("a subgroup cannot be empty")
        eset = frozenset(elems)
        if not eset <= parent._elem_set:
            raise ValueError("subgroup elements must belong to the parent group")
        for a in elems:
            for b in elems:
                if a * b not in eset:
                    raise ValueError("element set is not closed under composition")
        # Closed nonempty subset of a finite group: identity and inverses follow.
        self.parent = parent
        self.elements = elems
        self._elem_set = eset

    @classmethod
    def _trusted(cls, parent: FiniteGroup, elements: Iterable[Permutation]) -> "Subgroup":
        sub = object.__new__(cls)
        sub.parent = parent
        sub.elements = tuple(sorted(elements))
        sub._elem_set = frozenset(sub.elements)
        return sub

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, g: object) -> bool:
        return g in self._elem_set

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Subgroup)
            and self.parent == other.parent
            and self._elem_set == other._elem_set
        )

    def __hash__(self) -> int:
        return hash((self.parent.degree, self._elem_set))

    def __repr__(self) -> str:
        return f"<Subgroup of order {len(self.elements)} in group of order {len(self.parent)}>"


def _require_member(G: FiniteGroup, g: Permutation, name: str = "element") -> None:
    if g not in G._elem_set:
        raise ValueError(f"{name} is not a member of the group")


def _require_subgroup_of(G: FiniteGroup, F: Subgroup) -> None:
    if F.parent is not G and F.parent != G:
        raise ValueError("subgroup belongs to a different group")


def closure(generators: Iterable[Permutation], *, max_size: int = DEFAULT_CLOSURE_CAP) -> FiniteGroup:
    """Smallest group containing the generators, by breadth-first products.

    Raises CapacityError once more than max_size elements appear, so
    runaway inputs fail cleanly instead of exhausting memory.
    """
    gens = tuple(generators)
    if not gens:
        raise ValueError("closure needs at least one generator")
    degree = gens[0].degree
    for g in gens:
        if g.degree != degree:
            raise ValueError(f"generator degree mismatch: {g.degree} vs {degree}")
    images = _closed_images([g.images for g in gens], max_size)
    return FiniteGroup(degree, gens, map(Permutation._trusted, images))


def _closed_images(gens: list[tuple[int, ...]], max_size: int) -> list[tuple[int, ...]]:
    """The sorted image tuples of the group the generators' tuples generate.

    Each product is hashed once: set.add and a length test replace a
    membership test followed by an insertion.  The set is freed on return,
    so it and the caller's Permutation wrappers are never alive together.
    """
    steps = [_gather(g) for g in gens]
    els = {tuple(range(len(gens[0]))), *gens}
    size = len(els)
    if size > max_size:
        raise CapacityError(f"group closure exceeded the cap of {max_size} elements")
    add = els.add
    frontier = list(els)
    while frontier:
        fresh = []
        for a in frontier:
            for step in steps:
                c = step(a)
                add(c)
                if len(els) > size:
                    size += 1
                    if size > max_size:
                        raise CapacityError(
                            f"group closure exceeded the cap of {max_size} elements"
                        )
                    fresh.append(c)
        frontier = fresh
    return sorted(els)


def element_order(G: FiniteGroup, g: Permutation) -> int:
    _require_member(G, g)
    return perm_order(g)


def generated_subgroup(G: FiniteGroup, f: Permutation) -> Subgroup:
    """The cyclic subgroup of all powers of f."""
    _require_member(G, f)
    e = identity(G.degree)
    powers = [e]
    x = f
    while x != e:
        powers.append(x)
        x = x * f
    return Subgroup._trusted(G, powers)


def all_element_orders(G: FiniteGroup) -> list[int]:
    """The order of every element, indexed like G.elements, in one pass.

    Walks h, h^2, ..., h^k = e only for elements h whose order is still
    unknown and sets ord(h^j) = k / gcd(k, j) on the way (see the module
    docstring for the bound on the steps).  A power an earlier walk
    reached gets the same value again, since it is its true order.
    Each power's index is found by binary search in the sorted image
    tables, so no permutation is hashed and no index is built; powers
    are kept as indices, not tuples, so the walk holds one permutation
    at a time.
    """
    elements = G.elements
    keys = [g.images for g in elements]  # sorted: the canonical order
    orders = [0] * len(elements)
    orders[0] = 1  # the identity sorts first
    shared: dict[int, int] = {}  # one int object per distinct order, not per element
    for i, h in enumerate(elements):
        if orders[i]:
            continue
        step = _gather(h.images)
        x = h.images
        powers = [i]
        while (p := bisect_left(keys, x := step(x))) != 0:
            powers.append(p)
        k = len(powers) + 1
        for j, p in enumerate(powers, 1):
            order = k // gcd(k, j)
            orders[p] = shared.setdefault(order, order)
    return orders


def is_cyclic(G: FiniteGroup) -> Permutation | None:
    """A generator of G if G is cyclic (the canonically smallest one), else None."""
    n = len(G)
    for g, k in zip(G.elements, all_element_orders(G)):
        if k == n:
            return g
    return None


def is_abelian(G: FiniteGroup) -> bool:
    # Pairwise commuting generators force the whole group to commute.
    gens = G.generators
    return all(a * b == b * a for a in gens for b in gens)


def left_cosets(G: FiniteGroup, H: Subgroup) -> list[tuple[Permutation, ...]]:
    """The blocks x*H in order of first appearance; they partition G."""
    _require_subgroup_of(G, H)
    blocks = []
    covered: set[Permutation] = set()
    for x in G.elements:
        if x in covered:
            continue
        block = tuple(sorted([x, *(x * h for h in H.elements[1:])]))
        covered.update(block)
        blocks.append(block)
    return blocks


def center(G: FiniteGroup) -> Subgroup:
    """Elements commuting with everything in G.

    Commuting with every generator is equivalent and much cheaper than a
    full pairwise scan.
    """
    gens = G.generators
    members = [a for a in G.elements if all(a * g == g * a for g in gens)]
    return Subgroup._trusted(G, members)


def subset_product(X: Subgroup | Iterable[Permutation], Y: Subgroup | Iterable[Permutation]) -> frozenset[Permutation]:
    """All products x*y with x in X and y in Y."""
    xs = tuple(X.elements if isinstance(X, Subgroup) else X)
    ys = tuple(Y.elements if isinstance(Y, Subgroup) else Y)
    return frozenset(x * y for x in xs for y in ys)


def conjugate_element(G: FiniteGroup, f: Permutation, b: Permutation) -> Permutation:
    _require_member(G, f, "f")
    _require_member(G, b, "b")
    return b.inverse() * f * b


def _orbit(start, steps) -> set:
    """Everything reachable from start by the step maps, breadth first.

    With one step per generator of a group action this is the orbit under
    the whole group: in a finite group each inverse is a positive power of
    its element, so no inverse steps are needed.
    """
    seen = {start}
    frontier = [start]
    while frontier:
        fresh = []
        for x in frontier:
            for step in steps:
                y = step(x)
                if y not in seen:
                    seen.add(y)
                    fresh.append(y)
        frontier = fresh
    return seen


def _conjugations(G: FiniteGroup) -> list:
    """For each generator b, the map x -> b^-1*x*b, as two gathers."""
    steps = []
    for b in G.generators:
        def step(x, ib=b.inverse().images, after_b=_gather(b.images)):
            return Permutation._trusted(after_b(_gather(x.images)(ib)))
        steps.append(step)
    return steps


def conjugacy_class(G: FiniteGroup, g: Permutation) -> frozenset[Permutation]:
    """All b^-1*g*b, as the orbit of g under conjugation by the generators."""
    _require_member(G, g)
    return frozenset(_orbit(g, _conjugations(G)))


def conjugate_subgroup(G: FiniteGroup, F: Subgroup, b: Permutation) -> Subgroup:
    _require_subgroup_of(G, F)
    _require_member(G, b, "b")
    ib = b.inverse()
    return Subgroup._trusted(G, (ib * f * b for f in F.elements))


def normalizer(G: FiniteGroup, F: Subgroup) -> Subgroup:
    """Elements a with F*a = a*F; always a subgroup containing F.

    N(F) is a union of left cosets of F, so one test per coset a*F keeps
    or drops the whole coset; F*a = a*F exactly when F*a lies in a*F.
    """
    keep: list[Permutation] = []
    for block in left_cosets(G, F):
        a, coset = block[0], frozenset(block)
        if all(f * a in coset for f in F.elements[1:]):
            keep.extend(block)
    return Subgroup._trusted(G, keep)


def _conjugates(G: FiniteGroup, F: Subgroup) -> set[frozenset[Permutation]]:
    """The distinct conjugates of F, each without the identity, as the
    orbit of F under conjugation by the generators."""
    steps = [lambda S, c=c: frozenset(map(c, S)) for c in _conjugations(G)]
    return _orbit(frozenset(F.elements[1:]), steps)


def count_conjugate_subgroups(G: FiniteGroup, F: Subgroup) -> int:
    """Number of distinct b^-1*F*b over b in G (including F), by enumeration."""
    _require_subgroup_of(G, F)
    return len(_conjugates(G, F))


def noncentral_union_size(G: FiniteGroup, F: Subgroup) -> int:
    """Count of non-central elements of G in the union of all conjugates of F."""
    _require_subgroup_of(G, F)
    union = set().union(*_conjugates(G, F))
    return len(union - center(G)._elem_set)


def minimal_power_in_subgroup(G: FiniteGroup, h: Permutation, F: Subgroup) -> int:
    """Least q >= 1 with h**q in F; exists because h**ord(h) is the identity."""
    _require_member(G, h, "h")
    _require_subgroup_of(G, F)
    q = 1
    x = h
    while x not in F._elem_set:
        x = x * h
        q += 1
    return q


def conjugate_only_to_powers(G: FiniteGroup, f: Permutation) -> bool:
    """True iff every conjugate of f is a power of f."""
    return conjugacy_class(G, f) <= generated_subgroup(G, f)._elem_set


def all_subgroups(G: FiniteGroup, *, max_order: int = DEFAULT_SUBGROUP_BOUND) -> list[Subgroup]:
    """Every subgroup of G, for groups of order up to max_order.

    Seeds with the cyclic subgroups and saturates under pairwise join;
    every subgroup is a join of cyclic ones, so the sweep is exhaustive.
    Results are sorted by (order, element list).
    """
    if len(G) > max_order:
        raise CapacityError(
            f"subgroup enumeration is limited to groups of order {max_order}"
        )
    table = _IndexTable(G.elements)
    mul = table.mul
    e = table.e
    seeds: set[frozenset[int]] = set()
    for i in range(len(table.elems)):
        powers = {e}
        x = i
        while x != e:
            powers.add(x)
            x = mul[x][i]
        seeds.add(frozenset(powers))
    known = set(seeds)
    work = list(seeds)
    while work:
        a = work.pop()
        for b in list(known):
            if a <= b or b <= a:
                continue
            joined = table.close(a | b)
            if joined not in known:
                known.add(joined)
                work.append(joined)
    subs = [
        Subgroup._trusted(G, (table.elems[i] for i in idxs)) for idxs in known
    ]
    subs.sort(key=lambda H: (len(H), H.elements))
    return subs


def maximal_subgroups(G: FiniteGroup, *, max_order: int = DEFAULT_SUBGROUP_BOUND) -> list[Subgroup]:
    """Proper subgroups with more than one element, maximal by inclusion.

    Note the "more than one element" clause: a group of prime order has no
    maximal subgroups under this definition, since its only proper
    subgroup is trivial.
    """
    proper = [H for H in all_subgroups(G, max_order=max_order) if 1 < len(H) < len(G)]
    return [
        H
        for H in proper
        if not any(H._elem_set < K._elem_set for K in proper)
    ]
