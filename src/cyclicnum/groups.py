"""Finite permutation groups from generators.

A FiniteGroup is the closure of a generating set of equal-degree
permutations.  Elements are kept in a canonical order (sorted by image
table) so group equality, subgroup identity, and conjugate-subgroup
deduplication are plain set comparisons.

Closure is Dimino's algorithm (Butler, *Fundamental Algorithms for
Permutation Groups*, LNCS 559, 1991; Holt, Eick and O'Brien, *Handbook of
Computational Group Theory*, 2005) on raw image tuples, with the gathers
of ``perm`` as products.  It starts from the longest cyclic subgroup
<g> over the generators, found by walking each generator's powers until
the identity.  Each further generator g outside the group H built so far
grows H to <H, g> as a union of right cosets H*x: the coset H*g first,
then H*(r*s) for every coset representative r and generator s used so
far whose product r*s is not yet in the set.  Distinct right cosets are
disjoint, so a coset goes into the set with no membership test: each
element costs one product and one hash, and each representative r one
product and one membership test per generator.  Permutation wrappers are
made only for the finished, sorted element list.

``all_element_orders`` and the subgroup lattice key each element by its
images on a base: a list of points whose images tell the elements of G
apart (Seress, *Permutation Group Algorithms*, 2003).  ``_base`` picks
the points by a check on the element list closure built: while two
elements have equal images on the points, it appends the first point
where they differ.  Each new point strictly shrinks the pointwise
stabilizer, so there are at most log2 |G| of them, 15 under the
closure cap.  Neither query then builds a product or hashes a whole
image tuple.

The order pass follows, for each element h whose order is not yet
known, h's cycle through each base point.  ord(h) is the lcm of those
cycle lengths, k, since the key is injective on G, and the key of h^j
is each cycle's entry at j mod its length, which a dict from key to
index locates; h^j gets the order k / gcd(k, j).  Distinct walks
generate distinct cyclic subgroups, so the pass follows at most
sum |C| cycle steps per base point over the cyclic subgroups C of G.
Since |G| = sum phi(|C|), that is at most |G| * max k/phi(k), under 5
for |G| <= 20000.

Queries work directly on the permutations at every group size.
Conjugacy classes and the conjugates of a subgroup are orbits under
conjugation by the generators alone, so neither sweeps all of G, and a
normalizer tests one element per coset.  Only the subgroup lattice,
capped at order 64, builds an index multiplication table (|G|^2
entries), inside the call: a*b sends each base point to a's image of
b's image of it, so the key of a*b is a's images at b's key, one lookup
per base point.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Sequence
from functools import cached_property
from math import gcd, lcm
from operator import itemgetter

from .errors import CapacityError
from .perm import Permutation, _gather, perm_order

DEFAULT_CLOSURE_CAP = 20000
DEFAULT_SUBGROUP_BOUND = 64


class _ElementSet:
    """A sorted tuple of permutations, shared by groups and subgroups.

    The frozenset of the elements is built on first use: verify never
    tests membership, and each Permutation hash reads its whole image
    tuple.
    """

    elements: tuple[Permutation, ...]

    @cached_property
    def _elem_set(self) -> frozenset[Permutation]:
        return frozenset(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, g: object) -> bool:
        return g in self._elem_set


class FiniteGroup(_ElementSet):
    """A closed set of equal-degree permutations plus its generating set.

    Construct with closure(); the constructor itself trusts its inputs.
    Immutable once built.  The identity is always elements[0], since its
    image table sorts first.
    """

    def __init__(self, degree: int, generators: Sequence[Permutation], elements: Iterable[Permutation]):
        self.degree = degree
        self.generators = tuple(generators)
        self.elements = tuple(sorted(elements))

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


class Subgroup(_ElementSet):
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
        return sub

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
    """Smallest group containing the generators, by Dimino's algorithm.

    Grows the longest cyclic subgroup of a generator by one generator at
    a time, each stage a union of right cosets of the group before it
    (see the module docstring), so every element is built by one product
    and hashed once.  Raises CapacityError, saying how many elements were
    built, before the count would pass max_size, so runaway inputs fail
    cleanly instead of exhausting memory.
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

    The set is freed on return, so it and the caller's Permutation
    wrappers are never alive together.
    """
    e = tuple(range(len(gens[0])))

    def over(built: int) -> CapacityError:
        return CapacityError(
            f"group closure exceeded the cap of {max_size} elements "
            f"({built} built, degree {len(e)})"
        )

    if max_size < 1:
        raise over(0)
    # The longest walk g, g^2, ... back to the identity is the first stage.
    longest, first = [e], e
    for g in gens:
        step = _gather(g)
        walk = [e]
        x = g
        while x != e:
            if len(walk) == max_size:
                raise over(max_size)
            walk.append(x)
            x = step(x)
        if len(walk) > len(longest):
            longest, first = walk, g
    els = set(longest)
    del longest

    def add_coset(x: tuple[int, ...], H: list[tuple[int, ...]]) -> None:
        # H*x is a right coset outside the set, so disjoint from it.
        if len(els) + len(H) > max_size:
            raise over(len(els))
        els.update(map(_gather(x), H))

    used = [_gather(first)]
    # Each generator g outside the set grows H, the set so far, to a union
    # of right cosets: H*g, then H*x for each new x = r*s, where r runs
    # over the representatives breadth first and s over the generators used.
    for g in gens:
        if g in els:
            continue
        used.append(_gather(g))
        H = list(els)
        add_coset(g, H)
        reps = [g]
        for r in reps:  # grows while it is read
            for step in used:
                x = step(r)
                if x not in els:
                    add_coset(x, H)
                    reps.append(x)
    return sorted(els)


def element_order(G: FiniteGroup, g: Permutation) -> int:
    _require_member(G, g)
    return perm_order(g)


def generated_subgroup(G: FiniteGroup, f: Permutation) -> Subgroup:
    """The cyclic subgroup of all powers of f, from closure's walk."""
    _require_member(G, f)
    return Subgroup._trusted(G, map(Permutation._trusted, _closed_images([f.images], len(G))))


def _key(points: Sequence[int]):
    """The map from an image tuple to its images at the points.

    It gives a bare int for one point, a tuple for several and () for none.
    """
    return itemgetter(*points) if points else lambda images: ()


def _base(images: Sequence[tuple[int, ...]]) -> list[int]:
    """Points whose images tell the given distinct image tuples apart.

    Starts with no points and, while two tuples have equal images on the
    points, appends the first point where they differ, so the result is a
    base by a check on every tuple, not by assumption.  On the elements of
    a group G each new point strictly shrinks the pointwise stabilizer of
    the points, so there are at most log2 |G| of them.
    """
    base: list[int] = []
    while True:
        key = _key(base)
        seen: dict = {}
        for x in images:
            y = seen.setdefault(key(x), x)
            if y is not x:
                base.append(next(i for i, (u, v) in enumerate(zip(x, y)) if u != v))
                break
        else:
            return base


def _power_keys(images: tuple[int, ...], base: Sequence[int]) -> list:
    """The keys on the base of h^0, h^1, ..., h^(k-1), where k = ord(h).

    h^j sends a base point to entry j mod L of the point's cycle under h,
    of length L; on a base the key is injective, so k is the lcm of the
    cycle lengths.
    """
    cycles = []
    for b in base:
        cyc = [b]
        y = images[b]
        while y != b:
            cyc.append(y)
            y = images[y]
        cycles.append(cyc)
    if len(cycles) == 1:
        return cycles[0]
    k = lcm(*map(len, cycles))
    return list(zip(*[cyc * (k // len(cyc)) for cyc in cycles]))


def all_element_orders(G: FiniteGroup) -> list[int]:
    """The order of every element, indexed like G.elements, in one pass.

    Keys every element by its images on a checked base (see the module
    docstring).  For each element h whose order is still unknown it
    follows h's cycle through each base point, which gives the keys of
    h, h^2, ..., h^k = e, and sets ord(h^j) = k / gcd(k, j).  A power an
    earlier walk reached gets the same value again, since it is its true
    order.  No product is built and no whole image tuple is hashed.
    """
    images = [g.images for g in G.elements]
    base = _base(images)
    index = {k: i for i, k in enumerate(map(_key(base), images))}
    orders = [0] * len(images)
    orders[0] = 1  # the identity sorts first
    shared: dict[int, int] = {}  # one int object per distinct order, not per element
    for i, x in enumerate(images):
        if orders[i]:
            continue
        powers = _power_keys(x, base)
        k = len(powers)
        for j, p in enumerate(map(index.__getitem__, powers[1:]), 1):
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


def all_subgroups(G: FiniteGroup) -> list[Subgroup]:
    """Every subgroup of G, for groups of order up to DEFAULT_SUBGROUP_BOUND (64).

    Seeds with the cyclic subgroups and saturates under pairwise join
    (Holt, Eick and O'Brien, *Handbook of Computational Group Theory*,
    2005); every subgroup is a join of cyclic ones, so the sweep is
    exhaustive.  Works on indices into G.elements, with an index table
    built from each element's images on a checked base, one lookup per
    base point per entry (see the module docstring).  Results are sorted
    by (order, element list).
    """
    if len(G) > DEFAULT_SUBGROUP_BOUND:
        raise CapacityError(
            f"subgroup enumeration is limited to groups of order {DEFAULT_SUBGROUP_BOUND}"
        )
    images = [g.images for g in G.elements]
    base = _base(images)
    index = {k: i for i, k in enumerate(map(_key(base), images))}
    # right[b][a] is the index of a*b; the identity is index 0.  a*b sends
    # each base point to a's image of b's image of it, so its key is a's
    # images at b's key.
    right = [[index[k] for k in map(_key([b[p] for p in base]), images)] for b in images]

    def close(seed: Collection[int]) -> frozenset[int]:
        """Subgroup of indices generated by the seed indices."""
        steps = [right[b] for b in seed]
        els = {0, *seed}
        frontier = list(els)
        while frontier:
            fresh = []
            for a in frontier:
                for step in steps:
                    c = step[a]
                    if c not in els:
                        els.add(c)
                        fresh.append(c)
            frontier = fresh
        return frozenset(els)

    known = {close([i]) for i in range(len(images))}
    work = list(known)
    while work:
        a = work.pop()
        for b in list(known):
            if a <= b or b <= a:
                continue
            joined = close(a | b)
            if joined not in known:
                known.add(joined)
                work.append(joined)
    elements = G.elements
    subs = [Subgroup._trusted(G, (elements[i] for i in idxs)) for idxs in known]
    subs.sort(key=lambda H: (len(H), H.elements))
    return subs


def maximal_subgroups(G: FiniteGroup) -> list[Subgroup]:
    """Proper subgroups with more than one element, maximal by inclusion.

    Note the "more than one element" clause: a group of prime order has no
    maximal subgroups under this definition, since its only proper
    subgroup is trivial.
    """
    proper = [H for H in all_subgroups(G) if 1 < len(H) < len(G)]
    return [
        H
        for H in proper
        if not any(H._elem_set < K._elem_set for K in proper)
    ]
