"""Finite permutation groups from generators.

A FiniteGroup is the closure of a generating set of equal-degree
permutations, and a Subgroup is a set of closure's numbers for its
parent's elements.  Two groups are equal when they have the same degree
and order and one holds the other's generators.

Closure is Dimino's algorithm (Butler, *Fundamental Algorithms for
Permutation Groups*, LNCS 559, 1991; Holt, Eick and O'Brien, *Handbook of
Computational Group Theory*, 2005) on keys.  An element's key is its
images on a short list of base points (Seress, *Permutation Group
Algorithms*, 2003): a bare int for one point, a tuple for several.  The
first stage is the cyclic group <g> of the generator of largest order.
Its keys come from g's cycles, since g^j sends a point j steps along its
cycle, and its base points are cycles whose lengths have lcm ord(g).
Each further generator g outside the group H built so far grows H to
<H, g> as a union of left cosets x*H: g*H first, then (s*r)*H for every
coset representative r and generator s used so far whose product s*r
is not yet in the group.  x*h sends a base point b to x's image of h's
image of b, so the keys of x*H at b are one C gather of x's images at
H's column of images of b.  The representatives s*r, and the elements
that key hits name (below), are the only whole image tuples closure
builds.

Keys are trusted in two places, and both are checked:

- a membership hit: s*r is in the group only if the element its key
  names, built as a whole tuple from its representatives and a power of
  g, equals s*r;
- coset growth: a coset x*H with x outside the group is disjoint from
  it, so it must add exactly |H| new keys.

When either check fails, two distinct elements have equal keys.  The
first point where they differ is appended to the base, and every key
gains its image there.  So the keys of everything built stay pairwise
distinct, a key the group lacks means an element outside it, and the
final base tells every element of G apart: the checks suffice.  The new
point is moved by x^-1*y, an element of G that fixes the earlier points,
so each point strictly shrinks their pointwise stabilizer in G: there
are at most log2 |G| points, 15 under the closure cap.

``FiniteGroup.elements``, sorted by image table, is built from closure's
stages the first time it is read, with about one product per element:
a stage's left cosets r*H are, inverted, the right cosets H*r^-1, and
one gather maps H to each.  ``len(G)`` and the order pass read only the
keys.

The order pass follows, for each element h whose order is not yet
known, h's cycle through each base point.  ord(h) is the lcm of those
cycle lengths, k, since the key is injective on G, and the key of h^j
is each cycle's entry at j mod its length, which closure's dict from
key to element locates; h^j gets the order k / gcd(k, j).  The pass
reads h only at the points on those cycles, through h's
representatives and power of g.  Distinct walks generate
distinct cyclic subgroups, so the pass follows at most sum |C| cycle
steps per base point over the cyclic subgroups C of G.  Since
|G| = sum phi(|C|), that is at most |G| * max k/phi(k), under 5 for
|G| <= 20000.  ``all_element_orders`` runs this one pass and reads each
sorted element's order at its key.  ``max_element_order`` runs it only
for a non-abelian G.  An abelian G's largest element order is its
exponent, the lcm of its generators' orders, which closure computed
from their cycles: every element's order divides that lcm, and a finite
abelian group has an element whose order is its exponent (Seress 2003;
Holt, Eick and O'Brien 2005).

``direct_factor_orders`` gives |G| and its largest element order with
no closure of G.  It splits the generators into support blocks: two
generators share a block when the points they move meet, and blocks are
the connected components of that relation, read off the generators
alone.  Permutations that move disjoint points commute, so the groups of
two blocks commute elementwise and meet only in the identity, and G is
their internal direct product (Dixon and Mortimer, *Permutation Groups*,
1996).  So |G| is the product of the block orders, and since a*b has
order lcm(ord a, ord b) when a and b commute and <a> and <b> meet only
in the identity, G's element orders are the lcms of one order from each
block.  A block of one generator is cyclic of order the lcm of its cycle
lengths and is not closed; every other block is closed once.  An abelian
block has every divisor of its exponent as an order and nothing else, so
it adds its exponent to the lcm; a non-abelian one adds the set of
orders from one order pass.  The split is by supports, not by orbits:
one generator that moves two orbits, such as (0 1)(2 3), generates a
subdirect product of its orbits' groups, of order 2, not their direct
product, of order 4.

Conjugation runs on closure's element numbers: for a generator b,
b^-1*x*b sends a base point p to b^-1(x(b(p))), so |base| reads of x
and one lookup give its number, with no product.  The center is the
numbers all these maps fix.  Conjugacy classes and the conjugates of a
subgroup are their orbits, reached without a sweep over G; a subgroup's
permutations are built when its elements are first read.  A normalizer
of F tests one a per left coset a*F: a*h sends a base point p to
a[h[p]], so the coset is lookups of a's images at F's keys, and f*a is
in it when the number of f's images at a's key is.  ``g in G`` and
``g in H``, like every query on one element, are one key lookup and one
whole-tuple confirm.  Only the subgroup lattice, capped at order 64,
builds a multiplication table on element numbers (|G|^2 entries), inside
the call: the key of a*b is a's images at b's key.  The lattice steps
from each subgroup H to H, c*H, ..., c^(p-1)*H for each c with c*H = H*c
and c^p in H, p prime, which reaches every solvable subgroup and so is
exact below order 120 (see ``all_subgroups``).  Maxima are found on the
lattice's sets of numbers, sorted by their elements.  For a maximal
M, M <= N(M) <= G forces N(M) to be M or G, with [G : N(M)] conjugates,
so ``analyze`` needs one normality test per maximum: the conjugation
maps, injective, send M's numbers into M (Holt, Eick and O'Brien 2005).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable, Sequence
from functools import cached_property
from itertools import chain, compress
from math import gcd, lcm
from operator import itemgetter, ne

from .errors import CapacityError
from .perm import Permutation, _cycles, _gather, perm_order

DEFAULT_CLOSURE_CAP = 20000
DEFAULT_SUBGROUP_BOUND = 64


class FiniteGroup:
    """A closed set of equal-degree permutations plus its generating set.

    Only closure() builds groups; FiniteGroup(...) itself raises
    TypeError.  Immutable once built.  The identity is always
    elements[0], since its image table sorts first.  A group keeps
    closure's keyed stages and builds its elements the first time they
    are read.
    """

    _dimino: _Dimino

    def __init__(self, *args, **kwargs):
        raise TypeError("groups are built by closure(), not FiniteGroup()")

    @classmethod
    def _closed(cls, degree: int, generators: Sequence[Permutation], dimino: _Dimino) -> "FiniteGroup":
        G = object.__new__(cls)
        G.degree = degree
        G.generators = tuple(generators)
        G._dimino = dimino
        return G

    @cached_property
    def elements(self) -> tuple[Permutation, ...]:
        return tuple(map(Permutation._trusted, sorted(self._dimino.images())))

    @cached_property
    def _rank(self) -> list[int]:
        """Each element number's position in elements.  Sets of numbers sorted
        by rank sort as their elements do, whatever the generators' order."""
        d, rank = self._dimino, [0] * len(self)
        for r, g in enumerate(self.elements):
            rank[d.index[d.key(g.images)]] = r
        return rank

    def _conjugation(self, b: Permutation) -> Callable[[int], int]:
        """For b in the group, the map from element number i to the number
        of b^-1*x_i*b, which sends a base point p to b^-1[x_i[b[p]]]."""
        d = self._dimino
        shape = _key(range(len(d.base)))  # a list of images at the base, as a key
        ib, b_base = b.inverse().images, [b.images[p] for p in d.base]

        def step(i):
            return d.index[shape([ib[x] for x in map(d.reader(i), b_base)])]
        return step

    @cached_property
    def _conjugations(self) -> list[Callable[[int], int]]:
        return [self._conjugation(b) for b in self.generators]

    def __len__(self) -> int:
        return self._dimino.size

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, g: object) -> bool:
        try:  # one key lookup and one whole-tuple confirm; G.elements is not built
            _require_member(self, g)
        except ValueError:
            return False
        return True

    def __eq__(self, other: object) -> bool:
        # other's generators in self make other's group a subgroup of self,
        # and equal orders make it all of self.
        return (
            isinstance(other, FiniteGroup)
            and self.degree == other.degree
            and len(self) == len(other)
            and all(g in self for g in other.generators)
        )

    def __hash__(self) -> int:
        return hash((self.degree, len(self)))

    def __repr__(self) -> str:
        return f"<FiniteGroup of order {len(self)} on {self.degree} points>"


class Subgroup:
    """A subset of a parent group's elements that is itself a group, held
    as the frozenset ``numbers`` of its elements' numbers in the parent's
    closure numbering.  ``elements``, sorted, is built when first read.

    The public constructor verifies closure; engine functions that produce
    sets already known to be groups use the trusted path internally.
    """

    def __init__(self, parent: FiniteGroup, elements: Iterable[Permutation]):
        elems = set(elements)
        if not elems:
            raise ValueError("a subgroup cannot be empty")
        try:
            numbers = frozenset(_require_member(parent, g) for g in elems)
        except ValueError:
            raise ValueError("subgroup elements must belong to the parent group") from None
        d = parent._dimino  # a product of members is a member, so its key names it
        if any(d.index[d.key((a * b).images)] not in numbers for a in elems for b in elems):
            raise ValueError("element set is not closed under composition")
        # Closed nonempty subset of a finite group: identity and inverses follow.
        self.parent, self.numbers = parent, numbers

    @classmethod
    def _trusted(cls, parent: FiniteGroup, numbers: Iterable[int]) -> "Subgroup":
        sub = object.__new__(cls)
        sub.parent, sub.numbers = parent, frozenset(numbers)
        return sub

    @cached_property
    def elements(self) -> tuple[Permutation, ...]:
        return tuple(map(Permutation._trusted, sorted(map(self.parent._dimino.images_of, self.numbers))))

    def __len__(self) -> int:
        return len(self.numbers)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, g: object) -> bool:
        try:
            return _require_member(self.parent, g) in self.numbers
        except ValueError:
            return False

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Subgroup)
            and self.parent == other.parent
            and self.numbers == _require_subgroup_of(self.parent, other)
        )

    def __hash__(self) -> int:
        # The elements: equal parents may number them differently, and orders alone collide.
        return hash(frozenset(self.elements))

    def __repr__(self) -> str:
        return f"<Subgroup of order {len(self)} in group of order {len(self.parent)}>"


def _require_member(G: FiniteGroup, g: Permutation, name: str = "element") -> int:
    """g's number in closure's numbering, or ValueError if g is not in G.

    One key lookup and one whole-tuple confirm, so G.elements is not
    built: the base tells G's elements apart, but a permutation outside G
    can share a key with one of them.
    """
    d = G._dimino
    i = d.index.get(d.key(g.images)) if isinstance(g, Permutation) and g.degree == G.degree else None
    if i is None or d.images_of(i) != g.images:
        raise ValueError(f"{name} is not a member of the group")
    return i


def _require_subgroup_of(G: FiniteGroup, F: Subgroup) -> frozenset[int]:
    """F's numbers in G's numbering, or ValueError if F's parent is not G.  An equal
    parent from reordered generators numbers differently: then F's elements are looked up."""
    if F.parent is G:
        return F.numbers
    if F.parent != G:
        raise ValueError("subgroup belongs to a different group")
    return frozenset(_require_member(G, f) for f in F)


def closure(generators: Iterable[Permutation], *, max_size: int = DEFAULT_CLOSURE_CAP) -> FiniteGroup:
    """Smallest group containing the generators, by Dimino's algorithm on keys.

    Grows the cyclic group of the generator of largest order by one
    generator at a time, each stage a union of left cosets of the group
    before it.  Every element is a key, its images on a base that closure
    checks as it goes: a key that names an element is confirmed on whole
    image tuples, and each coset must add as many new keys as it has
    elements; either failure adds a base point (see the module
    docstring).  The sorted elements are built when first read.  Raises
    CapacityError, saying how many elements were built, before the count
    would pass max_size, so runaway inputs fail cleanly instead of
    exhausting memory.
    """
    gens = _generating_set(generators)
    return FiniteGroup._closed(gens[0].degree, gens, _Dimino([g.images for g in gens], max_size))


def _generating_set(generators: Iterable[Permutation]) -> tuple[Permutation, ...]:
    """The generators as a tuple, or ValueError unless there is at least one
    and all have the same degree."""
    gens = tuple(generators)
    if not gens:
        raise ValueError("closure needs at least one generator")
    degree = gens[0].degree
    for g in gens:
        if g.degree != degree:
            raise ValueError(f"generator degree mismatch: {g.degree} vs {degree}")
    return gens


class _Dimino:
    """Dimino's closure of generator image tuples, on keys.

    Elements are numbered as closure builds them: g^0, ..., g^(k-1) for
    the first-stage generator g, then each later stage's cosets in turn.
    A stage (h, reps) holds the order h of the group before it and its
    left coset representatives; element h*(c+1) + i is reps[c] after
    element i.  ``columns`` holds each base point's image under every
    element, and ``index`` maps each key to its element.  ``orders``
    holds each generator's order, in the order given.
    """

    def __init__(self, gens: list[tuple[int, ...]], max_size: int):
        m = len(gens[0])
        self.max_size = max_size
        if max_size < 1:
            raise self._over(0, m)
        self.k = 0
        self.orders: list[int] = []
        for g in gens:
            cycles = _cycles(g)
            k = lcm(*map(len, cycles))
            if k > max_size:
                raise self._over(max_size, m)
            self.orders.append(k)
            if k > self.k:
                self.k, self.first, self.cycles = k, g, cycles
        self.cycle_of: list[list[int]] = [[]] * m
        self.pos = [0] * m
        for cyc in self.cycles:
            for i, y in enumerate(cyc):
                self.cycle_of[y] = cyc
                self.pos[y] = i
        where = [0] * m
        for i, y in enumerate(chain.from_iterable(self.cycles)):
            where[y] = i
        self._unturn = _gather(tuple(where))
        self.size = self.k
        self.stages: list[tuple[int, list[tuple[int, ...]]]] = []
        # g^j sends the first point of a cycle of length L to the cycle's
        # entry j mod L, so points whose cycle lengths have lcm k tell the
        # powers of g apart.
        self.base: list[int] = []
        self.columns: list[list[int]] = []
        period = 1
        for cyc in sorted(self.cycles, key=len, reverse=True):
            if period % len(cyc):
                period = lcm(period, len(cyc))
                self.base.append(cyc[0])
                self.columns.append(cyc * (self.k // len(cyc)))
        self._rekey()
        used = [self.first]
        for g in gens:
            if g is self.first or self._member(g):
                continue
            used.append(g)
            reps: list[tuple[int, ...]] = []
            self.stages.append((self.size, reps))
            self._getters = None
            self._add_coset(g)
            for r in reps:  # grows while it is read
                times_r = _gather(r)
                for s in used:
                    x = times_r(s)  # s after r
                    if not self._member(x):
                        self._add_coset(x)

    def _over(self, built: int, degree: int) -> CapacityError:
        return CapacityError(
            f"group closure exceeded the cap of {self.max_size} elements "
            f"({built} built, degree {degree})"
        )

    def _keys(self) -> Sequence:
        """The key of every element built, in order."""
        if len(self.columns) == 1:
            return self.columns[0]
        if not self.columns:  # no points: the group is the identity alone
            return [()] * self.size
        return list(zip(*self.columns))

    def _rekey(self) -> None:
        self.key = _key(self.base)
        self.index = dict(zip(self._keys(), range(self.size)))
        self._getters = None

    def _extend_base(self, x: tuple[int, ...], y: tuple[int, ...]) -> None:
        """Append a point where the distinct x and y differ, keying every element on it."""
        p = next(p for p, (u, v) in enumerate(zip(x, y)) if u != v)
        self.base.append(p)
        cyc, s = self.cycle_of[p], self.pos[p]
        column = (cyc[s:] + cyc[:s]) * (self.k // len(cyc))
        for h, reps in self.stages:
            take = itemgetter(*column[:h])
            for r in reps:
                column.extend(take(r))
        self.columns.append(column)
        self._rekey()

    def _member(self, x: tuple[int, ...]) -> bool:
        """Whether x is in the group built so far; a key hit is confirmed on whole tuples."""
        while True:
            i = self.index.get(self.key(x))
            if i is None:
                return False
            y = self.images_of(i)
            if y == x:
                return True
            self._extend_base(x, y)

    def _add_coset(self, x: tuple[int, ...]) -> None:
        """Add x*H, for x outside the group, once its keys are all new."""
        h, reps = self.stages[-1]
        if self.size + h > self.max_size:
            raise self._over(self.size, len(x))
        while True:
            if self._getters is None:
                self._getters = [itemgetter(*column[:h]) for column in self.columns]
            parts = [take(x) for take in self._getters]
            keys = parts[0] if len(parts) == 1 else list(zip(*parts))
            before = len(self.index)
            self.index.update(zip(keys, range(self.size, self.size + h)))
            if len(self.index) == before + h:
                break
            # Two distinct elements, one of them in x*H, share a key.
            seen = dict(zip(self._keys(), range(self.size)))
            for t, key in enumerate(keys):
                j = seen.setdefault(key, self.size + t)
                if j != self.size + t:
                    break
            y = self.images_of(j) if j < self.size else _gather(self.images_of(j - self.size))(x)
            self._extend_base(y, _gather(self.images_of(t))(x))
        for column, part in zip(self.columns, parts):
            column.extend(part)
        reps.append(x)
        self.size += h

    def _chain(self, i: int) -> tuple[list[tuple[int, ...]], int]:
        """Element i as g^j followed by representatives, innermost first."""
        reps_used = []
        for h, reps in reversed(self.stages):
            if i >= h:
                reps_used.append(reps[i // h - 1])
                i %= h
        reps_used.reverse()
        return reps_used, i

    def images_of(self, i: int) -> tuple[int, ...]:
        """Element i's whole image tuple, one product per gather."""
        factors, j = self._chain(i)
        if j:
            # Each cycle of g turned j steps, put back in place by one gather.
            turned = chain.from_iterable(c[j % len(c):] + c[:j % len(c)] for c in self.cycles)
            factors.insert(0, self._unturn(tuple(turned)))
        if not factors:
            return tuple(range(len(self.pos)))
        x = factors[0]
        for r in factors[1:]:
            x = _gather(x)(r)
        return x

    def reader(self, i: int) -> Callable[[int], int]:
        """Element i's image of one point at a time, with no product."""
        reps, j = self._chain(i)
        cycle_of, pos = self.cycle_of, self.pos

        def at(y: int) -> int:
            c = cycle_of[y]
            y = c[(pos[y] + j) % len(c)]
            for r in reps:
                y = r[y]
            return y

        return at

    def images(self) -> list[tuple[int, ...]]:
        """Every element's image tuple, unsorted, with about one product each.

        The first stage walks g's powers.  A later stage is the union of
        the left cosets r*H, which inverted are the right cosets H*r^-1:
        one gather maps H to each, and r^-1 itself needs no product.
        """
        e = tuple(range(len(self.first)))
        step = _gather(self.first)
        out = [e]
        for _ in range(1, self.k):
            out.append(step(out[-1]))
        for h, reps in self.stages:
            H = out[1:h]  # out[0] is the identity
            for r in reps:
                inv = tuple(sorted(e, key=r.__getitem__))
                out.append(inv)
                out.extend(map(_gather(inv), H))
        return out


def element_order(G: FiniteGroup, g: Permutation) -> int:
    _require_member(G, g)
    return perm_order(g)


def generated_subgroup(G: FiniteGroup, f: Permutation) -> Subgroup:
    """The cyclic subgroup of all powers of f, from their keys on G's base;
    the identity, element 0, is named outright, as a trivial G has no base."""
    d = G._dimino
    powers = _power_keys(d.reader(_require_member(G, f)), d.base)
    return Subgroup._trusted(G, [0, *map(d.index.__getitem__, powers)])


def _key(points: Sequence[int]):
    """The map from an image tuple to its images at the points.

    It gives a bare int for one point, a tuple for several and () for none.
    """
    return itemgetter(*points) if points else lambda images: ()


def _power_keys(at: Callable[[int], int], base: Sequence[int]) -> list:
    """The keys on the base of h^0, h^1, ..., h^(k-1), where k = ord(h).

    at(y) is h's image of y.  h^j sends a base point to entry j mod L of
    the point's cycle under h, of length L; on a base the key is
    injective, so k is the lcm of the cycle lengths.
    """
    cycles = []
    for b in base:
        cyc = [b]
        y = at(b)
        while y != b:
            cyc.append(y)
            y = at(y)
        cycles.append(cyc)
    if len(cycles) == 1:
        return cycles[0]
    k = lcm(*map(len, cycles))
    return list(zip(*[cyc * (k // len(cyc)) for cyc in cycles]))


def _order_pass(d: _Dimino) -> list[int]:
    """The order of every element, in closure's numbering.

    For each element h whose order is still unknown the pass reads h
    point by point through its representatives and follows its cycle
    through each base point, which gives the keys of h, h^2, ...,
    h^k = e, and sets ord(h^j) = k / gcd(k, j).  A power an earlier walk
    reached gets the same value again, since it is its true order.  No
    product is built and no whole image tuple is hashed.
    """
    orders = [0] * d.size
    orders[0] = 1  # element 0 is g^0, the identity
    shared: dict[int, int] = {}  # one int object per distinct order, not per element
    for i in range(d.size):
        if orders[i]:
            continue
        powers = _power_keys(d.reader(i), d.base)
        k = len(powers)
        for j, p in enumerate(map(d.index.__getitem__, powers[1:]), 1):
            order = k // gcd(k, j)
            orders[p] = shared.setdefault(order, order)
    return orders


def all_element_orders(G: FiniteGroup) -> list[int]:
    """The order of every element, indexed like G.elements, in one pass.

    Runs the order pass on closure's keys (see the module docstring) and
    reads each sorted element's order at its key, one lookup per element.
    """
    d = G._dimino
    orders = _order_pass(d)
    return [orders[d.index[d.key(g.images)]] for g in G.elements]


def max_element_order(G: FiniteGroup) -> int:
    """The largest element order in G, and no element tuple is built.

    For an abelian G it is the lcm of the generator orders closure
    computed, G's exponent (see the module docstring), so no element is
    read.  Otherwise one order pass on closure's keys gives it.
    """
    if is_abelian(G):
        return lcm(*G._dimino.orders)
    return max(_order_pass(G._dimino))


def direct_factor_orders(generators: Iterable[Permutation], *, max_size: int = DEFAULT_CLOSURE_CAP) -> tuple[int, int]:
    """|G| and G's largest element order, for the group G the generators
    generate, from its direct factors on disjoint supports.

    The generators are split into support blocks, read off the generators
    alone (see the module docstring).  A block of one generator is cyclic
    of order the lcm of its cycle lengths, with no closure; each other
    block is closed, under max_size elements, and gives its exponent if it
    is abelian and its set of element orders, from one order pass, if not.
    |G| is the product of the block orders, and the largest element order
    the largest lcm of one order from each block.
    """
    size, largest = 1, {1}  # the lcms of one order from each block so far
    for block in _support_blocks(_generating_set(generators)):
        if len(block) == 1:
            k = lcm(*map(len, _cycles(block[0].images)))
            size, orders = size * k, (k,)
        else:
            B = closure(block, max_size=max_size)
            size *= len(B)
            # An abelian block's orders divide its exponent, so the exponent
            # gives the largest lcm with any order from the other blocks.
            orders = (lcm(*B._dimino.orders),) if is_abelian(B) else set(_order_pass(B._dimino))
        largest = {lcm(a, b) for a in largest for b in orders}
    return size, max(largest)


def _support_blocks(gens: Sequence[Permutation]) -> list[list[Permutation]]:
    """The generators in blocks: two share a block when the points they move
    meet, and blocks are the connected components of that relation.

    Blocks are listed by their first generator, and each keeps the
    generators in their given order.  A generator that moves no point is
    a block of its own.
    """
    blocks: list[tuple[set[int], list[int]]] = []
    for i, g in enumerate(gens):
        m = len(g.images)
        points, members, apart = set(compress(range(m), map(ne, g.images, range(m)))), [i], []
        for block in blocks:
            if points.isdisjoint(block[0]):
                apart.append(block)
            else:
                points |= block[0]
                members += block[1]
        blocks = apart + [(points, members)]
    return [[gens[i] for i in members] for members in sorted(sorted(members) for _, members in blocks)]


def _least_generator(d: _Dimino, orders: Sequence[int]) -> int | None:
    """The number of the least element of order |G| in image order, or None.

    The candidates are read one point at a time, keeping those with the
    least image there, until one is left; distinct elements differ at
    some point, and no whole image tuple is built.
    """
    candidates = [i for i, k in enumerate(orders) if k == d.size]
    y = 0
    while len(candidates) > 1:
        images = [d.reader(i)(y) for i in candidates]
        least = min(images)
        candidates = [i for i, image in zip(candidates, images) if image == least]
        y += 1
    return candidates[0] if candidates else None


def is_cyclic(G: FiniteGroup) -> Permutation | None:
    """A generator of G if G is cyclic (the canonically smallest one), else None."""
    d = G._dimino
    i = _least_generator(d, _order_pass(d))
    return None if i is None else Permutation._trusted(d.images_of(i))


def is_abelian(G: FiniteGroup) -> bool:
    # Pairwise commuting generators force the whole group to commute.  A
    # generator commutes with itself and the test is symmetric, so each
    # unordered pair of distinct generators is tested once.
    gens = G.generators
    return all(a * b == b * a for i, a in enumerate(gens) for b in gens[i + 1 :])


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

    Commuting with every generator b is equivalent, and that is
    b^-1*x*b = x: the element numbers every conjugation map fixes.
    """
    d, steps = G._dimino, G._conjugations
    return Subgroup._trusted(G, [i for i in range(d.size) if all(step(i) == i for step in steps)])


def subset_product(X: Subgroup | Iterable[Permutation], Y: Subgroup | Iterable[Permutation]) -> frozenset[Permutation]:
    """All products x*y with x in X and y in Y."""
    ys = tuple(Y)
    return frozenset(x * y for x in X for y in ys)


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


def conjugacy_class(G: FiniteGroup, g: Permutation) -> frozenset[Permutation]:
    """All b^-1*g*b, as the orbit of g's number under conjugation by the generators."""
    d = G._dimino
    orbit = _orbit(_require_member(G, g), G._conjugations)
    return frozenset(Permutation._trusted(d.images_of(i)) for i in orbit)


def conjugate_subgroup(G: FiniteGroup, F: Subgroup, b: Permutation) -> Subgroup:
    numbers = _require_subgroup_of(G, F)
    _require_member(G, b, "b")
    return Subgroup._trusted(G, map(G._conjugation(b), numbers))


def _normalizer(G: FiniteGroup, F: frozenset[int]) -> list[int]:
    """The numbers of the a with F*a = a*F, for F given by its numbers.

    N(F) is a union of left cosets of F, so one test per coset a*F keeps
    or drops the whole coset; F*a = a*F exactly when F*a lies in a*F.
    Both are read on keys (see the module docstring), with no product.
    """
    d = G._dimino
    shape = _key(range(len(d.base)))  # a list of images at the base, as a key
    F_keys = [[column[f] for column in d.columns] for f in F]
    F_at = [d.reader(f) for f in F]
    covered, keep = set(), []
    for a in range(d.size):
        if a not in covered:
            at = d.reader(a)
            coset = {d.index[shape([at(y) for y in ys])] for ys in F_keys}
            covered |= coset
            a_key = [at(p) for p in d.base]
            if all(d.index[shape([f(y) for y in a_key])] in coset for f in F_at):
                keep.extend(coset)
    return keep


def normalizer(G: FiniteGroup, F: Subgroup) -> Subgroup:
    """Elements a with F*a = a*F; always a subgroup containing F.  Runs on
    element numbers and builds permutations only for the result."""
    return Subgroup._trusted(G, _normalizer(G, _require_subgroup_of(G, F)))


def _conjugates(G: FiniteGroup, F: frozenset[int]) -> set[frozenset[int]]:
    """The distinct conjugates of F, given by its element numbers, as the
    orbit of F under conjugation by the generators."""
    return _orbit(F, [lambda S, c=c: frozenset(map(c, S)) for c in G._conjugations])


def count_conjugate_subgroups(G: FiniteGroup, F: Subgroup) -> int:
    """Number of distinct b^-1*F*b over b in G (including F), by enumeration."""
    return len(_conjugates(G, _require_subgroup_of(G, F)))


def noncentral_union_size(G: FiniteGroup, F: Subgroup) -> int:
    """Count of non-central elements of G in the union of all conjugates of F."""
    union = set().union(*_conjugates(G, _require_subgroup_of(G, F)))
    return sum(1 for i in union if any(c(i) != i for c in G._conjugations))


def minimal_power_in_subgroup(G: FiniteGroup, h: Permutation, F: Subgroup) -> int:
    """Least q >= 1 with h**q in F; exists because h**ord(h) is the identity."""
    _require_member(G, h, "h")
    d, numbers = G._dimino, _require_subgroup_of(G, F)
    q, x = 1, h
    while d.index[d.key(x.images)] not in numbers:
        x = x * h
        q += 1
    return q


def conjugate_only_to_powers(G: FiniteGroup, f: Permutation) -> bool:
    """True iff every conjugate of f is a power of f."""
    return _orbit(_require_member(G, f), G._conjugations) <= generated_subgroup(G, f).numbers


def _lattice(G: FiniteGroup) -> list[frozenset[int]]:
    """Every subgroup of G as a set of closure's element numbers (see ``all_subgroups``)."""
    if len(G) > DEFAULT_SUBGROUP_BOUND:
        raise CapacityError(
            f"subgroup enumeration is limited to groups of order {DEFAULT_SUBGROUP_BOUND}"
            f" (this group has order {len(G)})"
        )
    d = G._dimino
    images = [G.elements[r].images for r in G._rank]  # element i's images at images[i]
    # right[b][a] is the number of a*b, whose key is a's images at b's key
    right = [[d.index[k] for k in map(_key([b[p] for p in d.base]), images)] for b in images]
    primes = [p for p in range(2, len(G) + 1) if all(p % q for q in range(2, p))]
    steps = []  # (c, c^p, [c^0, ..., c^(p-1)]) for each element c and prime p | ord(c)
    for c in range(len(G)):
        powers = [d.index[x] for x in _power_keys(d.reader(c), d.base)]
        steps += [(c, powers[p % len(powers)], powers[:p]) for p in primes if len(powers) % p == 0]
    known, work = {frozenset([0])}, [frozenset([0])]
    for H in work:  # grows while it is read
        covered = set(H)
        for c, c_p, powers in steps:
            if c not in covered and c_p in H and {right[h][c] for h in H} == {right[c][h] for h in H}:
                K = _extension(H, powers, right)
                covered |= K  # [K : H] = p, so every c' in K - H gives K again
                if K not in known:
                    known.add(K)
                    work.append(K)
    return list(known | {frozenset(range(len(G)))})  # G, which no step reaches unless it is solvable


def _extension(H: frozenset[int], powers: list[int], right: list[list[int]]) -> frozenset[int]:
    """H, c*H, ..., c^(p-1)*H from c's powers c^0, ..., c^(p-1): right[h][x] is x*h."""
    return frozenset(right[h][x] for x in powers for h in H)


def _subgroups(G: FiniteGroup, sets: Iterable[frozenset[int]]) -> list[Subgroup]:
    """Sets of element numbers as subgroups, sorted by (order, element list)."""
    rank = G._rank
    return [Subgroup._trusted(G, S) for S in sorted(sets, key=lambda S: (len(S), sorted(map(rank.__getitem__, S))))]


def all_subgroups(G: FiniteGroup) -> list[Subgroup]:
    """Every subgroup of G, for groups of order up to DEFAULT_SUBGROUP_BOUND (64).

    One rule (Neubüser 1960; Holt, Eick and O'Brien, *Handbook of
    Computational Group Theory*, 2005): from the trivial group, each
    subgroup H found is extended by every c outside it with c*H = H*c and
    c^p in H for a prime p | ord(c), to K = H, c*H, ..., c^(p-1)*H, read
    off a table of products on element numbers.  As [K : H] = p is prime,
    every c' in K - H gives K again and is skipped: each K in which H is
    normal of prime index is built once.  A solvable subgroup has a
    composition series with factors of prime order, so the steps reach
    it; G is added last.  Below order 120 the only non-solvable group is
    A5, whose proper subgroups are solvable, so the result is exact for
    |G| < 120.  Results are sorted by (order, elements).
    """
    return _subgroups(G, _lattice(G))


def _maxima(G: FiniteGroup) -> list[frozenset[int]]:
    """Maximal subgroups as lattice index sets, largest first: a proper subgroup
    is maximal unless an earlier maximum holds it, as each larger one lies in one."""
    maxima: list[frozenset[int]] = []
    for S in sorted(_lattice(G), key=len, reverse=True):
        if 1 < len(S) < len(G) and not any(S < M for M in maxima):
            maxima.append(S)
    return maxima


def maximal_subgroups(G: FiniteGroup) -> list[Subgroup]:
    """Proper subgroups with more than one element, maximal by inclusion,
    sorted by (order, element list); a group of prime order has none."""
    return _subgroups(G, _maxima(G))


def analyze(G: FiniteGroup) -> dict:
    """The report ``cyclicnum analyze`` prints, on closure's element numbers:
    one order pass, one orbit per conjugacy class and, up to order
    DEFAULT_SUBGROUP_BOUND, a row per maximal subgroup, largest first,
    whose normalizer and conjugate count follow from whether it is normal
    (see the module docstring)."""
    d, steps = G._dimino, G._conjugations
    orders = _order_pass(d)
    gen = _least_generator(d, orders)  # the least element of order |G|, as is_cyclic returns
    histogram = Counter(orders)
    sizes, seen = [], set()
    for i in range(len(G)):  # one orbit on element numbers per conjugacy class
        if i not in seen:
            cls = _orbit(i, steps)
            seen |= cls
            sizes.append(len(cls))
    rows = None
    if len(G) <= DEFAULT_SUBGROUP_BOUND:
        rank, rows = G._rank, []
        for M in sorted(_maxima(G), key=lambda S: (-len(S), sorted(map(rank.__getitem__, S)))):
            N = len(G) if all(step(i) in M for step in steps for i in M) else len(M)  # |N(M)|
            rows.append({"size": len(M), "normalizer_size": N, "conjugate_count": len(G) // N})
    return {
        "degree": G.degree,
        "order": len(G),
        "cyclic": gen is not None,
        "generator": list(d.images_of(gen)) if gen is not None else None,
        "abelian": is_abelian(G),
        "element_orders": {str(k): histogram[k] for k in sorted(histogram)},
        "center_size": sizes.count(1),  # central elements are the classes of size 1
        "conjugacy_class_sizes": sorted(sizes),
        "maximal_subgroups": rows,
    }
