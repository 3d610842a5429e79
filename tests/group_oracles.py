"""Slow reference implementations that the group-engine tests compare against.

``compose`` and ``closure`` build every product entry by entry in Python
bytecode and keep a set of Permutation objects, where ``cyclicnum.perm``
and ``cyclicnum.groups`` gather in C on raw image tuples.

``dimino_closure`` is Dimino's closure on whole image tuples, with right
cosets H*x and a set of tuples: every element is one gathered product
and one hash.  ``cyclicnum.groups`` runs the same stages on left cosets
and keys on a base it checks as it goes, building only coset
representatives as whole tuples, so the two must agree on every group
and on where each stops at a cap.

``element_orders`` and ``subgroups`` work on whole image tuples: the
first walks each element's powers with its gather and finds each power
by binary search in the sorted elements, the second builds the subgroup
lattice's index table with one gather per element and a dict of whole
tuples.  ``cyclicnum.groups`` keys every element by its images on a
checked base instead, and builds no product for either.

``conjugations``, ``conjugacy_classes``, ``conjugates``, ``center`` and
``is_cyclic`` work on whole image tuples over G.elements: each
conjugation step is two gathers on a Permutation, classes and the
conjugates of a subgroup are orbits of those steps, the center is every
element that commutes with each generator, and the generator is the
first sorted element of order |G|.  ``cyclicnum.groups`` runs the same
conjugation maps on closure's element numbers, reading |base| points of
an element, and finds the generator among element numbers.
``least_generator`` takes that number as the ``min`` of the candidates'
whole image tuples; ``cyclicnum.groups`` reads the candidates one point
at a time until one is left.

The rest sweep all of G: the normalizer tests every element with whole
products, the conjugates of a subgroup or an element are taken over
every b in G, and ``maximal_subgroups`` tests every pair of subgroups
for inclusion on their element sets.  ``cyclicnum.groups`` computes the
same answers on closure's element numbers, with one test per left coset
a*F and no product, with orbits under conjugation by the generators,
and with maximality decided largest first on the lattice's index sets.

``grid_arrow_generators`` is not an oracle but an input: the arrow
group Z_p2 ⋊ Z_p1 encoded on a p2*p2 grid, degree p2**2, which gives
the closure tests generators of high degree for a small group.
"""

from bisect import bisect_left
from math import gcd

from cyclicnum import CapacityError, Permutation, Subgroup, element_of_order, generated_subgroup, identity
from cyclicnum.perm import _gather


def compose(f, g):
    """f after g, one list entry at a time."""
    fi = f.images
    gi = g.images
    if len(fi) != len(gi):
        raise ValueError(f"degree mismatch: {len(fi)} vs {len(gi)}")
    return Permutation([fi[v] for v in gi])


def closure(generators, max_size):
    """The set of all products of the generators, breadth first; raises
    CapacityError once it holds more than max_size elements."""
    gens = tuple(generators)
    els = {identity(gens[0].degree), *gens}
    if len(els) > max_size:
        raise CapacityError(f"group closure exceeded the cap of {max_size} elements")
    frontier = list(els)
    while frontier:
        fresh = []
        for a in frontier:
            for g in gens:
                c = compose(a, g)
                if c not in els:
                    els.add(c)
                    if len(els) > max_size:
                        raise CapacityError(f"group closure exceeded the cap of {max_size} elements")
                    fresh.append(c)
        frontier = fresh
    return els


def dimino_closure(gens, max_size):
    """The sorted image tuples of the group the generator image tuples
    generate; raises closure's CapacityError, with the number of elements
    built, before the count would pass max_size."""
    e = tuple(range(len(gens[0])))

    def over(built):
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

    def add_coset(x, H):
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


def element_orders(G):
    """The order of every element, indexed like G.elements: walks h, h^2,
    ... with h's gather for each h whose order is unknown, locating each
    power by binary search in the sorted image tuples."""
    keys = [g.images for g in G.elements]
    orders = [0] * len(keys)
    orders[0] = 1
    for i, h in enumerate(keys):
        if orders[i]:
            continue
        step = _gather(h)
        x = h
        powers = [i]
        while (p := bisect_left(keys, x := step(x))) != 0:
            powers.append(p)
        k = len(powers) + 1
        for j, p in enumerate(powers, 1):
            orders[p] = k // gcd(k, j)
    return orders


def subgroups(G):
    """Every subgroup of G, sorted by (order, element list), from an index
    table of whole image tuples: right[b][a] is the index of a*b.  The
    cyclic subgroups are saturated under pairwise join, unlike the
    cyclic extension of ``groups.all_subgroups``."""
    keys = [g.images for g in G.elements]
    index = {x: i for i, x in enumerate(keys)}
    right = [[index[x] for x in map(_gather(b), keys)] for b in keys]

    def close(seed):
        els = {0, *seed}
        frontier = list(els)
        while frontier:
            fresh = [right[b][a] for a in frontier for b in seed]
            frontier = [c for c in fresh if c not in els]
            els.update(frontier)
        return frozenset(els)

    known = {close([i]) for i in range(len(keys))}
    work = list(known)
    while work:
        a = work.pop()
        for b in list(known):
            if not (a <= b or b <= a) and (joined := close(a | b)) not in known:
                known.add(joined)
                work.append(joined)
    subs = [Subgroup._trusted(G, (G.elements[i] for i in idxs)) for idxs in known]
    return sorted(subs, key=lambda H: (len(H), H.elements))


def maximal_subgroups(G, subs):
    """The subgroups among subs, every subgroup of G, with more than one
    element that no other proper subgroup contains, in the order of subs."""
    proper = [H for H in subs if 1 < len(H) < len(G)]
    return [H for H in proper if not any(H._elem_set < K._elem_set for K in proper)]


def conjugations(G):
    """For each generator b, the map x -> b^-1*x*b on Permutations, as two gathers."""
    steps = []
    for b in G.generators:
        def step(x, ib=b.inverse().images, after_b=_gather(b.images)):
            return Permutation._trusted(after_b(_gather(x.images)(ib)))
        steps.append(step)
    return steps


def orbit(start, steps):
    """Everything reachable from start by the step maps, breadth first."""
    seen, frontier = {start}, [start]
    while frontier:
        frontier = [y for y in {step(x) for x in frontier for step in steps} if y not in seen]
        seen.update(frontier)
    return seen


def conjugacy_classes(G):
    """The orbits of G.elements under the generators' conjugation maps,
    in order of their least element."""
    steps = conjugations(G)
    classes = []
    seen = set()
    for g in G.elements:
        if g not in seen:
            classes.append(frozenset(orbit(g, steps)))
            seen |= classes[-1]
    return classes


def conjugates(G, F):
    """The element sets of the conjugates of F, as the orbit of F's under
    the generators' conjugation maps."""
    steps = [lambda S, c=c: frozenset(map(c, S)) for c in conjugations(G)]
    return orbit(frozenset(F.elements), steps)


def center(G):
    """The elements of G that commute with every generator."""
    return {a for a in G.elements if all(a * g == g * a for g in G.generators)}


def is_cyclic(G):
    """The first element of G.elements of order |G|, or None."""
    return next((g for g, k in zip(G.elements, element_orders(G)) if k == len(G)), None)


def least_generator(d, orders):
    """The number of the least element of order |G|, keyed by its whole image tuple."""
    return min((i for i, k in enumerate(orders) if k == d.size), key=d.images_of, default=None)


def normalizer(G, F, generators=None):
    """The set of a in G with F*a == a*F.  Given generators of F, the set
    of a with a^-1*x*a in F for each generator x instead: the same set,
    since a^-1*F*a has |F| elements and is generated by those conjugates."""
    if generators is not None:
        return {a for a in G.elements if all(a.inverse() * x * a in F._elem_set for x in generators)}
    return {
        a
        for a in G.elements
        if {f * a for f in F.elements} == {a * f for f in F.elements}
    }


def conjugate_subgroups(G, F):
    """The distinct b^-1*F*b over every b in G, as element sets."""
    conjugates = set()
    for b in G.elements:
        ib = b.inverse()
        conjugates.add(frozenset(ib * f * b for f in F.elements))
    return conjugates


def conjugacy_class(G, g):
    """The set of b^-1*g*b over every b in G."""
    return {b.inverse() * g * b for b in G.elements}


def conjugate_only_to_powers(G, f):
    """Whether b^-1*f*b is a power of f for every b in G."""
    powers = set(generated_subgroup(G, f).elements)
    return all(b.inverse() * f * b in powers for b in G.elements)


def grid_arrow_generators(p1, p2):
    """Generators of Z_p2 ⋊ Z_p1 on p2*p2 grid points: the maps
    (x, y) -> (a*x, y) and (x, y) -> (x, x + y) mod p2, with point (x, y)
    at index x*p2 + y and a of multiplicative order p1 mod p2."""
    a = element_of_order(p1, p2)
    scale = [a * x % p2 * p2 + y for x in range(p2) for y in range(p2)]
    shear = [x * p2 + (x + y) % p2 for x in range(p2) for y in range(p2)]
    return [Permutation(scale), Permutation(shear)]
