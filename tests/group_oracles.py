"""Slow reference implementations that the group-engine tests compare against.

``compose`` and ``closure`` build every product entry by entry in Python
bytecode and keep a set of Permutation objects, where ``cyclicnum.perm``
and ``cyclicnum.groups`` gather in C on raw image tuples.

The rest sweep all of G: the normalizer tests every element, and the
conjugates of a subgroup or an element are taken over every b in G.
``cyclicnum.groups`` computes the same answers with one test per coset
of F and with orbits under conjugation by the generators.
"""

from cyclicnum import CapacityError, Permutation, generated_subgroup, identity


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


def normalizer(G, F):
    """The set of a in G with F*a == a*F."""
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
