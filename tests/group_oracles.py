"""Slow reference implementations that the group-engine tests compare against.

Each one sweeps all of G: the normalizer tests every element, and the
conjugates of a subgroup or an element are taken over every b in G.
``cyclicnum.groups`` computes the same answers with one test per coset
of F and with orbits under conjugation by the generators.
"""

from cyclicnum import generated_subgroup


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
