"""Permutations of {0, ..., m-1} stored as image tables.

A permutation of degree m is a bijection on the points 0..m-1, kept as the
tuple of images (entry i is where point i goes).  Composition follows the
function-composition convention: compose(f, g) applies g first, then f.
Degrees are fixed; composing across degrees is an error rather than an
implicit extension.

Products run in C: the gather of g, ``operator.itemgetter(*g.images)``,
maps the image tuple of any f to that of f∘g in one call, so no
bytecode runs per entry.  ``compose`` is one gather, and the group
engine builds one gather per generator (or per element whose powers it
walks) and applies it to raw image tuples.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Sequence
from operator import itemgetter


class Permutation:
    """Immutable permutation; supports f * g (compose), f(x), f ** k."""

    __slots__ = ("images",)

    images: tuple[int, ...]

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        m = len(images)
        if m == 0:
            raise ValueError("a permutation needs degree at least 1")
        seen = [False] * m
        for v in images:
            if type(v) is not int:
                raise ValueError(f"permutation images must be ints, got {v!r}")
            if not 0 <= v < m or seen[v]:
                raise ValueError(f"images {images!r} are not a bijection on 0..{m - 1}")
            seen[v] = True
        self.images = images

    @classmethod
    def _trusted(cls, images: tuple[int, ...]) -> "Permutation":
        # Internal fast path for images already known to be a bijection.
        p = object.__new__(cls)
        p.images = images
        return p

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x]

    def __mul__(self, other: "Permutation") -> "Permutation":
        return compose(self, other)

    def __pow__(self, k: int) -> "Permutation":
        if k < 0:
            return inverse(self) ** (-k)
        result = identity(self.degree)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def inverse(self) -> "Permutation":
        return inverse(self)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __lt__(self, other: "Permutation") -> bool:
        return self.images < other.images

    def __le__(self, other: "Permutation") -> bool:
        return self.images <= other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)})"


def identity(m: int) -> Permutation:
    """The permutation fixing every point of 0..m-1."""
    if m < 1:
        raise ValueError(f"degree must be positive, got {m}")
    return Permutation._trusted(tuple(range(m)))


def _same(images: tuple[int, ...]) -> tuple[int, ...]:
    return images


def _gather(images: tuple[int, ...]) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    """The map x -> x∘g on image tuples, for the g with these images.

    The result is an exact-size tuple built in C.  At degree 1 itemgetter
    would return a bare item, not a 1-tuple; the only permutation there is
    the identity, so the map is the identity on its one tuple.
    """
    if len(images) == 1:
        return _same
    return itemgetter(*images)


def compose(f: Permutation, g: Permutation) -> Permutation:
    """f after g: the result maps x to f(g(x))."""
    if len(f.images) != len(g.images):
        raise ValueError(f"degree mismatch: {len(f.images)} vs {len(g.images)}")
    return Permutation._trusted(_gather(g.images)(f.images))


def inverse(f: Permutation) -> Permutation:
    inv = [0] * len(f.images)
    for i, v in enumerate(f.images):
        inv[v] = i
    return Permutation._trusted(tuple(inv))


def cycle(points: Sequence[int], m: int) -> Permutation:
    """Cycle sending each listed point to its successor and the last to the first.

    All other points of 0..m-1 stay fixed.  Points must be distinct and in
    range; a single point gives the identity.
    """
    if m < 1:
        raise ValueError(f"degree must be positive, got {m}")
    images = list(range(m))
    if len(set(points)) != len(points):
        raise ValueError(f"cycle points must be distinct: {list(points)!r}")
    for p in points:
        if not 0 <= p < m:
            raise ValueError(f"cycle point {p} out of range for degree {m}")
    k = len(points)
    for i, p in enumerate(points):
        images[p] = points[(i + 1) % k]
    return Permutation._trusted(tuple(images))


def _cycles(images: tuple[int, ...]) -> list[list[int]]:
    """The cycles of the permutation with these images, each from its
    least point and in the order the permutation visits its points."""
    seen = [False] * len(images)
    cycles = []
    for start in range(len(images)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        y = images[start]
        while y != start:
            cyc.append(y)
            seen[y] = True
            y = images[y]
        cycles.append(cyc)
    return cycles


def cycle_lengths(f: Permutation) -> list[int]:
    """Lengths of the disjoint cycles of f (fixed points count as length 1)."""
    return [len(cyc) for cyc in _cycles(f.images)]


def perm_order(f: Permutation) -> int:
    """Least n >= 1 with f**n the identity: the lcm of the cycle lengths."""
    return math.lcm(*cycle_lengths(f))
