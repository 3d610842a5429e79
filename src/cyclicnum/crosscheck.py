"""Glue between the table layer and the other two.

``cayley`` enumerates tables without touching permutations or number
theory, so its verdicts are independent evidence.  This module is the one
place where the layers meet: it realizes a table as a permutation group,
and compares the enumeration's all-cyclic verdict with the gcd test.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cayley import DEFAULT_ORDER_CAP, CayleyTable, Table, enumerate_groups, table_is_cyclic
from .groups import FiniteGroup, closure
from .numtheory import is_cyclic_number
from .perm import Permutation


def regular_representation(t: CayleyTable | Table) -> FiniteGroup:
    """The table's rows acting on {0..n-1}: row g sends x to g*x.

    Row composition mirrors the table product, so the resulting
    permutation group is the same group realized concretely.  It is the
    closure of the rows other than the identity's (the identity's row
    alone at order 1), capped at the n elements the rows are.  A raw
    table is validated by building a CayleyTable from it.
    """
    table = (t if isinstance(t, CayleyTable) else CayleyTable(t)).table
    rows = [Permutation(row) for row in table]
    return closure(rows[1:] or rows[:1], max_size=len(rows))


@dataclass(frozen=True)
class TheoremRow:
    """One order's worth of evidence comparing enumeration with the test."""

    n: int
    group_count: int
    cyclic_count: int
    all_cyclic: bool
    predicted: bool

    @property
    def agree(self) -> bool:
        return self.all_cyclic == self.predicted


def verify_theorem_small(n_max: int, *, cap: int = DEFAULT_ORDER_CAP) -> list[TheoremRow]:
    """For each n <= n_max, confirm enumeration agrees with the number test.

    "Every group of order n is cyclic" is decided two independent ways:
    by inspecting every table of order n, and by the gcd test on n.
    """
    out = []
    for n in range(1, n_max + 1):
        classes = enumerate_groups(n, cap=cap)
        cyclic = sum(1 for c in classes if table_is_cyclic(c))
        out.append(
            TheoremRow(
                n=n,
                group_count=len(classes),
                cyclic_count=cyclic,
                all_cyclic=cyclic == len(classes),
                predicted=is_cyclic_number(n),
            )
        )
    return out
