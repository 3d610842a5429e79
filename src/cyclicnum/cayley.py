"""Exhaustive enumeration of group multiplication tables.

This is the independent cross-check for the rest of the package.  It
imports nothing from the package except ``errors``, so it never touches
permutations or number theory, and ``tests/test_layers.py`` checks that.
The glue that realizes a table as a permutation group or compares the
enumeration with the gcd test lives in ``crosscheck``.  Tables are n x n
grids over {0..n-1} with 0 as the identity; the search fixes row 0 and
column 0, keeps rows and columns Latin with bitmasks, and propagates
associativity: each entry it sets fills every cell that a triple with
three known cells forces, and a clash rejects the branch.

Tables are told apart up to relabeling by a canonical form, the
lexicographically least identity-fixing relabeling.  The search builds
only tables that meet bounds every canonical table meets (20 of the
2760 identity-fixed tables at order 8; see ``_candidate_tables``), in
increasing order, so the first candidate of each class is its canonical
form.  Each later candidate is tested against the classes found so far
with its element orders, by a relabeling walk held to a class's form,
and ``canonical_form`` finds a table's class the same way.  Order 16
takes about 25 s, nearly all of it in those isomorphism tests, which is
why the order cap is 15.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .errors import CapacityError

ORDER_CAP = 15

Table = tuple[tuple[int, ...], ...]


def _group_rows(t: "CayleyTable | Table") -> Table:
    """The rows of t, validated first unless t is an already checked CayleyTable."""
    return (t if isinstance(t, CayleyTable) else CayleyTable(t)).table


def validate_table(table: Table) -> None:
    """Raise ValueError unless the table is a group table with identity 0."""
    n = len(table)
    if n == 0:
        raise ValueError("a table needs at least the identity element")
    full = frozenset(range(n))
    for i, row in enumerate(table):
        if len(row) != n:
            raise ValueError(f"row {i} has length {len(row)}, expected {n}")
        if frozenset(row) != full:
            raise ValueError(f"row {i} is not a permutation of 0..{n - 1}")
    for j in range(n):
        if frozenset(row[j] for row in table) != full:
            raise ValueError(f"column {j} is not a permutation of 0..{n - 1}")
    if any(table[0][j] != j for j in range(n)) or any(table[i][0] != i for i in range(n)):
        raise ValueError("element 0 must act as a two-sided identity")
    for a in range(n):
        for b in range(n):
            ab = table[a][b]
            row_a = table[a]
            for c in range(n):
                if table[ab][c] != row_a[table[b][c]]:
                    raise ValueError(f"associativity fails on the triple ({a}, {b}, {c})")
    for a in range(n):
        b = table[a].index(0)
        if table[b][a] != 0:
            raise ValueError(f"element {a} has no two-sided inverse")


@dataclass(frozen=True)
class CayleyTable:
    """A verified multiplication table; construction re-checks all axioms."""

    table: Table

    def __post_init__(self):
        object.__setattr__(self, "table", tuple(tuple(row) for row in self.table))
        validate_table(self.table)

    @property
    def n(self) -> int:
        return len(self.table)

    def __repr__(self) -> str:
        return f"<CayleyTable of order {len(self.table)}>"


def _candidate_tables(n: int) -> list[Table]:
    """Every group table on {0..n-1} with identity 0 that could be canonical.

    A backtracker over the interior cells in row-major order that fills
    forced cells instead of branching on them.  A triple (a, b, c) touches
    four cells: (a, b), (b, c), (a*b, c) and (a, b*c).  Once three of them
    are known, associativity names the fourth, so ``assign`` pushes it as
    a forced assignment, and a clash with a known cell or with a row's or
    column's used values rejects the branch; ``trail`` undoes it.

    Three bounds that every canonical table meets cut the rest.  Read
    left to right, an unlabeled product in row 1 can take the next free
    label, and any other is larger, so a canonical table names its labels
    in row 1 in first-appearance order.  Entry (1, j) is then at most one
    more than the largest label named so far, j itself or any earlier
    entry of row 1.
    A complete row 1 is then the pattern of element 1's order k: labels
    come in blocks B_c = {ck, ..., ck + k - 1}, and label ck + i is
    g**i * h_c for g = element 1 and the block's header h_c = ck.
    Relabelings that keep the headers of blocks 0..c fix every label
    below (c + 1)k and may reorder the later blocks and rotate each one.
    So in row k, the row of the first header, an entry at column j that
    opens a block above c = max(j // k, 1) must be the header of the
    least block row k has not used: at most (max(top, j, k) // k + 1) * k,
    where top is the largest entry to its left.  Row 1's bound is the
    case k = 1.  The walk checks it on forced cells as it passes them and
    on branch values.  A smaller k gives a smaller row 1, so once entry
    (1, 1) is 2 (element 1 has order above 2) ``assign`` rejects an
    involution, a 0 on the diagonal.

    Values are tried in increasing order, so the tables come out in
    strictly increasing order.
    """
    t = [-1] * (n * n)
    for j in range(n):
        t[j] = j
    for i in range(n):
        t[i * n] = i
    # pre[x] lists filled interior cells (a, b) with a*b = x.  Row-0/col-0
    # cells never enter: any triple touching the identity holds trivially.
    pre: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    rowmask = [(1 << n) - 1] + [1 << i for i in range(1, n)]
    colmask = [(1 << n) - 1] + [1 << j for j in range(1, n)]
    trail: list[int] = []  # the positions filled so far, in order
    out: list[Table] = []
    limit = (1 << n) - 1
    last = n * n
    inner = range(1, n)
    # One shared (row, column) tuple per cell, and forced assignments
    # queued as the int position * n + value: propagation allocates no tuple.
    cells = [divmod(pos, n) for pos in range(last)]

    def assign(pos: int, v: int) -> bool:
        """Set the cell at pos to v and every cell that forces; False on a clash."""
        queue = [pos * n + v]
        push = queue.append
        while queue:
            pos, v = divmod(queue.pop(), n)
            x, y = cells[pos]
            if t[pos] >= 0:
                if t[pos] != v:
                    return False
                continue
            bit = 1 << v
            if (rowmask[x] | colmask[y]) & bit:
                return False
            if not v and x == y and t[n + 1] == 2:  # an involution
                return False
            t[pos] = v
            rowmask[x] |= bit
            colmask[y] |= bit
            pre[v].append(cells[pos])
            trail.append(pos)
            # (x, y) as each of the four cells of a triple; lhs is
            # (a*b)*c and rhs is a*(b*c).  The border is always known, so
            # no push lands on row 0 or column 0.
            bx, by, bv = x * n, y * n, v * n
            for c in inner:  # as (a, b): a*b = v
                q = t[by + c]
                if q >= 0:
                    lhs, rhs = t[bv + c], t[bx + q]
                    if lhs < 0:
                        if rhs >= 0:
                            push((bv + c) * n + rhs)
                    elif rhs < 0:
                        push((bx + q) * n + lhs)
                    elif lhs != rhs:
                        return False
            for ba in range(n, last, n):  # as (b, c): b*c = v
                p = t[ba + x]
                if p >= 0:
                    lhs, rhs = t[p * n + y], t[ba + v]
                    if lhs < 0:
                        if rhs >= 0:
                            push((p * n + y) * n + rhs)
                    elif rhs < 0:
                        push((ba + v) * n + lhs)
                    elif lhs != rhs:
                        return False
            for a, b in pre[x]:  # as (a*b, c)
                q = t[b * n + y]
                if q >= 0:
                    rhs = t[a * n + q]
                    if rhs < 0:
                        push((a * n + q) * n + v)
                    elif rhs != v:
                        return False
            for b, c in pre[y]:  # as (a, b*c)
                p = t[bx + b]
                if p >= 0:
                    lhs = t[p * n + c]
                    if lhs < 0:
                        push((p * n + c) * n + v)
                    elif lhs != v:
                        return False
        return True

    def undo(mark: int) -> None:
        while len(trail) > mark:
            pos = trail.pop()
            v = t[pos]
            t[pos] = -1
            pre[v].pop()
            bit = 1 << v
            x, y = cells[pos]
            rowmask[x] ^= bit
            colmask[y] ^= bit

    def fill(pos: int, top: int, k: int) -> None:
        # Pass the filled cells, checking row k's bound on each; top is
        # the largest entry of row k so far.  k is 1 until row 1 is
        # complete, then the order of element 1: the column of row 1's 0,
        # plus one.
        while pos < last and t[pos] >= 0:
            i, j = cells[pos]
            if i == k:
                if t[pos] > (max(top, j, k) // k + 1) * k:
                    return
                top = max(top, t[pos])
            if j < n - 1:
                pos += 1
            else:
                pos += 2
                if i == 1:
                    k, top = t.index(0, n) - n + 1, 0
        if pos >= last:
            out.append(tuple(tuple(t[i * n : (i + 1) * n]) for i in range(n)))
            return
        i, j = cells[pos]
        avail = ~(rowmask[i] | colmask[j]) & limit
        if i == k:
            avail &= (2 << (max(top, j, k) // k + 1) * k) - 1
        mark = len(trail)
        while avail:
            bit = avail & -avail
            avail ^= bit
            if assign(pos, bit.bit_length() - 1):
                fill(pos, top, k)
            undo(mark)

    fill(n + 1, 0, 1)
    return out


def canonical_form(t: "CayleyTable | Table") -> Table:
    """Least relabeling of the group table among all that keep the identity at 0.

    Two tables describe the same group up to renaming iff their canonical
    forms are equal.  Comparison is row-wise lexicographic.  The form is
    the class of enumerate_groups(len(t)) that t is isomorphic to, so
    orders above ORDER_CAP raise CapacityError.  A raw table is validated
    first, so a table that is not a group raises ValueError.
    """
    table = _group_rows(t)
    orders = _orders(table)
    return next(canon for same, canon in _classes(len(table)) if same == orders and _isomorphic(table, canon))


@cache
def _classes(n: int) -> tuple[tuple[tuple[int, ...], Table], ...]:
    """Each class of enumerate_groups(n) with its element orders, found once per n."""
    return tuple((_orders(c.table), c.table) for c in enumerate_groups(n))


def _isomorphic(table: Table, canon: Table) -> bool:
    """Whether some identity-fixing relabeling of a group table gives canon.

    canon is a canonical form, so its row 1 names its labels in
    first-appearance order.  The relabeling is built while row 1 is read
    left to right: a header label with no element yet branches over every
    unlabeled element, and a row-1 product that is not yet labeled must
    take canon's next label.  After each new label the
    branch is cut when a product of two labeled elements has a label
    other than canon's entry, or none while canon's entry is a label
    already used.  The walk stops at the first relabeling that
    reproduces canon.
    """
    n = len(table)
    rho = [0] * n  # new label -> old element
    sigma = [0] + [-1] * (n - 1)  # old element -> new label, -1 if unlabeled

    def fits(k: int) -> bool:
        # Label k-1 is the newest: check its products with labels 1..k-1.
        new = rho[k - 1]
        for lab in range(1, k):
            old = rho[lab]
            for p, want in ((table[old][new], canon[lab][k - 1]), (table[new][old], canon[k - 1][lab])):
                if sigma[p] != want and (sigma[p] >= 0 or want < k):
                    return False
        return True

    def header(y: int, k: int) -> bool:
        if y == n:  # every label is named: compare what fits left open
            return all(sigma[table[rho[x]][rho[z]]] == canon[x][z] for x in range(1, n) for z in range(1, n))
        if y < k:
            return cell(y, k)
        for e in range(1, n):
            if sigma[e] < 0:
                rho[y] = e
                sigma[e] = y
                found = fits(k + 1) and cell(y, k + 1)
                sigma[e] = -1
                if found:
                    return True
        return False

    def cell(y: int, k: int) -> bool:
        p = table[rho[1]][rho[y]]
        if sigma[p] >= 0:
            return sigma[p] == canon[1][y] and header(y + 1, k)
        if canon[1][y] != k:
            return False
        rho[k] = p
        sigma[p] = k
        found = fits(k + 1) and header(y + 1, k + 1)
        sigma[p] = -1
        return found

    return header(1, 1)


def table_is_cyclic(t: "CayleyTable | Table") -> bool:
    """True iff some single element's powers sweep out the whole table."""
    orders = element_orders(t)
    return orders[-1] == len(orders)


def element_orders(t: "CayleyTable | Table") -> tuple[int, ...]:
    """Sorted multiset of element orders, read directly off the table."""
    return _orders(_group_rows(t))


def _orders(table: Table) -> tuple[int, ...]:
    """element_orders of a table known to be a group table."""
    orders = []
    for g in range(len(table)):
        order = 1
        x = g
        while x != 0:
            x = table[x][g]
            order += 1
        orders.append(order)
    return tuple(sorted(orders))


def enumerate_groups(n: int) -> list[CayleyTable]:
    """All groups of order n up to relabeling, as canonical-form tables.

    Refuses n above ORDER_CAP = 15 with CapacityError.  The cost follows
    the number of groups, not n: order 12 takes about 0.1 s against a
    few milliseconds at order 8, and order 16, past the cap, about 25 s.
    """
    if n < 1:
        raise ValueError("the order must be at least 1")
    if n > ORDER_CAP:
        raise CapacityError(f"enumeration of order {n} exceeds the cap of {ORDER_CAP}")
    # The candidates are group tables by construction: skip re-validating
    # them.  They come in increasing order and include every class's
    # canonical form, which is the least table of its class, so a
    # candidate that matches none of the classes found so far with its
    # element orders is the canonical form of a new class.
    classes: dict[tuple[int, ...], list[Table]] = {}
    for table in _candidate_tables(n):
        same = classes.setdefault(_orders(table), [])
        if not any(_isomorphic(table, canon) for canon in same):
            same.append(table)
    return [CayleyTable(rep) for rep in sorted(rep for same in classes.values() for rep in same)]
