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

Tables are deduplicated up to relabeling by a canonical form, the
lexicographically least identity-fixing relabeling.  It is found by
branch and bound rather than by trying all (n-1)! relabelings: labels
are handed out in order of first appearance while the table is read row
by row, so row 1 names every element and only the choices of new header
elements branch.  Row 1 of a canonical table is then the pattern of
element 1's order k, and k is the least order of any non-identity
element, so when k > 2 there is no involution.  The row of the first
header names new blocks of k labels in first-appearance order.  The
search only builds tables that meet these bounds (20 of the 2760
identity-fixed tables at order 8), in increasing order, so the first
candidate of each class is its canonical form.  Each later candidate is
tested against the classes found so far with its element orders, by
the same relabeling walk held to a class's canonical form, and no
canonical form is computed.

Order 12 takes about 0.1 s and order 15 a few hundredths of a second,
with no warning.  Order 16 takes about 25 s, nearly all of it in those
isomorphism tests, which is why the hard cap stops at 15.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapacityError

DEFAULT_ORDER_CAP = 8
HARD_ORDER_CAP = 15

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

    Three bounds that every canonical table meets (see canonical_form)
    cut the rest.  A canonical table names its labels in row 1 in
    first-appearance order, so entry (1, j) is at most one more than the
    largest label named so far: j itself or any earlier entry of row 1.
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
    forms are equal.  Comparison is row-wise lexicographic.  A raw table
    is validated first, so a table that is not a group raises ValueError.
    """
    return _canonical_form(_group_rows(t))


def _canonical_form(table: Table) -> Table:
    """canonical_form of a table known to be a group table.

    The relabeling is built while the candidate is read in row-major
    order: a header label with no element yet branches over every
    unlabeled element, and an unlabeled product takes the next free
    label, since any other label there is larger.  Row 1 thereby names
    every label (first-appearance order), so later rows are fixed, and a
    branch is cut as soon as its prefix exceeds the best candidate found
    so far.
    """
    n = len(table)
    if n <= 2:
        return table
    rho = [0] * n  # new label -> old element
    sigma = [0] + [-1] * (n - 1)  # old element -> new label, -1 if unlabeled
    row1 = [1] * n  # row 1 of the candidate, filled left to right
    best: list[tuple[int, ...]] = []

    # Invariant: labels 0..k-1 are assigned, row-1 cells 1..y-1 are filled,
    # and ``tight`` says they equal best's (False before the first leaf).
    # Each call returns whether best was replaced below it; the new best
    # shares the caller's prefix, so the caller is tight from then on.
    def header(y: int, k: int, tight: bool) -> bool:
        if y == n:
            return leaf(tight)
        if y < k:
            return cell(y, k, tight)
        improved = False
        for e in range(1, n):
            if sigma[e] < 0:
                rho[y] = e
                sigma[e] = y
                if cell(y, k + 1, tight):
                    improved = tight = True
                sigma[e] = -1
        return improved

    def cell(y: int, k: int, tight: bool) -> bool:
        p = table[rho[1]][rho[y]]
        fresh = sigma[p] < 0
        if fresh:
            sigma[p] = k
            rho[k] = p
        v = sigma[p]
        improved = False
        if not tight or v <= best[1][y]:
            row1[y] = v
            improved = header(y + 1, k + fresh, tight and v == best[1][y])
        if fresh:
            sigma[p] = -1
        return improved

    def leaf(tight: bool) -> bool:
        rows = [tuple(range(n)), tuple(row1)]
        for x in range(2, n):
            old_row = table[rho[x]]
            row = tuple(sigma[old_row[o]] for o in rho)
            if tight:
                if row > best[x]:
                    return False
                tight = row == best[x]
            rows.append(row)
        if tight:
            return False
        best[:] = rows
        return True

    header(1, 1, False)
    return tuple(best)


def _isomorphic(table: Table, canon: Table) -> bool:
    """Whether some identity-fixing relabeling of a group table gives canon.

    canon is a canonical form.  The relabeling walk of _canonical_form
    runs with its row 1 held equal to canon's, so each new element of
    row 1 must get canon's next label.  After each new label the branch
    is cut when a product of two labeled elements has a label other than
    canon's entry, or none while canon's entry is a label already used.
    The walk stops at the first relabeling that reproduces canon.
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


def enumerate_groups(n: int, *, cap: int = DEFAULT_ORDER_CAP) -> list[CayleyTable]:
    """All groups of order n up to relabeling, as canonical-form tables.

    Refuses n beyond the cap (default 8, hard limit HARD_ORDER_CAP = 15).
    The cost follows the number of groups, not n: order 12 takes about
    0.1 s against a few milliseconds at order 8, and order 16, past the
    hard limit, about 25 s.
    """
    if n < 1:
        raise ValueError("the order must be at least 1")
    effective = min(cap, HARD_ORDER_CAP)
    if n > effective:
        raise CapacityError(
            f"enumeration of order {n} exceeds the cap of {effective}"
        )
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
