"""Slow reference implementations that the Cayley-table tests compare against.

``candidate_tables`` is the table search that branches on every free
cell and only rejects a value once it completes a non-associative
triple; ``cyclicnum.cayley`` fills the cells associativity forces
instead of branching on them, and must find the same tables.
``all_labeled_tables`` is the same search without the canonical-row
pruning, so it finds every identity-fixed group table (2760 at order 8,
about 40 s).  ``brute_canonical_form`` tries all (n-1)! identity-fixing
relabelings.  ``meets_search_bounds`` tests a complete table against
the two canonicity bounds that ``cyclicnum.cayley`` adds to row 1's:
the search must find exactly the oracle's tables that meet them.  The
search's first table of each class is then the class's canonical form,
and ``enumerate_groups`` tells classes apart by a relabeling walk held
to that form.
"""

from itertools import permutations


def consistent(n, t, pre, i, j, v):
    """With t[i][j] tentatively v, is every fully determined triple associative?

    A triple (a, b, c) touches four cells: (a, b), (b, c), (a*b, c) and
    (a, b*c).  Each family below catches the case where (i, j) plays one
    of those roles; pre[x] lists the filled cells whose product is x, so
    the last two families are direct lookups instead of scans.  Triples
    with a 0 in them hold by the identity axiom, hence the loops from 1.
    """
    base_i = i * n
    base_j = j * n
    base_v = v * n
    for c in range(1, n):
        q = t[base_j + c]
        if q >= 0:
            lhs = t[base_v + c]
            if lhs >= 0:
                rhs = t[base_i + q]
                if rhs >= 0 and lhs != rhs:
                    return False
    for base_a in range(n, n * n, n):
        p = t[base_a + i]
        if p >= 0:
            rhs = t[base_a + v]
            if rhs >= 0:
                lhs = t[p * n + j]
                if lhs >= 0 and lhs != rhs:
                    return False
    for a, b in pre[i]:
        q = t[b * n + j]
        if q >= 0:
            rhs = t[a * n + q]
            if rhs >= 0 and rhs != v:
                return False
    for b, c in pre[j]:
        p = t[base_i + b]
        if p >= 0:
            lhs = t[p * n + c]
            if lhs >= 0 and lhs != v:
                return False
    return True


def all_labeled_tables(n):
    """Every group table on {0..n-1} with identity 0, by backtracking."""
    return candidate_tables(n, bound_row1=False)


def candidate_tables(n, bound_row1=True):
    """Every group table on {0..n-1} with identity 0 that could be canonical.

    A backtracker over the interior cells in row-major order that tries
    every value a row and column leave free and keeps it if ``consistent``
    accepts it.  A canonical table names its labels in row 1 in
    first-appearance order (see canonical_form), so entry (1, j) is at
    most one more than the largest label named so far: j itself or any
    earlier entry of row 1.  With bound_row1 false that bound is dropped
    and every identity-fixed table is found.
    """
    t = [-1] * (n * n)
    for j in range(n):
        t[j] = j
    for i in range(n):
        t[i * n] = i
    # pre[x] lists filled interior cells (a, b) with a*b = x.  Row-0/col-0
    # cells never enter: any triple touching the identity holds trivially.
    pre = [[] for _ in range(n)]
    rowmask = [(1 << n) - 1] + [1 << i for i in range(1, n)]
    colmask = [(1 << n) - 1] + [1 << j for j in range(1, n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]
    out = []
    limit = (1 << n) - 1

    def fill(depth):
        if depth == len(cells):
            out.append(tuple(tuple(t[i * n : (i + 1) * n]) for i in range(n)))
            return
        i, j = cells[depth]
        avail = ~(rowmask[i] | colmask[j]) & limit
        if i == 1 and bound_row1:
            avail &= (4 << max(j, *t[n : n + j])) - 1
        pos = i * n + j
        while avail:
            bit = avail & -avail
            avail ^= bit
            v = bit.bit_length() - 1
            t[pos] = v
            if consistent(n, t, pre, i, j, v):
                pre[v].append((i, j))
                rowmask[i] |= bit
                colmask[j] |= bit
                fill(depth + 1)
                rowmask[i] ^= bit
                colmask[j] ^= bit
                pre[v].pop()
            t[pos] = -1

    fill(0)
    return out


def meets_search_bounds(table):
    """Whether a group table whose row 1 is in first-appearance order meets
    the two bounds the search adds.

    A smaller order k of element 1 gives a smaller row 1, so with k > 2
    no element may be an involution.  Labels come in blocks
    {ck, ..., ck + k - 1}; read left to right, an entry of row k at
    column y whose block is above c = max(y // k, 1) and not yet used by
    row k must be the first label of the least such block.
    """
    n = len(table)
    if n <= 2:
        return True
    k, x = 1, 1
    while x != 0:
        x = table[x][1]
        k += 1
    if k > 2 and any(table[x][x] == 0 for x in range(1, n)):
        return False
    if k == n:
        return True
    used = set()
    for y in range(1, n):
        c = max(y // k, 1)
        block = table[k][y] // k
        if block > c and block not in used:
            least = min(b for b in range(c + 1, n // k) if b not in used)
            if table[k][y] != least * k:
                return False
        used.add(block)
    return True


def brute_canonical_form(table):
    """Least identity-fixing relabeling, by trying every one of them."""
    table = tuple(tuple(row) for row in table)
    n = len(table)
    if n <= 2:
        return table
    best = None
    sigma = [0] * n
    for rho_rest in permutations(range(1, n)):
        rho = (0,) + rho_rest  # new label -> old label
        for new, old in enumerate(rho):
            sigma[old] = new
        cand = [tuple(range(n))]
        verdict = 0  # against best: -1 smaller, 0 equal so far, 1 larger
        for x in range(1, n):
            old_row = table[rho[x]]
            row = tuple(sigma[old_row[o]] for o in rho)
            cand.append(row)
            if best is not None and verdict == 0:
                ref = best[x]
                if row > ref:
                    verdict = 1
                    break
                if row < ref:
                    verdict = -1
        if best is None or verdict == -1:
            best = cand
    return tuple(best)
