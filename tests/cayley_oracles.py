"""Slow reference implementations that the Cayley-table tests compare against.

``all_labeled_tables`` is the table search without the canonical-row
pruning, so it finds every identity-fixed group table (2760 at order 8,
about 40 s).  ``brute_canonical_form`` tries all (n-1)! identity-fixing
relabelings.  ``cyclicnum.cayley`` computes the same canonical forms
while searching only the tables that can be canonical.
"""

from itertools import permutations

from cyclicnum.cayley import _consistent


def all_labeled_tables(n):
    """Every group table on {0..n-1} with identity 0, by backtracking."""
    t = [-1] * (n * n)
    for j in range(n):
        t[j] = j
    for i in range(n):
        t[i * n] = i
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
        pos = i * n + j
        while avail:
            bit = avail & -avail
            avail ^= bit
            v = bit.bit_length() - 1
            t[pos] = v
            if _consistent(n, t, pre, i, j, v):
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
