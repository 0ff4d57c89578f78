"""The eager Smith factorization, kept as a reference.

`SmithForm` records its row and column operations and builds each
transform when it is read.  This is the factorization it replaced, which
updated all four transforms with every operation.  Tests compare the two
entry for entry and reuse this one where they need a factorization made
independently of `SmithForm`.
"""

from sslift.homology import IntMatrix


def _smith_tracked(m: IntMatrix):
    """Smith normal form with both transforms and their inverses.

    Returns (d, u, v, u_inv, v_inv) with u @ m @ v == d, u and v
    unimodular, and d diagonal with a divisibility chain.  Each row
    operation on u is undone by a column operation on u_inv, and each
    column operation on v by a row operation on v_inv.
    """
    a = m.copy()
    rows, cols = a.rows, a.cols
    tu = IntMatrix.identity(rows)
    tuinv = IntMatrix.identity(rows)
    tv = IntMatrix.identity(cols)
    tvinv = IntMatrix.identity(cols)

    def row_swap(i, j):
        a.data[i], a.data[j] = a.data[j], a.data[i]
        tu.data[i], tu.data[j] = tu.data[j], tu.data[i]
        for r in tuinv.data:
            r[i], r[j] = r[j], r[i]

    def col_swap(i, j):
        for r in a.data:
            r[i], r[j] = r[j], r[i]
        for r in tv.data:
            r[i], r[j] = r[j], r[i]
        tvinv.data[i], tvinv.data[j] = tvinv.data[j], tvinv.data[i]

    def row_add(i, j, c):
        # row_i += c * row_j
        a.data[i] = [x + c * y for x, y in zip(a.data[i], a.data[j])]
        tu.data[i] = [x + c * y for x, y in zip(tu.data[i], tu.data[j])]
        for r in tuinv.data:
            r[j] -= c * r[i]

    def col_add(i, j, c):
        # col_i += c * col_j
        for r in a.data:
            r[i] += c * r[j]
        for r in tv.data:
            r[i] += c * r[j]
        tvinv.data[j] = [x - c * y for x, y in zip(tvinv.data[j], tvinv.data[i])]

    def row_negate(i):
        a.data[i] = [-x for x in a.data[i]]
        tu.data[i] = [-x for x in tu.data[i]]
        for r in tuinv.data:
            r[i] = -r[i]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                val = abs(a.data[i][j])
                if val and (best is None or val < best):
                    best = val
                    pivot = (i, j)
        if pivot is None:
            break
        i, j = pivot
        if i != t:
            row_swap(t, i)
        if j != t:
            col_swap(t, j)
        if a.data[t][t] < 0:
            row_negate(t)
        p = a.data[t][t]
        dirty = False
        for i in range(t + 1, rows):
            if a.data[i][t]:
                q = a.data[i][t] // p
                row_add(i, t, -q)
                if a.data[i][t]:
                    dirty = True
        for j in range(t + 1, cols):
            if a.data[t][j]:
                q = a.data[t][j] // p
                col_add(j, t, -q)
                if a.data[t][j]:
                    dirty = True
        if dirty:
            continue
        stuck = False
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if a.data[i][j] % p:
                    row_add(t, i, 1)
                    stuck = True
                    break
            if stuck:
                break
        if stuck:
            continue
        t += 1
    return a, tu, tv, tuinv, tvinv
