"""Smith normal form of integer matrices, with transform tracking.

Used for abelian invariants of group presentations, for deciding
membership of a vector in the row lattice of a relator matrix, and for
solving monomial equation systems when matching ideals by dilatation
(which replays the row operations on the right-hand side).
Plain Python ints throughout, so there is no overflow to worry about.
"""

from __future__ import annotations


def smith_normal_form(rows, row_ops=None):
    """Return (diag, V) for the integer matrix ``rows`` (list of lists).

    diag is the list of invariant factors d_1 | d_2 | ... (the rank-many
    diagonal entries, all positive), and V is the square column-transform
    matrix such that U * M * V is the diagonal Smith form for some
    unimodular U.  U is not returned, since row operations do not change
    the row lattice; a caller that needs it passes a list as ``row_ops``,
    to which each row operation is appended in order: ``(dst, src, c)``
    adds c times row src to row dst, and ``(i, j, None)`` swaps rows i
    and j.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [list(r) for r in rows]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        if row_ops is not None:
            row_ops.append((i, j, None))

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def add_row(dst, src, c):
        row_s = a[src]
        row_d = a[dst]
        for k in range(n):
            row_d[k] += c * row_s[k]
        if row_ops is not None:
            row_ops.append((dst, src, c))

    def add_col(dst, src, c):
        for r in a:
            r[dst] += c * r[src]
        for r in v:
            r[dst] += c * r[src]

    def negate_col(i):
        for r in a:
            r[i] = -r[i]
        for r in v:
            r[i] = -r[i]

    t = 0
    while True:
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < best):
                    pivot = (i, j)
                    best = abs(a[i][j])
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            for i in range(t + 1, m):
                while a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    add_row(i, t, -q)
                    if a[i][t] != 0:
                        swap_rows(t, i)
            for j in range(t + 1, n):
                while a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    add_col(j, t, -q)
                    if a[t][j] != 0:
                        swap_cols(t, j)
            if any(a[i][t] != 0 for i in range(t + 1, m)):
                continue
            # make the pivot divide the rest of the block, so the
            # invariant factors come out chained
            bad = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if a[i][j] % a[t][t] != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            add_row(t, bad, 1)
        if a[t][t] < 0:
            negate_col(t)
        t += 1

    diag = [a[k][k] for k in range(t)]
    return diag, v


class RowLattice:
    """The sublattice of Z^n spanned by integer relator rows.

    Zero rows and repeats of a row span nothing new, so only the first
    copy of each nonzero row goes into the Smith normal form, in order.
    The lattice, hence ``diag``, is the same; ``V`` may be another valid
    column transform than that of the full matrix.  ``image`` is the one
    place that multiplies by ``V``; x lies in the lattice exactly when its
    image is zero.
    """

    def __init__(self, rows, n):
        self.n = n
        rows = [list(r) for r in dict.fromkeys(tuple(r) for r in rows)
                if any(r)]
        if rows:
            self.diag, self.v = smith_normal_form(rows)
        else:
            self.diag = []
            self.v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def image(self, x):
        """Normal-form coordinates of x in Z^n / lattice.

        x * V is the sum of c times row i of V over the nonzero entries
        c = x[i], so a sparse x costs a few rows.  Its torsion
        coordinates come first (mod the invariant factors > 1; a factor
        1 leaves only 0), then the free coordinates; the all-zero tuple
        means x lies in the lattice.
        """
        w = [0] * self.n
        for c, row in zip(x, self.v):
            if c:
                w = [a + c * e for a, e in zip(w, row)]
        torsion = [c % d for c, d in zip(w, self.diag) if d > 1]
        return tuple(torsion) + tuple(w[len(self.diag):])

    def invariants(self):
        """(free rank, torsion factors d > 1) of Z^n / lattice."""
        torsion = tuple(d for d in self.diag if d > 1)
        return (self.n - len(self.diag), torsion)
