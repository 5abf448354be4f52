"""Dense exact linear algebra, kept as an oracle for the tests.

``matroidworks.linalg`` ranks and solves over Q with one sparse
fraction-free echelon.  The routines here are dense: the field-generic
Gauss-Jordan (pivots and kernel) and the Bareiss rank it replaced, the
determinant by Gaussian elimination, and Sylvester's criterion by Bareiss
pivots.  Matrices are lists of rows of field elements or ints; nothing
here imports ``matroidworks.linalg``.
"""

import math


def echelon(field, rows):
    """Reduced row echelon form of a working copy: (rows, pivot columns)."""
    f = field
    work = [[f.coerce(v) for v in r] for r in rows]
    ncols = len(work[0]) if work else 0
    pivots = []
    row = 0
    for col in range(ncols):
        sel = next((i for i in range(row, len(work)) if not f.is_zero(work[i][col])), None)
        if sel is None:
            continue
        work[row], work[sel] = work[sel], work[row]
        inv = f.inv(work[row][col])
        work[row] = [f.mul(inv, v) for v in work[row]]
        for i in range(len(work)):
            if i != row and not f.is_zero(work[i][col]):
                c = work[i][col]
                work[i] = [f.sub(a, f.mul(c, b)) for a, b in zip(work[i], work[row])]
        pivots.append(col)
        row += 1
    return work, pivots


def kernel_basis(field, rows):
    """Right kernel read off the reduced row echelon form, one vector per
    free column: 1 there, minus the column's entries at the pivots."""
    f = field
    work, pivots = echelon(field, rows)
    ncols = len(rows[0]) if rows else 0
    basis = []
    for j in sorted(set(range(ncols)) - set(pivots)):
        vec = [f.zero] * ncols
        vec[j] = f.one
        for r, pc in enumerate(pivots):
            vec[pc] = f.neg(work[r][j])
        basis.append(tuple(vec))
    return basis


def integer_rows(rows):
    """Rational rows, each multiplied by the lcm of its denominators."""
    out = []
    for row in rows:
        den = math.lcm(*(v.denominator for v in row))
        out.append([v.numerator * (den // v.denominator) for v in row])
    return out


def bareiss_rank(rows):
    """Rank over Q by Bareiss elimination of the integer-scaled rows; every
    division by the previous pivot is exact."""
    work = integer_rows(rows)
    ncols = len(work[0]) if work else 0
    rank = 0
    prev = 1
    for col in range(ncols):
        sel = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if sel is None:
            continue
        work[rank], work[sel] = work[sel], work[rank]
        top = work[rank]
        p = top[col]
        for i in range(rank + 1, len(work)):
            a = work[i][col]
            work[i] = [(p * x - a * y) // prev for x, y in zip(work[i], top)]
        prev = p
        rank += 1
    return rank


def det(field, rows):
    """Determinant by Gaussian elimination with row exchanges."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of a non-square matrix")
    f = field
    work = [[f.coerce(v) for v in r] for r in rows]
    out = f.one
    for col in range(n):
        sel = next((i for i in range(col, n) if not f.is_zero(work[i][col])), None)
        if sel is None:
            return f.zero
        if sel != col:
            work[col], work[sel] = work[sel], work[col]
            out = f.neg(out)
        out = f.mul(out, work[col][col])
        inv = f.inv(work[col][col])
        for i in range(col + 1, n):
            if not f.is_zero(work[i][col]):
                c = f.mul(work[i][col], inv)
                work[i] = [f.sub(a, f.mul(c, b)) for a, b in zip(work[i], work[col])]
    return out


def is_positive_definite(rows):
    """Sylvester's criterion over Q: Bareiss elimination without row
    exchanges leaves the k-th leading minor of the integer-scaled rows as
    the k-th pivot, and a positive row scale keeps each minor's sign."""
    work = integer_rows(rows)
    prev = 1
    for k, top in enumerate(work):
        p = top[k]
        if p <= 0:
            return False
        for i in range(k + 1, len(work)):
            a = work[i][k]
            work[i] = [(p * x - a * y) // prev for x, y in zip(work[i], top)]
        prev = p
    return True
