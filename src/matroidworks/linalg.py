"""Exact linear algebra over the coefficient fields, plus symbolic minors.

ExactMatrix does Gaussian elimination with exact field arithmetic (no
floating point anywhere).  Over Q, rank and positive definiteness clear
each row's denominators and use fraction-free (Bareiss) elimination over
the integers; kernels stay in the field.
MinorOracle computes determinants of matrices of polynomials by cofactor
expansion, memoized on (rows, columns) so the many overlapping minors of
one parameterized matrix share work.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from .errors import InputError, NotSymmetric, RingMismatch
from .fields import Field, RationalField
from .polynomials import Poly, PolynomialRing


class ExactMatrix:
    """Immutable matrix of field elements."""

    __slots__ = ("field", "rows", "nrows", "ncols")

    def __init__(self, field: Field, rows: tuple):
        self.field = field
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else 0

    @classmethod
    def from_rows(cls, field: Field, rows: Sequence[Sequence]) -> "ExactMatrix":
        if not rows:
            return cls(field, ())
        width = len(rows[0])
        out = []
        for r in rows:
            if len(r) != width:
                raise InputError("ragged rows in matrix")
            out.append(tuple(field.coerce(v) for v in r))
        return cls(field, tuple(out))

    def entry(self, i: int, j: int):
        return self.rows[i][j]

    def column_submatrix(self, cols: Sequence[int]) -> "ExactMatrix":
        return ExactMatrix(
            self.field, tuple(tuple(row[j] for j in cols) for row in self.rows)
        )

    def _echelon(self) -> tuple[list[list], list[int]]:
        """Row-reduce a working copy; returns (reduced rows, pivot columns)."""
        f = self.field
        work = [list(r) for r in self.rows]
        pivots: list[int] = []
        row = 0
        for col in range(self.ncols):
            sel = None
            for i in range(row, len(work)):
                if not f.is_zero(work[i][col]):
                    sel = i
                    break
            if sel is None:
                continue
            work[row], work[sel] = work[sel], work[row]
            inv = f.inv(work[row][col])
            work[row] = [f.mul(inv, v) for v in work[row]]
            for i in range(len(work)):
                if i != row and not f.is_zero(work[i][col]):
                    c = work[i][col]
                    work[i] = [
                        f.sub(a, f.mul(c, b)) for a, b in zip(work[i], work[row])
                    ]
            pivots.append(col)
            row += 1
        return work, pivots

    def rank(self) -> int:
        """Over Q, fraction-free: each row is scaled to integers (which
        keeps the rank) and Bareiss elimination counts the pivots."""
        if not isinstance(self.field, RationalField):
            return len(self._echelon()[1])
        work = _integer_rows(self.rows)
        rank = 0
        prev = 1
        for col in range(self.ncols):
            sel = None
            for i in range(rank, len(work)):
                if work[i][col]:
                    sel = i
                    break
            if sel is None:
                continue
            work[rank], work[sel] = work[sel], work[rank]
            _bareiss_step(work, rank, col, prev)
            prev = work[rank][col]
            rank += 1
        return rank

    def kernel_basis(self) -> list[tuple]:
        """Basis of the right kernel, one vector per free column."""
        f = self.field
        work, pivots = self._echelon()
        pivot_set = set(pivots)
        free = [j for j in range(self.ncols) if j not in pivot_set]
        basis = []
        for j in free:
            vec = [f.zero] * self.ncols
            vec[j] = f.one
            for r, pc in enumerate(pivots):
                vec[pc] = f.neg(work[r][j])
            basis.append(tuple(vec))
        return basis

    def det(self):
        if self.nrows != self.ncols:
            raise InputError("determinant of a non-square matrix")
        f = self.field
        work = [list(r) for r in self.rows]
        n = self.nrows
        det = f.one
        for col in range(n):
            sel = None
            for i in range(col, n):
                if not f.is_zero(work[i][col]):
                    sel = i
                    break
            if sel is None:
                return f.zero
            if sel != col:
                work[col], work[sel] = work[sel], work[col]
                det = f.neg(det)
            det = f.mul(det, work[col][col])
            inv = f.inv(work[col][col])
            for i in range(col + 1, n):
                if not f.is_zero(work[i][col]):
                    c = f.mul(work[i][col], inv)
                    work[i] = [
                        f.sub(a, f.mul(c, b)) for a, b in zip(work[i], work[col])
                    ]
        return det

    def is_symmetric(self) -> bool:
        if self.nrows != self.ncols:
            return False
        return all(
            self.rows[i][j] == self.rows[j][i]
            for i in range(self.nrows)
            for j in range(i + 1, self.ncols)
        )

    def is_positive_definite(self) -> bool:
        """Sylvester's criterion: every leading principal minor is positive.

        Each row is scaled to integers by a positive factor, which keeps
        the sign of every leading minor.  Bareiss elimination without
        pivoting then leaves the k-th leading minor as the k-th pivot, so
        one O(n^3) pass checks them all.
        """
        if not isinstance(self.field, RationalField):
            raise InputError("positive definiteness is checked over Q")
        if not self.is_symmetric():
            raise NotSymmetric("matrix is not symmetric")
        work = _integer_rows(self.rows)
        prev = 1
        for k in range(self.nrows):
            if work[k][k] <= 0:
                return False
            _bareiss_step(work, k, k, prev)
            prev = work[k][k]
        return True

    def __eq__(self, other):
        return (
            isinstance(other, ExactMatrix)
            and self.field == other.field
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field, self.rows))

    def __repr__(self):
        return f"ExactMatrix({self.nrows}x{self.ncols} over {self.field!r})"


def _integer_rows(rows) -> list[list[int]]:
    """Rational rows, each multiplied by the lcm of its denominators."""
    out = []
    for row in rows:
        den = math.lcm(*(v.denominator for v in row))
        out.append([v.numerator * (den // v.denominator) for v in row])
    return out


def _bareiss_step(work: list[list[int]], row: int, col: int, prev: int) -> None:
    """Clear column col below work[row][col] in place; prev is the previous
    pivot (1 at the first step), by which every division is exact."""
    top = work[row]
    p = top[col]
    for i in range(row + 1, len(work)):
        a = work[i][col]
        work[i] = [(p * x - a * y) // prev for x, y in zip(work[i], top)]


class MinorOracle:
    """Cofactor-expansion determinants of a fixed grid of polynomials.

    The grid is a list of rows of Poly over one ring.  det(cols) expands
    along the first listed column, memoizing every (rows, cols) subproblem;
    distinct maximal minors of one matrix share most of their recursion tree.
    """

    def __init__(self, grid: Sequence[Sequence[Poly]]):
        if not grid:
            raise InputError("empty grid")
        self.ring: PolynomialRing = grid[0][0].ring
        for row in grid:
            for p in row:
                if p.ring != self.ring:
                    raise RingMismatch("grid entries over different rings")
        self.grid = [list(row) for row in grid]
        self._memo: dict[tuple, Poly] = {}

    def det(self, cols: Sequence[int], rows: Optional[Sequence[int]] = None) -> Poly:
        rows = tuple(rows) if rows is not None else tuple(range(len(self.grid)))
        cols = tuple(cols)
        if len(rows) != len(cols):
            raise InputError("minor needs equally many rows and columns")
        return self._det(rows, cols)

    def _det(self, rows: tuple, cols: tuple) -> Poly:
        if not rows:
            return self.ring.one()
        key = (rows, cols)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        c0 = cols[0]
        rest = cols[1:]
        acc = self.ring.zero()
        for k, r in enumerate(rows):
            entry = self.grid[r][c0]
            if entry.is_zero():
                continue
            sub = self._det(rows[:k] + rows[k + 1 :], rest)
            if sub.is_zero():
                continue
            term = entry * sub
            acc = acc + (term if k % 2 == 0 else -term)
        self._memo[key] = acc
        return acc

