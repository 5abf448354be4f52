"""Exact linear algebra over the coefficient fields, plus symbolic minors.

Over Q every rank, kernel and solve is one sparse fraction-free echelon
of integer vectors (_reduce): each row step multiplies by the pivot and
divides out the content, so no fraction appears.  The Chow ring builds
and solves against its bases with it, and ExactMatrix ranks and takes
kernels with it.  is_positive_definite is the one symmetric routine, and
GF(q) ranks use field elimination.
MinorOracle computes determinants of matrices of polynomials by cofactor
expansion, memoized on (rows, columns) so the many overlapping minors of
one parameterized matrix share work.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from .errors import InputError, MatroidworksError, NotSymmetric, RingMismatch
from .fields import Field, RationalField
from .polynomials import Poly, PolynomialRing

_ZERO = Fraction(0)


def _axpy(a: int, x: dict, b: int, y: dict) -> dict:
    """a * x + b * y for sparse vectors, without zero entries."""
    out = {k: a * v for k, v in x.items()}
    for k, v in y.items():
        s = out.get(k, 0) + b * v
        if s:
            out[k] = s
        else:
            del out[k]
    return out


def _reduce(rows: dict, vec: dict, combo: dict) -> tuple[dict, dict]:
    """Clear every lead of vec that has a row in rows, applying each step
    to the combination combo carried along with vec.

    rows is a fraction-free row echelon form of sparse integer vectors:
    lead -> (vec, combo), the lead being the vector's smallest index.
    """
    while vec:
        lead = min(vec)
        row = rows.get(lead)
        if row is None:
            break
        p, f = row[0][lead], vec[lead]
        vec, combo = _axpy(p, vec, -f, row[0]), _axpy(p, combo, -f, row[1])
        g = math.gcd(*vec.values(), *combo.values())
        if g != 1:
            vec = {k: v // g for k, v in vec.items()}
            combo = {k: v // g for k, v in combo.items()}
    return vec, combo


def _add_row(rows: dict, vec: dict, label: Optional[int] = None) -> bool:
    """Keep vec in rows if it is independent of them.  With a label, each
    row also keeps the combination of labelled vectors it equals."""
    vec, combo = _reduce(rows, vec, {} if label is None else {label: 1})
    if not vec:
        return False
    rows[min(vec)] = (vec, combo)
    return True


def _solve(rows: dict, vec: dict) -> dict[int, Fraction]:
    """Coefficients, by label, of the labelled vectors that sum to vec."""
    den = math.lcm(*(Fraction(v).denominator for v in vec.values()))
    # the label None carries the multiple of vec itself
    vec = {k: int(v * den) for k, v in vec.items() if v}
    vec, combo = _reduce(rows, vec, {None: 1})
    if vec:
        raise MatroidworksError("internal: element outside the pairing span")
    scale = combo.pop(None) * den
    return {k: Fraction(-v, scale) for k, v in combo.items()}


def _integer_rows(rows) -> list[list[int]]:
    """Rational rows, each multiplied by the lcm of its denominators: the
    rank, the kernel and the sign of every leading minor stay."""
    out = []
    for row in rows:
        den = math.lcm(*(v.denominator for v in row))
        out.append([v.numerator * (den // v.denominator) for v in row])
    return out


class ExactMatrix:
    """Immutable matrix of field elements (over Q, ints or Fractions)."""

    __slots__ = ("field", "rows", "nrows", "ncols")

    def __init__(self, field: Field, rows: Sequence[Sequence]):
        self.field = field
        self.rows = rows = tuple(map(tuple, rows))
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else 0

    @classmethod
    def from_rows(cls, field: Field, rows: Sequence[Sequence], ncols: int = 0) -> "ExactMatrix":
        """The rows coerced into field; ncols is the width if there are none."""
        if len({len(r) for r in rows}) > 1:
            raise InputError("ragged rows in matrix")
        matrix = cls(field, ([field.coerce(v) for v in r] for r in rows))
        if not rows:
            matrix.ncols = ncols
        return matrix

    def column_submatrix(self, cols: Sequence[int]) -> "ExactMatrix":
        return ExactMatrix(self.field, ([row[j] for j in cols] for row in self.rows))

    def _echelon(self) -> int:
        """The rank by forward elimination in the field; used off Q."""
        f = self.field
        work = [list(r) for r in self.rows]
        rank = 0
        for col in range(self.ncols):
            sel = next((i for i in range(rank, len(work)) if not f.is_zero(work[i][col])), None)
            if sel is None:
                continue
            work[rank], work[sel] = work[sel], work[rank]
            top = work[rank]
            inv = f.inv(top[col])
            for i in range(rank + 1, len(work)):
                if not f.is_zero(work[i][col]):
                    c = f.mul(work[i][col], inv)
                    work[i] = [f.sub(a, f.mul(c, b)) for a, b in zip(work[i], top)]
            rank += 1
        return rank

    def rank(self) -> int:
        """Over Q, each row is scaled to integers and the rank is the number
        of rows the sparse echelon keeps; other fields use _echelon."""
        if not isinstance(self.field, RationalField):
            return self._echelon()
        rows: dict = {}
        return sum(
            _add_row(rows, {j: v for j, v in enumerate(row) if v})
            for row in _integer_rows(self.rows)
        )

    def kernel_basis(self) -> list[tuple]:
        """Basis of the right kernel over Q, one vector per free column.

        The columns, each labelled by its index, are reduced in order.  A
        column that reduces to zero gives the unique combination of the
        pivot columns before it, and so the kernel vector of the reduced row
        echelon form: the combination divided by the column's coefficient.
        """
        if not isinstance(self.field, RationalField):
            raise InputError("kernels are computed over Q")
        work = _integer_rows(self.rows)
        rows: dict = {}
        basis = []
        for j in range(self.ncols):
            col = {i: row[j] for i, row in enumerate(work) if row[j]}
            col, combo = _reduce(rows, col, {j: 1})
            if col:
                rows[min(col)] = (col, combo)
                continue
            vec = [_ZERO] * self.ncols
            for i, c in combo.items():
                vec[i] = Fraction(c, combo[j])
            basis.append(tuple(vec))
        return basis

    def is_positive_definite(self) -> bool:
        """Sylvester's criterion: every leading principal minor is positive.

        Bareiss elimination of the integer-scaled rows without pivoting
        leaves the k-th leading minor as the k-th pivot (each division by
        the previous pivot is exact), so one O(n^3) pass checks them all.
        """
        if not isinstance(self.field, RationalField):
            raise InputError("positive definiteness is checked over Q")
        if self.rows != tuple(zip(*self.rows)):
            raise NotSymmetric("matrix is not symmetric")
        work = _integer_rows(self.rows)
        prev = 1
        for k, top in enumerate(work):
            p = top[k]
            if p <= 0:
                return False
            for i in range(k + 1, self.nrows):
                a = work[i][k]
                work[i] = [(p * x - a * y) // prev for x, y in zip(work[i], top)]
            prev = p
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


class MinorOracle:
    """Cofactor-expansion determinants of a fixed grid of polynomials.

    The grid is rows of Poly over one ring.  det(cols), the maximal minor on
    cols, expands along the first listed column, memoizing each (rows, cols)
    subproblem; distinct maximal minors share most of their recursion tree.
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

    def det(self, cols: Sequence[int]) -> Poly:
        cols = tuple(cols)
        if len(cols) != len(self.grid):
            raise InputError("minor needs equally many rows and columns")
        return self._det(tuple(range(len(self.grid))), cols)

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

