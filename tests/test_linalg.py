"""Exact linear algebra against permanent-style oracles and the dense
eliminations of ``dense_linalg``."""

import itertools
import random
from fractions import Fraction

import pytest
from dense_linalg import bareiss_rank, det, echelon, kernel_basis

from matroidworks import chow
from matroidworks.catalog import catalog, catalog_names
from matroidworks.errors import InputError, NotSymmetric, RingMismatch
from matroidworks.fields import prime_field, rationals
from matroidworks.linalg import ExactMatrix, MinorOracle
from matroidworks.polynomials import PolynomialRing, poly_str

Q = rationals()


def leibniz_det(rows):
    n = len(rows)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        prod = Fraction(1)
        for i in range(n):
            prod *= rows[i][perm[i]]
        total += sign * prod
    return total


def leading_principal_minors(m: ExactMatrix) -> list:
    """The n leading principal minors, each by its own determinant."""
    return [det(m.field, [r[:k] for r in m.rows[:k]]) for k in range(1, m.nrows + 1)]


def random_matrix(rng, nr, nc, lo=-5, hi=5):
    return [[Fraction(rng.randint(lo, hi)) for _ in range(nc)] for _ in range(nr)]


def test_det_matches_leibniz():
    rng = random.Random(1009)
    for n in (1, 2, 3, 4):
        for _ in range(25):
            rows = random_matrix(rng, n, n)
            assert det(Q, rows) == leibniz_det(rows)


def test_det_multiplicative_and_transpose():
    rng = random.Random(2023)
    for _ in range(20):
        a = random_matrix(rng, 3, 3)
        b = random_matrix(rng, 3, 3)
        prod = [
            [sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)
        ]
        assert det(Q, prod) == det(Q, a) * det(Q, b)
        assert det(Q, [list(col) for col in zip(*a)]) == det(Q, a)


def test_rank_and_kernel():
    rng = random.Random(31)
    for _ in range(40):
        nr = rng.randint(1, 5)
        nc = rng.randint(1, 5)
        m = ExactMatrix.from_rows(Q, random_matrix(rng, nr, nc))
        r = m.rank()
        kb = m.kernel_basis()
        assert len(kb) == nc - r
        for v in kb:
            for row in m.rows:
                assert sum(row[j] * v[j] for j in range(nc)) == 0
        # kernel vectors are linearly independent
        if kb:
            km = ExactMatrix.from_rows(Q, kb)
            assert km.rank() == len(kb)


def test_rank_drops_on_dependent_rows():
    m = ExactMatrix.from_rows(Q, [[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert m.rank() == 2
    assert det(Q, m.rows) == 0


def test_positive_definite():
    assert ExactMatrix.from_rows(Q, [[2, 1], [1, 2]]).is_positive_definite()
    assert not ExactMatrix.from_rows(Q, [[1, 2], [2, 1]]).is_positive_definite()
    assert not ExactMatrix.from_rows(Q, [[0, 0], [0, 1]]).is_positive_definite()
    with pytest.raises(NotSymmetric):
        ExactMatrix.from_rows(Q, [[1, 2], [3, 4]]).is_positive_definite()
    # A^T A + I is always positive definite
    rng = random.Random(8)
    for _ in range(15):
        a = random_matrix(rng, 3, 3)
        g = [
            [
                sum(a[k][i] * a[k][j] for k in range(3))
                + (1 if i == j else 0)
                for j in range(3)
            ]
            for i in range(3)
        ]
        m = ExactMatrix.from_rows(Q, g)
        assert m.is_positive_definite()
        minors = leading_principal_minors(m)
        assert len(minors) == 3 and all(d > 0 for d in minors)
    # definiteness matches the quadratic form on a sample of vectors
    ind = ExactMatrix.from_rows(Q, [[3, -1, 0], [-1, 1, 2], [0, 2, 1]])
    assert not ind.is_positive_definite()
    found_negative = False
    for v in itertools.product((-2, -1, 0, 1, 2), repeat=3):
        if v == (0, 0, 0):
            continue
        val = sum(
            Fraction(v[i]) * ind.rows[i][j] * v[j]
            for i in range(3)
            for j in range(3)
        )
        if val <= 0:
            found_negative = True
    assert found_negative


def random_rational(rng, lo=-4, hi=4, den=4):
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def symmetric_cases(rng):
    """Random symmetric rational matrices: Gram matrices of full and short
    rank, shifted Gram matrices, and plain symmetric ones."""
    for _ in range(60):
        n = rng.randint(1, 6)
        kind = rng.choice(("gram", "gram_plus", "plain"))
        if kind == "plain":
            g = [[None] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    g[i][j] = g[j][i] = random_rational(rng)
        else:
            # A^T A is singular when A has fewer rows than columns
            m = rng.randint(1, n + 1)
            a = [[random_rational(rng) for _ in range(n)] for _ in range(m)]
            g = [
                [sum(a[k][i] * a[k][j] for k in range(m)) for j in range(n)]
                for i in range(n)
            ]
            if kind == "gram_plus":
                for i in range(n):
                    g[i][i] += Fraction(rng.randint(1, 3), rng.randint(1, 5))
        yield g
    # a zero leading minor followed by positive ones: minors (0, 0, 1),
    # (1, 0, 0, 1) and (1/2, 0, 0, 1/8)
    yield [[0, 0, 1], [0, -1, 0], [1, 0, 0]]
    yield [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0], [0, 1, 0, 0]]
    half = Fraction(1, 2)
    yield [[half, 0, 0, 0], [0, 0, 0, half], [0, 0, -half, 0], [0, half, 0, 0]]
    # positive semidefinite, singular only in the last minor
    yield [[2, 1, 3], [1, 1, 1], [3, 1, 5]]


def test_positive_definite_matches_leading_minors():
    rng = random.Random(4242)
    verdicts = {True: 0, False: 0}
    zero_then_positive = 0
    for rows in symmetric_cases(rng):
        m = ExactMatrix.from_rows(Q, rows)
        minors = leading_principal_minors(m)
        expect = all(d > 0 for d in minors)
        assert m.is_positive_definite() == expect, rows
        verdicts[expect] += 1
        first_zero = next((k for k, d in enumerate(minors) if d == 0), None)
        if first_zero is not None and minors[-1] > 0:
            zero_then_positive += 1
    assert verdicts[True] >= 10 and verdicts[False] >= 10
    assert zero_then_positive >= 3


def rectangular_cases(rng):
    """Random rational matrices with zero columns, repeated rows, low rank,
    and the zero and identity extremes."""
    yield []
    for _ in range(80):
        nr = rng.randint(1, 6)
        nc = rng.randint(1, 6)
        kind = rng.choice(("random", "low_rank", "zero_cols", "dup_rows"))
        if kind == "low_rank":
            r = rng.randint(0, min(nr, nc))
            left = [[random_rational(rng) for _ in range(r)] for _ in range(nr)]
            right = [[random_rational(rng) for _ in range(nc)] for _ in range(r)]
            rows = [
                [
                    sum((left[i][t] * right[t][j] for t in range(r)), Fraction(0))
                    for j in range(nc)
                ]
                for i in range(nr)
            ]
        else:
            rows = [[random_rational(rng) for _ in range(nc)] for _ in range(nr)]
        if kind == "zero_cols":
            for j in rng.sample(range(nc), rng.randint(1, nc)):
                for row in rows:
                    row[j] = Fraction(0)
        if kind == "dup_rows" and nr > 1:
            for i in range(1, nr):
                if rng.random() < 0.5:
                    c = random_rational(rng)
                    rows[i] = [c * v for v in rows[rng.randrange(i)]]
        yield rows
    for n, m in ((3, 5), (5, 3), (4, 4)):
        yield [[Fraction(0)] * m for _ in range(n)]
        yield [
            [Fraction(1 if i == j else 0, i + 1) for j in range(m)] for i in range(n)
        ]


def test_rank_matches_echelon_pivots():
    rng = random.Random(777)
    seen = set()
    for rows in rectangular_cases(rng):
        m = ExactMatrix.from_rows(Q, rows)
        r = m.rank()
        assert r == len(echelon(Q, rows)[1]) == bareiss_rank(rows), rows
        full = min(m.nrows, m.ncols)
        seen.add("zero" if r == 0 else "full" if r == full else "deficient")
    assert seen == {"zero", "full", "deficient"}


def sparse_echelon_cases(rng):
    """Seeded rational matrices up to 12 x 12: dense and sparse ones, low
    rank ones, ones with repeated or combined rows, integer and fractional."""
    for _ in range(300):
        nr, nc = rng.randint(1, 12), rng.randint(1, 12)
        den = rng.choice((1, 1, 6))
        zeros = rng.choice((0.0, 0.5, 0.9))

        def entry():
            if rng.random() < zeros:
                return Fraction(0)
            return Fraction(rng.randint(-6, 6), rng.randint(1, den))

        if rng.random() < 0.4:
            r = rng.randint(0, min(nr, nc))
            left = [[entry() for _ in range(r)] for _ in range(nr)]
            right = [[entry() for _ in range(nc)] for _ in range(r)]
            rows = [
                [sum((left[i][t] * right[t][j] for t in range(r)), Fraction(0)) for j in range(nc)]
                for i in range(nr)
            ]
        else:
            rows = [[entry() for _ in range(nc)] for _ in range(nr)]
            for i in range(1, nr):
                if rng.random() < 0.3:
                    a, b = rng.randrange(i), rng.randrange(i)
                    c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                    rows[i] = [x + c * y for x, y in zip(rows[a], rows[b])]
        yield rows


def kahler_matrices(monkeypatch):
    """Every matrix kahler_report ranks or takes the kernel of at k = 1,
    with alpha and beta, on the catalog matroids and U(4,6)."""
    names = [n for n in catalog_names() if "(" not in n] + ["uniform(4,6)"]
    rings = [chow.chow_ring(catalog(name)) for name in names]
    seen = []

    def spy(method):
        def wrapped(self):
            seen.append((method.__name__, self.rows))
            return method(self)
        return wrapped

    with monkeypatch.context() as patch:
        patch.setattr(ExactMatrix, "rank", spy(ExactMatrix.rank))
        patch.setattr(ExactMatrix, "kernel_basis", spy(ExactMatrix.kernel_basis))
        for ring in rings:
            for ell in (chow.alpha_element(ring), chow.beta_element(ring)):
                chow.kahler_report(ring, 1, ell)
    return seen


def test_sparse_echelon_matches_dense_oracles(monkeypatch):
    rng = random.Random(2718)
    kinds = set()
    for rows in sparse_echelon_cases(rng):
        m = ExactMatrix.from_rows(Q, rows)
        r = m.rank()
        assert r == bareiss_rank(rows) == len(echelon(Q, rows)[1]), rows
        assert m.kernel_basis() == kernel_basis(Q, rows), rows
        kinds.add("deficient" if r < min(m.nrows, m.ncols) else "full")
        kinds.add("fractional" if any(v.denominator > 1 for row in rows for v in row) else "integral")
    assert kinds == {"deficient", "full", "fractional", "integral"}
    # Mat1, Mat2 and the kernel map of each report, with int entries
    seen = kahler_matrices(monkeypatch)
    assert [name for name, _ in seen] == ["rank", "rank", "kernel_basis"] * 7 * 2
    for name, rows in seen:
        assert all(type(v) is int for row in rows for v in row)
        if name == "rank":
            assert ExactMatrix(Q, rows).rank() == bareiss_rank(rows)
        else:
            assert ExactMatrix(Q, rows).kernel_basis() == kernel_basis(Q, rows)


def test_rank_over_prime_field_uses_echelon():
    f5 = prime_field(5)
    # rows 2 and 3 are 2 and 3 times row 1 mod 5; over Q the det is -25
    rows = [[1, 2, 3], [2, 4, 1], [3, 1, 4]]
    assert ExactMatrix.from_rows(f5, rows).rank() == 1
    assert ExactMatrix.from_rows(Q, rows).rank() == 3
    rng = random.Random(55)
    for _ in range(150):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.randrange(5) for _ in range(nc)] for _ in range(nr)]
        if nr > 1 and rng.random() < 0.5:
            rows[-1] = [(2 * a + 3 * b) % 5 for a, b in zip(rows[0], rows[-2])]
        expect = len(echelon(f5, rows)[1])
        assert ExactMatrix.from_rows(f5, rows).rank() == expect, rows


def test_finite_field_matrices():
    f5 = prime_field(5)
    m = ExactMatrix.from_rows(f5, [[1, 2], [3, 4]])
    assert det(f5, m.rows) == f5.coerce(-2)
    assert m.rank() == 2
    assert ExactMatrix.from_rows(f5, [[1, 2], [2, 4]]).rank() == 1
    with pytest.raises(InputError):
        m.kernel_basis()


def test_minor_oracle_matches_leibniz():
    ring = PolynomialRing(Q, ("a", "b", "c", "d"))
    a, b, c, d = ring.gens()
    one = ring.one()
    zero = ring.zero()
    grid = [[one, a, b], [zero, one, c], [a, d, one]]
    oracle = MinorOracle(grid)

    def minor(rows, cols):
        # the maximal minor of the sub-grid on these rows
        return MinorOracle([grid[r] for r in rows]).det(cols)

    for cols in itertools.combinations(range(3), 2):
        for rows in itertools.combinations(range(3), 2):
            expect = (
                grid[rows[0]][cols[0]] * grid[rows[1]][cols[1]]
                - grid[rows[0]][cols[1]] * grid[rows[1]][cols[0]]
            )
            assert minor(rows, cols) == expect
    full = oracle.det((0, 1, 2))
    # cofactor expansion along the first row
    m01 = minor((1, 2), (1, 2))
    m11 = minor((1, 2), (0, 2))
    m21 = minor((1, 2), (0, 1))
    assert full == grid[0][0] * m01 - grid[0][1] * m11 + grid[0][2] * m21
    # a minor of a 3-row grid takes three columns
    with pytest.raises(InputError):
        oracle.det((0, 1))


def test_shape_errors():
    with pytest.raises(InputError):
        ExactMatrix.from_rows(Q, [[1, 2], [3]])
    with pytest.raises(NotSymmetric):
        ExactMatrix.from_rows(Q, [[1, 2]]).is_positive_definite()


def test_input_guards():
    with pytest.raises(InputError):
        ExactMatrix.from_rows(prime_field(5), [[1]]).is_positive_definite()
    with pytest.raises(InputError):
        MinorOracle([])
    (a,) = PolynomialRing(Q, ("a",)).gens()
    (b,) = PolynomialRing(prime_field(5), ("a",)).gens()
    with pytest.raises(RingMismatch):
        MinorOracle([[a, a], [a, b]])
