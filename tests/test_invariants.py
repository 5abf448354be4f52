"""Tutte and characteristic polynomials, coloring counts, Ingleton.

The corank-nullity subset sum is the defining formula, so the oracle here
recomputes it from scratch with its own rank calls and the module answers
must match term by term.  The fast paths (the dynamic-programming rank
table, the pruned Ingleton search) are compared against the brute-force
versions kept below.  Graph coloring counts are checked against brute
force enumeration of all colorings on small vertex sets.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from helpers import poly_from_terms

from matroidworks.catalog import (
    catalog,
    catalog_names,
    fano,
    graphic_k4,
    non_fano,
    pappus,
    uniform,
    vamos,
)
from matroidworks import invariants
from matroidworks.errors import (
    InputError,
    LoopPresent,
    NonzeroRemainder,
    SearchBudgetExceeded,
    budget,
)
from matroidworks.fields import rationals
from matroidworks.invariants import (
    _tutte_deletion_contraction,
    _tutte_subset_sum,
    characteristic_polynomial,
    chromatic_polynomial,
    coefficients_descending,
    ingleton_violation,
    is_log_concave,
    reduced_characteristic_polynomial,
    tutte_polynomial,
)
from matroidworks.matroid import (
    SUBSET_RANK_LIMIT,
    mask_elements,
    matroid_from_bases,
    matroid_from_graph,
    subset_rank_table,
)
from matroidworks.polynomials import PolynomialRing, poly_str

XY = PolynomialRing(rationals(), ("x", "y"))  # the ring of the Tutte polynomials
Q = PolynomialRing(rationals(), ("q",))  # the ring of the others


def named_catalog():
    return [catalog(name) for name in catalog_names() if "(" not in name]


def small_uniforms(max_n):
    return [uniform(r, n) for n in range(1, max_n + 1) for r in range(n + 1)]


def relabeled(m, rng):
    perm = list(range(m.n))
    rng.shuffle(perm)
    return matroid_from_bases(
        m.n, [[perm[e - 1] + 1 for e in mask_elements(b)] for b in m.bases]
    )


def subset_ranks_by_basis_scan(m):
    """rank(S) for every subset mask, as the best overlap with a basis."""
    return [max((s & b).bit_count() for b in m.bases) for s in range(1 << m.n)]


def ingleton_unpruned(m, exhaustive=False):
    """First violating quadruple in the plain four-deep loop over the pool."""
    rk = subset_ranks_by_basis_scan(m)
    if exhaustive:
        pool = list(range(1, 1 << m.n))
    else:
        pool = [1 << i for i in range(m.n)]
        pool += [(1 << i) | (1 << j) for i in range(m.n) for j in range(i + 1, m.n)]
        pool.sort(key=mask_elements)
    for a, b, c, d in itertools.product(pool, repeat=4):
        if not exhaustive and (a & b or (a | b) & c or (a | b | c) & d):
            continue
        lhs = rk[a] + rk[b] + rk[a | b | c] + rk[a | b | d] + rk[c | d]
        rhs = rk[a | b] + rk[a | c] + rk[a | d] + rk[b | c] + rk[b | d]
        if lhs > rhs:
            return tuple(mask_elements(x) for x in (a, b, c, d))
    return None


def _dict_mul(a, b):
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            k = (i1 + i2, j1 + j2)
            out[k] = out.get(k, 0) + c1 * c2
    return out


def tutte_oracle(m):
    """Corank-nullity subset sum, written directly from the definition."""
    # accumulate (x-1)^(r - r(S)) (y-1)^(|S| - r(S)) over all subsets
    xm1 = {(1, 0): 1, (0, 0): -1}
    ym1 = {(0, 1): 1, (0, 0): -1}
    powers_x = [{(0, 0): 1}]
    powers_y = [{(0, 0): 1}]
    for _ in range(m.rank):
        powers_x.append(_dict_mul(powers_x[-1], xm1))
    for _ in range(m.n):
        powers_y.append(_dict_mul(powers_y[-1], ym1))
    total = {}
    for s in range(1 << m.n):
        rs = m.rank_of(s)
        term = _dict_mul(powers_x[m.rank - rs], powers_y[s.bit_count() - rs])
        for k, v in term.items():
            total[k] = total.get(k, 0) + v
    return poly_from_terms(XY, total)


def from_ascending(coeffs):
    """The polynomial in q with these coefficients, constant term first."""
    return poly_from_terms(Q, {(k,): c for k, c in enumerate(coeffs)})


def tutte_at(t, x, y):
    return t.evaluate({0: x, 1: y})


def test_tutte_k4_golden():
    t = tutte_polynomial(graphic_k4())
    assert t.ring == XY
    assert poly_str(t) == "x^3 + y^3 + 3*x^2 + 4*x*y + 3*y^2 + 2*x + 2*y"
    assert tutte_at(t, 1, 1) == 16
    assert tutte_at(t, 2, 1) == 38
    assert tutte_at(t, 2, 2) == 64
    assert tutte_at(t, 1, 2) == 38


def test_tutte_matches_subset_sum_oracle():
    loopy = matroid_from_bases(5, [[1, 2], [1, 3], [2, 3]])
    for m in named_catalog() + [uniform(3, 6), uniform(4, 8), loopy]:
        assert tutte_polynomial(m) == tutte_oracle(m)


def test_tutte_deletion_contraction_matches_subset_sum():
    # the recursion is tutte_polynomial's only path past the rank table's
    # limit; below it, both must give the same polynomial
    loopy = matroid_from_bases(5, [[1, 2], [1, 3], [2, 3]])
    for m in named_catalog() + small_uniforms(7) + [loopy]:
        assert _tutte_deletion_contraction(m, {}) == _tutte_subset_sum(m)


@pytest.mark.parametrize("r,n", [(1, 21), (2, 22), (3, 21)])
def test_tutte_past_the_rank_table(r, n):
    # T(1, 1) counts the bases; T(2, 2) = 2^n for every matroid
    assert n > SUBSET_RANK_LIMIT
    t = tutte_polynomial(uniform(r, n))
    assert tutte_at(t, 1, 1) == math.comb(n, r)
    assert tutte_at(t, 2, 2) == 2**n


def test_rank_table_matches_basis_scan():
    # the table a matroid caches (from validation, or built on first use)
    # and the table of its bases built afresh
    loopy = matroid_from_bases(5, [[1, 2], [1, 3], [2, 3]])
    for m in named_catalog() + small_uniforms(8) + [loopy]:
        expect = subset_ranks_by_basis_scan(m)
        assert list(m._rank_table()) == expect
        assert list(subset_rank_table(m.n, m.bases, m.rank)) == expect


def test_characteristic_matches_signed_subset_sum():
    # chi(q) = sum over subsets S of (-1)^|S| q^(r - r(S))
    for m in named_catalog() + small_uniforms(10):
        direct = [0] * (m.rank + 1)
        for s, rs in enumerate(subset_ranks_by_basis_scan(m)):
            direct[m.rank - rs] += -1 if s.bit_count() % 2 else 1
        assert characteristic_polynomial(m) == from_ascending(direct)


def test_tutte_deletion_contraction_identity():
    rng = random.Random(8)
    for m in (graphic_k4(), fano(), uniform(3, 6)):
        loops = set(m.loops())
        in_every_basis = set(range(1, m.n + 1))
        for b in m.bases:
            in_every_basis &= {e + 1 for e in range(m.n) if b >> e & 1}
        ordinary = [
            e
            for e in range(1, m.n + 1)
            if e not in loops and e not in in_every_basis
        ]
        e = rng.choice(ordinary)
        deleted = m.delete([e])
        contracted = m.contract([e])
        assert (
            tutte_polynomial(m)
            == tutte_polynomial(deleted) + tutte_polynomial(contracted)
        )


def test_characteristic_k4():
    chi = characteristic_polynomial(graphic_k4())
    assert chi.ring == Q
    assert coefficients_descending(chi) == (1, -6, 11, -6)
    assert poly_str(chi) == "q^3 - 6*q^2 + 11*q - 6"
    assert chi.evaluate({0: 1}) == 0
    red = reduced_characteristic_polynomial(graphic_k4())
    assert coefficients_descending(red) == (1, -5, 6)
    assert poly_str(red) == "q^2 - 5*q + 6"


def test_characteristic_fano():
    chi = characteristic_polynomial(fano())
    assert coefficients_descending(chi) == (1, -7, 14, -8)
    red = reduced_characteristic_polynomial(fano())
    assert coefficients_descending(red) == (1, -6, 8)


def test_q_minus_one_divides_chi_when_loop_free():
    for m in (graphic_k4(), fano(), vamos(), pappus(), uniform(1, 1)):
        assert not m.loops()
        chi = characteristic_polynomial(m)
        assert chi.evaluate({0: 1}) == 0
        red = reduced_characteristic_polynomial(m)
        assert red * from_ascending((-1, 1)) == chi


def test_loop_kills_chi():
    m = matroid_from_bases(3, [[1, 2]])
    assert characteristic_polynomial(m) == Q.zero()
    assert coefficients_descending(Q.zero()) == ()
    with pytest.raises(LoopPresent):
        reduced_characteristic_polynomial(m)


def coloring_oracle(edges, num_vertices, q):
    verts = sorted({v for e in edges for v in e} | set(range(1, num_vertices + 1)))
    count = 0
    for coloring in itertools.product(range(q), repeat=len(verts)):
        color = dict(zip(verts, coloring))
        if all(color[u] != color[v] for u, v in edges):
            count += 1
    return count


def test_chromatic_polynomial_counts_colorings():
    cases = [
        ([(1, 2), (2, 3), (1, 3), (1, 4), (2, 4), (3, 4)], 4),  # K4
        ([(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)], 5),  # 5-cycle
        ([(1, 2), (2, 3)], 5),  # path plus two isolated vertices
        ([], 3),  # empty graph
    ]
    for edges, nv in cases:
        p = chromatic_polynomial(edges, nv)
        for q in range(5):
            assert p.evaluate({0: q}) == coloring_oracle(edges, nv, q)


def test_chromatic_k4_factored_form():
    p = chromatic_polynomial(
        [(1, 2), (2, 3), (1, 3), (1, 4), (2, 4), (3, 4)], 4
    )
    expected = from_ascending((0, 1))
    for k in range(1, 4):
        expected = expected * from_ascending((-k, 1))
    assert p == expected
    assert poly_str(p) == "q^4 - 6*q^3 + 11*q^2 - 6*q"


def test_chromatic_rejects_multigraph():
    with pytest.raises(InputError):
        chromatic_polynomial([(1, 1)])
    with pytest.raises(InputError):
        chromatic_polynomial([(1, 2), (2, 1)])
    with pytest.raises(InputError):
        chromatic_polynomial([(1, 5)], num_vertices=3)


def test_log_concavity():
    assert is_log_concave((1, 6, 11, 6))
    assert is_log_concave(from_ascending((6, -11, 6, -1)))
    assert not is_log_concave(from_ascending((1, 0, 1)))
    assert not is_log_concave((1, 1, 5))
    assert is_log_concave((3,))
    assert is_log_concave(())
    # zero interior coefficient with nonzero neighbors is the classic failure
    assert not is_log_concave((1, 0, 1))


def test_catalog_characteristic_coefficients_log_concave():
    for name in catalog_names():
        if "(" in name:  # the parameterized family placeholder
            continue
        m = catalog(name)
        chi = characteristic_polynomial(m)
        assert is_log_concave(chi)


def test_ingleton_vamos():
    witness = ingleton_violation(vamos())
    assert witness == ((1, 2), (3, 4), (5, 6), (7, 8))
    rk = vamos().rank_of
    # the witness really violates the inequality, recomputed by hand
    def r(els):
        mask = 0
        for e in els:
            mask |= 1 << (e - 1)
        return rk(mask)

    a, b, c, d = witness
    lhs = r(a + b) + r(a + c) + r(a + d) + r(b + c) + r(b + d)
    rhs = r(a) + r(b) + r(c + d) + r(a + b + c) + r(a + b + d)
    assert lhs < rhs


def test_ingleton_realizable_matroids_pass():
    assert ingleton_violation(fano()) is None
    assert ingleton_violation(graphic_k4()) is None
    assert ingleton_violation(uniform(2, 4), exhaustive=True) is None


def test_ingleton_budget():
    with budget(ingleton_quadruples=50), pytest.raises(SearchBudgetExceeded):
        ingleton_violation(vamos(), exhaustive=True)


def test_ingleton_pruned_search_matches_unpruned_loop():
    rng = random.Random(5)
    cases = named_catalog()
    for m in (vamos(), pappus()):
        cases += [relabeled(m, rng) for _ in range(5)]
    for m in cases:
        assert ingleton_violation(m) == ingleton_unpruned(m)
    for m in (uniform(1, 3), uniform(2, 3), uniform(2, 4)):
        assert ingleton_violation(m, exhaustive=True) == ingleton_unpruned(
            m, exhaustive=True
        )


def test_ingleton_budget_counts_only_unpruned_quadruples():
    # sets of size <= 2 are all independent in U(4,8), so every pair (A, B)
    # has I(A;B) = 0 and no quadruple reaches the full check
    with budget(ingleton_quadruples=0):
        assert ingleton_violation(uniform(4, 8)) is None


def test_reduced_characteristic_needs_q_minus_one_to_divide(monkeypatch):
    # chi(1) = 0 on every loop-free matroid of positive rank; a chi that
    # misses it raises instead of leaving a remainder behind
    monkeypatch.setattr(
        invariants, "characteristic_polynomial", lambda m: from_ascending((1, 1))
    )
    with pytest.raises(NonzeroRemainder):
        reduced_characteristic_polynomial(fano())


def test_coefficients_descending_takes_integers_only():
    assert coefficients_descending(from_ascending((0, 0, 3))) == (3, 0, 0)
    with pytest.raises(InputError, match="not an integer"):
        coefficients_descending(Q.one().scale(Fraction(1, 2)))
