"""Chow rings, volume polynomials, and the pairing checks.

The library reads everything off the lattice of flats: FY dimensions,
the degree map, standard monomials found by Poincare duality, and the
Kaehler report from degrees of monomial products.  The elimination
engine in ``chow_elimination`` is the oracle: the tests below compare
the two, monomial by monomial, on every catalog matroid and on
uniform(r, n) with r <= 4 and n <= 8 (standard monomials per degree,
the volume of every top-degree chain monomial, products of basis
elements, and the full Kaehler report), and on uniform(5, 6) at k = 2.

Two independent anchors keep both honest.  The linear-form rank oracle
pins dim A^1 as (number of proper nonempty flats) minus the rank of the
relations alpha_1 - alpha_j, computed by the dense rank of ``dense_linalg``.  The
Buchberger cross-check recomputes standard monomials and normal forms
from a reduced degrevlex basis of the defining ideal, and they must
coincide with the library's basis and products degree by degree.

Each shortcut of the library is also compared with the plain scan it
replaces: the pairing walk over FY monomials grouped by highest flat with
a test of every FY monomial, the order-ideal basis scan with the scan of
every chain monomial, and the Kaehler report of ell = a alpha + b beta
from the degree map with the flat-by-flat expansion of the same ell.
"""

import itertools
from fractions import Fraction

import pytest
from chow_elimination import EliminationRing, flat_ring, ideal_generators
from dense_linalg import bareiss_rank, det, echelon, kernel_basis
from helpers import exponent_terms, poly_from_terms

from matroidworks.catalog import (
    catalog,
    fano,
    graphic_k4,
    moebius_kantor,
    non_fano,
    pappus,
    uniform,
    vamos,
)
from matroidworks.chow import (
    ChowElement,
    alpha_element,
    beta_element,
    chow_ring,
    is_lefschetz_element,
    kahler_report,
    reduced_char_coefficients_via_volumes,
    truncation_volume_check,
    volume_map,
)
from matroidworks.errors import (
    InputError,
    LoopPresent,
    MatroidworksError,
    WrongDegree,
)
from matroidworks.fields import rationals
from matroidworks.groebner import Ideal, buchberger, normal_form, s_polynomial
from matroidworks.invariants import reduced_characteristic_polynomial
from matroidworks.linalg import _add_row
from matroidworks.matroid import matroid_from_bases


def strict_ell(ring):
    """rk(F) * (r - rk(F)) weights, strictly submodular on proper flats."""
    m = ring.matroid
    return ring.element_from_flat_coeffs(
        {f: m.rank_of(f) * (m.rank - m.rank_of(f)) for f in ring.flats}
    )


def test_flat_counts_and_names():
    ring = chow_ring(graphic_k4())
    assert len(ring.flats) == 13
    names = flat_ring(ring).names
    assert names[:6] == ("x_{1}", "x_{2}", "x_{3}", "x_{4}", "x_{5}", "x_{6}")
    assert len(chow_ring(vamos()).flats) == 77


def test_graded_dimensions_frozen():
    cases = {
        graphic_k4(): (1, 8, 1),
        fano(): (1, 8, 1),
        non_fano(): (1, 10, 1),
        uniform(2, 3): (1, 1),
        uniform(2, 4): (1, 1),
        uniform(3, 4): (1, 7, 1),
        uniform(4, 5): (1, 21, 21, 1),
        uniform(1, 1): (1,),
        vamos(): (1, 70, 70, 1),
    }
    for m, dims in cases.items():
        ring = chow_ring(m)
        assert ring.graded_dimensions() == dims
        assert ring.top_degree == m.rank - 1
        # the top graded piece is always a line, degree r vanishes
        assert ring.graded_dimension(ring.top_degree) == 1
        assert ring.graded_dimension(m.rank) == 0
        with pytest.raises(WrongDegree):
            ring.graded_dimension(m.rank + 1)
        with pytest.raises(WrongDegree):
            ring.graded_dimension(-1)


def test_dimensions_are_palindromic():
    for m in (graphic_k4(), fano(), pappus(), moebius_kantor(), vamos()):
        dims = chow_ring(m).graded_dimensions()
        assert dims == tuple(reversed(dims))


def test_degree_one_dimension_linear_rank_oracle():
    # dim A^1 = #flats - rank of the forms sum_{1 in F} x_F - sum_{j in F} x_F
    for m in (graphic_k4(), fano(), vamos(), uniform(4, 5)):
        ring = chow_ring(m)
        nv = len(ring.flats)
        rows = []
        for j in range(2, m.n + 1):
            row = []
            for f in ring.flats:
                c = (1 if f & 1 else 0) - (1 if f >> (j - 1) & 1 else 0)
                row.append(Fraction(c))
            rows.append(row)
        rel_rank = bareiss_rank(rows)
        assert ring.graded_dimension(1) == nv - rel_rank
        if m.n == 6:  # the wheel on four vertices
            assert rel_rank == 5
            assert nv - rel_rank == 8


def groebner_basis(ring):
    """Reduced degrevlex basis of I + J by Buchberger."""
    return buchberger(Ideal(flat_ring(ring), ideal_generators(ring)))


def exponents(ring, mono):
    """The exponent tuple over all flats of a chain monomial ((f, a), ...)."""
    exps = [0] * len(ring.flats)
    for f, a in mono:
        exps[f] = a
    return tuple(exps)


def test_standard_monomials_match_buchberger():
    for m in (uniform(2, 3), uniform(2, 4), uniform(3, 4), graphic_k4()):
        ring = chow_ring(m)
        gb = groebner_basis(ring)
        # certify the basis before trusting its leading terms
        for f, g in itertools.combinations(gb.elements, 2):
            s = s_polynomial(f, g)
            assert normal_form(s, gb.elements).is_zero()
        lms = [gb.ring.exponents(p.leading_exp()) for p in gb.elements]
        nv = len(ring.flats)
        for d in range(ring.top_degree + 1):
            std = set()
            for combo in itertools.combinations_with_replacement(range(nv), d):
                exps = [0] * nv
                for i in combo:
                    exps[i] += 1
                exps = tuple(exps)
                if not any(
                    all(e >= l for e, l in zip(exps, lm)) for lm in lms
                ):
                    std.add(exps)
            engine = {exponents(ring, mono) for mono in ring._basis(d)}
            assert engine == std


def basis_element(ring, d, i):
    dim = ring.graded_dimension(d)
    return ChowElement(ring, d, [int(j == i) for j in range(dim)])


def test_flat_tables_match_buchberger_normal_forms():
    # x_F times each standard monomial, reduced by the Groebner basis and
    # written in the standard monomials, is both the oracle's flat-table
    # product and the library's ChowElement product
    for m in (uniform(3, 4), graphic_k4()):
        ring = chow_ring(m)
        oracle = EliminationRing(ring)
        gb = groebner_basis(ring)
        poly_ring = flat_ring(ring)
        for d in range(ring.top_degree + 1):
            here = [
                poly_from_terms(poly_ring, {exponents(ring, mono): 1})
                for mono in ring._basis(d)
            ]
            there = {
                exponents(ring, mono): s for s, mono in enumerate(ring._basis(d + 1))
            }
            for f in range(len(ring.flats)):
                x_f = poly_ring.var(f)
                x_elem = ring.element_from_flat_coeffs({ring.flats[f]: 1})
                for i, mono in enumerate(here):
                    nf = normal_form(x_f * mono, gb.elements)
                    expect = sorted((there[e], c) for e, c in exponent_terms(nf).items())
                    got = sorted(oracle.multiply_by_flat(d, ((i, Fraction(1)),), f))
                    assert got == expect
                    prod = x_elem * basis_element(ring, d, i)
                    assert sorted((s, c) for s, c in enumerate(prod.coords) if c) == expect


def test_k4_volumes_frozen():
    ring = chow_ring(graphic_k4())
    a = alpha_element(ring)
    b = beta_element(ring)
    assert volume_map(a * a) == 1
    assert volume_map(a * b) == 5
    assert volume_map(b * b) == 6
    with pytest.raises(WrongDegree):
        volume_map(a)


def test_all_complete_flags_have_volume_one():
    m = graphic_k4()
    ring = chow_ring(m)
    rank1 = [f for f in ring.flats if m.rank_of(f) == 1]
    rank2 = [f for f in ring.flats if m.rank_of(f) == 2]
    flags = [
        (f1, f2) for f1 in rank1 for f2 in rank2 if f1 & f2 == f1
    ]
    assert len(flags) == 18
    for f1, f2 in flags:
        e1 = ring.element_from_flat_coeffs({f1: 1})
        e2 = ring.element_from_flat_coeffs({f2: 1})
        assert volume_map(e1 * e2) == 1


def test_incomparable_flats_multiply_to_zero():
    ring = chow_ring(uniform(3, 4))
    e1 = ring.element_from_flat_coeffs({(1,): 1})
    e2 = ring.element_from_flat_coeffs({(2,): 1})
    assert (e1 * e2).is_zero()


def test_alpha_is_independent_of_base_element():
    # sum over flats containing j is the same class for every j
    m = graphic_k4()
    ring = chow_ring(m)
    a1 = alpha_element(ring)
    for j in range(2, m.n + 1):
        aj = ring.element_from_flat_coeffs(
            {f: 1 for f in ring.flats if f >> (j - 1) & 1}
        )
        assert aj == a1


def test_element_algebra():
    ring = chow_ring(graphic_k4())
    a = alpha_element(ring)
    b = beta_element(ring)
    assert a * b == b * a
    assert (a + b) * (a - b) == a * a - b * b
    assert a**2 == a * a
    assert (a - a).is_zero()
    assert a.scale(Fraction(3, 2)) + a.scale(Fraction(-1, 2)) == a
    with pytest.raises(WrongDegree):
        a + a * b


def test_volume_coefficients_equal_reduced_characteristic():
    matroids = [
        uniform(2, 3),
        uniform(2, 4),
        uniform(3, 4),
        uniform(4, 5),
        uniform(1, 1),
        graphic_k4(),
        fano(),
        non_fano(),
        moebius_kantor(),
        pappus(),
        vamos(),
    ]
    for m in matroids:
        ring = chow_ring(m)
        got = reduced_char_coefficients_via_volumes(ring)
        want = reduced_characteristic_polynomial(m).coefficients_descending()
        assert got == want
    assert reduced_char_coefficients_via_volumes(chow_ring(graphic_k4())) == (
        1,
        -5,
        6,
    )
    assert reduced_char_coefficients_via_volumes(chow_ring(vamos())) == (
        1,
        -7,
        21,
        -30,
    )


def test_truncation_volume_check():
    assert truncation_volume_check(graphic_k4())
    assert truncation_volume_check(fano())
    assert truncation_volume_check(uniform(3, 5))
    with pytest.raises(WrongDegree):
        truncation_volume_check(uniform(2, 4))


def test_lefschetz_element_predicate():
    ring = chow_ring(graphic_k4())
    assert is_lefschetz_element(ring, strict_ell(ring))
    assert not is_lefschetz_element(ring, alpha_element(ring))
    assert not is_lefschetz_element(ring, beta_element(ring))
    u45 = chow_ring(uniform(4, 5))
    assert is_lefschetz_element(u45, strict_ell(u45))


def test_pairings_rank_three_catalog():
    # with top degree 2 the k=1 Lefschetz power is ell^0, so the pairing
    # checks reduce to nondegeneracy and pass for alpha and beta as well
    for m in (graphic_k4(), fano(), non_fano(), uniform(3, 4)):
        ring = chow_ring(m)
        for ell in (alpha_element(ring), beta_element(ring)):
            for k in (0, 1):
                rep = kahler_report(ring, k, ell)
                assert rep.poincare_nondegenerate
                assert rep.hard_lefschetz_iso
                assert rep.hodge_riemann_definite
                if k == 1:
                    assert len(rep.kernel) == ring.graded_dimension(1) - 1


def test_k4_beta_report_details():
    ring = chow_ring(graphic_k4())
    rep = kahler_report(ring, 1, beta_element(ring))
    assert rep.mat1.rows == rep.mat2.rows
    assert rep.mat1.nrows == rep.mat1.ncols == 8
    assert rep.mat1.rank() == 8
    assert len(rep.kernel) == 7
    assert rep.restricted_form.nrows == 7
    assert rep.hodge_riemann_definite
    d = rep.to_json_dict()
    assert d["k"] == 1
    assert d["kernel_dimension"] == 7
    assert len(d["mat1"]) == 8


def test_rank_two_pairings():
    for m in (uniform(2, 3), uniform(2, 4)):
        ring = chow_ring(m)
        rep = kahler_report(ring, 0, alpha_element(ring))
        assert rep.poincare_nondegenerate
        assert rep.hard_lefschetz_iso
        assert rep.hodge_riemann_definite


def test_strict_submodular_ell_rank_four():
    ring = chow_ring(uniform(4, 5))
    ell = strict_ell(ring)
    for k in (0, 1):
        rep = kahler_report(ring, k, ell)
        assert rep.poincare_nondegenerate
        assert rep.hard_lefschetz_iso
        assert rep.hodge_riemann_definite
    assert len(kahler_report(ring, 1, ell).kernel) == 20


def test_alpha_fails_hard_lefschetz_in_rank_four():
    # alpha is nef but not ample here: rank drops from 21 to 11
    ring = chow_ring(uniform(4, 5))
    rep = kahler_report(ring, 1, alpha_element(ring))
    assert rep.poincare_nondegenerate
    assert not rep.hard_lefschetz_iso
    assert rep.mat2.rank() == 11
    # k=0 still passes since vol(alpha^3) = 1
    rep0 = kahler_report(ring, 0, alpha_element(ring))
    assert rep0.hard_lefschetz_iso
    assert rep0.hodge_riemann_definite


def dense_kahler(ring, k, ell):
    """Mat1, Mat2, kernel, restricted form and the three verdicts, built
    from dense ChowElement products, ell ** p and the dense K^T M K loop;
    ranks by Gauss-Jordan pivots, definiteness by separate minors."""
    top = ring.top_degree

    def basis(d):
        dim = ring.graded_dimension(d)
        return [
            ChowElement(ring, d, [Fraction(int(i == s)) for i in range(dim)])
            for s in range(dim)
        ]

    basis_k, basis_co = basis(k), basis(top - k)
    dim = len(basis_k)
    mat1 = [[volume_map(b * c) for c in basis_co] for b in basis_k]
    ell_hl = ell ** (top - 2 * k)
    lifted = [b * ell_hl for b in basis_k]
    mat2 = [[volume_map(w * c) for c in basis_k] for w in lifted]
    ell_pr = ell ** (ring.matroid.rank - 2 * k)
    target_dim = ring.graded_dimension(ring.matroid.rank - k)
    if target_dim == 0:
        kernel = [b.coords for b in basis_k]
    else:
        images = [(b * ell_pr).coords for b in basis_k]
        map_rows = [[v[s] for v in images] for s in range(target_dim)]
        kernel = kernel_basis(rationals(), map_rows)
    sign = -1 if k % 2 else 1
    mk = [
        [sum(mat2[a][b] * v[b] for b in range(dim)) for v in kernel]
        for a in range(dim)
    ]
    restricted = [
        [sign * sum(u[a] * mk[a][t] for a in range(dim)) for t in range(len(kernel))]
        for u in kernel
    ]

    def full_rank(rows):
        return len(echelon(rationals(), rows)[1]) == dim

    def minors_positive(rows):
        return all(
            det(rationals(), [r[:n] for r in rows[:n]]) > 0
            for n in range(1, len(rows) + 1)
        )

    return (
        mat1,
        mat2,
        [tuple(v) for v in kernel],
        restricted,
        (full_rank(mat1), full_rank(mat2), minors_positive(restricted)),
    )


def test_kahler_report_matches_dense_products():
    for m in (graphic_k4(), fano(), non_fano(), pappus(), uniform(4, 5), uniform(4, 6)):
        ring = chow_ring(m)
        for ell in (alpha_element(ring), beta_element(ring), strict_ell(ring)):
            for k in (0, 1):
                rep = kahler_report(ring, k, ell)
                mat1, mat2, kernel, restricted, verdicts = dense_kahler(ring, k, ell)
                assert [list(r) for r in rep.mat1.rows] == mat1
                assert [list(r) for r in rep.mat2.rows] == mat2
                assert [e.coords for e in rep.kernel] == kernel
                assert [list(r) for r in rep.restricted_form.rows] == restricted
                assert (
                    rep.poincare_nondegenerate,
                    rep.hard_lefschetz_iso,
                    rep.hodge_riemann_definite,
                ) == verdicts


def test_kahler_report_degree_zero_skips_degree_rank():
    # A^r is zero above the top degree r - 1, so k = 0 needs no basis there
    for m in (graphic_k4(), pappus(), uniform(4, 6)):
        ring = chow_ring(m)
        rep = kahler_report(ring, 0, alpha_element(ring))
        assert m.rank not in ring._standard
        assert [e.coords for e in rep.kernel] == [(Fraction(1),)]


def test_admissibility_guards():
    ring = chow_ring(graphic_k4())
    a = alpha_element(ring)
    with pytest.raises(WrongDegree):
        kahler_report(ring, 2, a)
    with pytest.raises(WrongDegree):
        kahler_report(ring, -1, a)
    with pytest.raises(InputError):
        ring.element_from_flat_coeffs({(1, 2, 3, 4, 5, 6): 1})
    # an int key is checked before it is listed; the listing of -1 never ended
    for mask in (-1, 1 << 6, 1 << 70):
        with pytest.raises(InputError, match=f"mask {mask} outside"):
            ring.element_from_flat_coeffs({mask: 1})


def test_ring_construction_guards():
    with pytest.raises(InputError):
        chow_ring(matroid_from_bases(3, [[]]))
    with pytest.raises(LoopPresent):
        chow_ring(matroid_from_bases(3, [[1, 2]]))


def test_rank_one_ring():
    ring = chow_ring(uniform(1, 1))
    assert ring.graded_dimensions() == (1,)
    assert volume_map(ring.one()) == 1
    assert reduced_char_coefficients_via_volumes(ring) == (1,)


ORACLE_NAMES = ["k4", "fano", "non_fano", "moebius_kantor", "pappus", "vamos"] + [
    f"uniform({r},{n})" for r in range(1, 5) for n in range(r, 9)
]


@pytest.mark.parametrize("name", ORACLE_NAMES)
def test_lattice_routes_match_elimination(name):
    # FY dimensions and the standard monomials of every degree, the degree
    # map on every top-degree chain monomial, and the reduced characteristic
    # coefficients against the oracle's volumes of alpha^{D-j} beta^j
    m = catalog(name)
    ring = chow_ring(m)
    oracle = EliminationRing(ring)
    engine = [oracle.degree(d).standard for d in range(m.rank + 1)]
    assert list(ring.graded_dimensions()) + [0] == [len(s) for s in engine]
    assert [ring.graded_dimension(d) for d in range(m.rank + 1)] == [
        len(s) for s in engine
    ]
    for d, std in enumerate(engine):
        assert ring._basis(d) == std
    top = ring.top_degree
    for mono in oracle.degree(top).monomials:
        assert ring._degree(mono) == oracle.volume(mono)
    alpha = oracle.element({f: 1 for f, flat in enumerate(ring.flats) if flat & 1})
    beta = oracle.element({f: 1 for f, flat in enumerate(ring.flats) if not flat & 1})
    volumes = []
    for j in range(top + 1):
        vec, d = ((0, Fraction(1)),), 0
        for factor in [alpha] * (top - j) + [beta] * j:
            vec, d = oracle.product(d, vec, 1, factor), d + 1
        volumes.append((-1) ** j * (vec[0][1] * oracle.unit() if vec else 0))
    assert reduced_char_coefficients_via_volumes(ring) == tuple(volumes)
    # and against volume_map on the library's own ChowElement products
    a, b = alpha_element(ring), beta_element(ring)
    assert tuple(volumes) == tuple(
        (-1) ** j * volume_map(a ** (top - j) * b**j) for j in range(top + 1)
    )


@pytest.mark.parametrize("name", ORACLE_NAMES)
def test_products_match_elimination(name):
    # every product of two basis elements whose degrees add up to at most
    # the top degree, against the oracle's flat tables (products commute,
    # see test_element_algebra, so each pair is taken once)
    ring = chow_ring(catalog(name))
    oracle = EliminationRing(ring)
    top = ring.top_degree
    for d1 in range(1, top + 1):
        for d2 in range(d1, top + 1 - d1):
            for i in range(ring.graded_dimension(d1)):
                for j in range(i if d1 == d2 else 0, ring.graded_dimension(d2)):
                    got = basis_element(ring, d1, i) * basis_element(ring, d2, j)
                    want = oracle.product(d1, ((i, Fraction(1)),), d2, ((j, Fraction(1)),))
                    assert {s: c for s, c in enumerate(got.coords) if c} == dict(want)


def sparse(element):
    return tuple((s, c) for s, c in enumerate(element.coords) if c)


@pytest.mark.parametrize("name", ORACLE_NAMES)
def test_degree_one_forms_match_elimination(name):
    # degree-1 coordinates solved through the pairings are the oracle's
    # normal forms by the linear relations: every x_F, then alpha, beta
    # and the strict ell
    ring = chow_ring(catalog(name))
    oracle = EliminationRing(ring)
    for f, flat in enumerate(ring.flats):
        x_f = ring.element_from_flat_coeffs({flat: 1})
        assert sparse(x_f) == tuple(sorted(oracle.element({f: Fraction(1)})))
    for ell in (alpha_element(ring), beta_element(ring), strict_ell(ring)):
        flat = {f: c for f, c in enumerate(ell.flat_coeffs) if c}
        assert sparse(ell) == tuple(sorted(oracle.element(flat)))


def test_element_from_flat_coeffs_in_low_rank():
    # rank 1: A^1 is zero and there is no nonempty proper flat
    ring = chow_ring(uniform(1, 3))
    zero = ring.element_from_flat_coeffs({})
    assert zero.coords == () and zero.flat_coeffs == ()
    assert alpha_element(ring) == beta_element(ring) == zero
    with pytest.raises(InputError):
        ring.element_from_flat_coeffs({(1,): 1})
    # rank 2: A^1 is the line of the top degree, every x_F has degree 1
    ring = chow_ring(uniform(2, 4))
    for flat in ring.flats:
        assert volume_map(ring.element_from_flat_coeffs({flat: 1})) == 1
    ell = ring.element_from_flat_coeffs({(1,): Fraction(1, 2), 2: -2, (3,): 0})
    assert ell.coords == (Fraction(-3, 2),)
    assert ell.flat_coeffs == (Fraction(1, 2), -2, 0, 0)
    assert alpha_element(ring).coords == (1,)
    assert beta_element(ring).coords == (3,)
    assert ring.element_from_flat_coeffs({}).is_zero()


def assert_report_matches_oracle(ring, oracle, k, ell):
    rep = kahler_report(ring, k, ell)
    mat1, mat2, kernel, restricted, verdicts = oracle.kahler(
        k, tuple((s, c) for s, c in enumerate(ell.coords) if c)
    )
    assert [list(r) for r in rep.mat1.rows] == mat1
    assert [list(r) for r in rep.mat2.rows] == mat2
    assert [e.coords for e in rep.kernel] == kernel
    assert [list(r) for r in rep.restricted_form.rows] == restricted
    assert (
        rep.poincare_nondegenerate,
        rep.hard_lefschetz_iso,
        rep.hodge_riemann_definite,
    ) == verdicts


@pytest.mark.parametrize("name", ORACLE_NAMES)
def test_kahler_report_matches_elimination(name):
    ring = chow_ring(catalog(name))
    oracle = EliminationRing(ring)
    for ell in (alpha_element(ring), beta_element(ring), strict_ell(ring)):
        for k in range(min(1, ring.top_degree // 2) + 1):
            assert_report_matches_oracle(ring, oracle, k, ell)


def test_degree_two_report_matches_elimination():
    # k = 2 is the first degree whose primitive kernel pairs against an FY
    # monomial with a power of alpha.  The last ell lives on flats of rank
    # at least 2, so it has no alpha term in the FY basis and alpha's row
    # is independent of the rows ell itself produces.
    ring = chow_ring(uniform(5, 6))
    oracle = EliminationRing(ring)
    upper = ring.element_from_flat_coeffs(
        {
            f: i * 7 % 11 + 1
            for i, f in enumerate(ring.flats)
            if ring.matroid.rank_of(f) >= 2
        }
    )
    for ell in (alpha_element(ring), beta_element(ring), strict_ell(ring), upper):
        assert_report_matches_oracle(ring, oracle, 2, ell)


def test_fractional_ell_matches_elimination():
    # coordinates with denominators take the Fraction path through the
    # pairings; the report must still be the oracle's
    ring = chow_ring(uniform(4, 6))
    oracle = EliminationRing(ring)
    ell = strict_ell(ring).scale(Fraction(1, 3)) + alpha_element(ring).scale(Fraction(1, 2))
    for k in (0, 1):
        assert_report_matches_oracle(ring, oracle, k, ell)


@pytest.mark.parametrize("name", ["vamos", "uniform(4,8)"])
def test_plain_report_never_eliminates(name):
    # the plain report builds no basis and multiplies no monomials
    ring = chow_ring(catalog(name))
    ring.graded_dimensions()
    reduced_char_coefficients_via_volumes(ring)
    assert ring._standard == {}
    assert ring._comp is None


def test_basis_checks_fy_dimensions():
    # a wrong FY dimension, or pairings that cannot reach it, is an error
    ring = chow_ring(fano())
    assert ring.graded_dimensions() == (1, 8, 1)
    ring._dimensions = (1, 9, 1)
    with pytest.raises(MatroidworksError):
        ring._basis(1)
    ring = chow_ring(fano())
    ring._fy[1] = ring._fy_monomials(1)[:-1]
    with pytest.raises(MatroidworksError):
        ring._basis(1)


def test_foreign_ell_is_rejected():
    ring = chow_ring(fano())
    assert kahler_report(ring, 1, beta_element(ring)).hodge_riemann_definite
    for other in (graphic_k4(), non_fano(), fano()):
        foreign = chow_ring(other)
        for ell in (beta_element(foreign), strict_ell(foreign)):
            with pytest.raises(InputError):
                kahler_report(ring, 1, ell)
            with pytest.raises(InputError):
                is_lefschetz_element(ring, ell)


def test_inexact_coefficients_are_refused():
    # floats, bools and strings are not exact rationals; Fraction(0.1)
    # would store 3602879701896397/36028797018963968
    ring = chow_ring(fano())
    alpha = alpha_element(ring)
    for bad in (0.1, 1.0, True, "1/2"):
        with pytest.raises(InputError):
            ring.element_from_flat_coeffs({ring.flats[0]: bad})
        with pytest.raises(InputError):
            alpha.scale(bad)
        with pytest.raises(InputError):
            ChowElement(ring, 1, (bad,) + alpha.coords[1:])
    assert alpha.scale(Fraction(1, 2)) + alpha.scale(Fraction(1, 2)) == alpha
    assert -alpha == alpha.scale(-1)


def test_flat_coeffs_must_fit_the_flats():
    ring = chow_ring(fano())
    alpha = alpha_element(ring)
    top = ChowElement(ring, 2, (1,))
    for degree, coords, flat_coeffs in (
        (1, alpha.coords, (1,)),
        (1, alpha.coords, alpha.flat_coeffs + (0,)),
        (2, top.coords, alpha.flat_coeffs),
    ):
        with pytest.raises(InputError):
            ChowElement(ring, degree, coords, flat_coeffs)
    same = ChowElement(ring, 1, alpha.coords, alpha.flat_coeffs)
    assert same.flat_coeffs == alpha.flat_coeffs
    assert not is_lefschetz_element(ring, same)


def pairing_by_full_scan(ring, mono):
    """The pairing of mono against every FY monomial of the complementary
    degree, testing each one's support against the comparable flats."""
    comp = ring._comparability()
    allowed = -1
    for f, _ in mono:
        allowed &= comp[f]
    fy = ring._fy_monomials(ring.top_degree - sum(e for _, e in mono))
    out = {}
    for s, (chain, p, supp) in enumerate(fy):
        if not supp & ~allowed:
            v = ring._degree(ring._product(mono, chain), p)
            if v:
                out[s] = v
    return out


def basis_by_full_scan(ring, d):
    """Standard monomials of degree d by scanning every chain monomial."""
    dim = ring.graded_dimension(d)
    rows, kept = {}, []
    for mono in ring._chain_monomials(d, range(len(ring.flats))):
        if len(kept) == dim:
            break
        if _add_row(rows, pairing_by_full_scan(ring, mono)):
            kept.append(mono)
    return tuple(reversed(kept))


CATALOG_NAMES = ["k4", "fano", "non_fano", "moebius_kantor", "pappus", "vamos"]


# uniform(r, n) with r <= 4 and n <= 7 or 8, plus rank 5 on 5 to 7 elements:
# the order-ideal scan of the middle degrees, the full-scan oracles and the
# flat-by-flat expansion grow too fast past these (uniform(7,7) has
# 543,607 chain monomials)
RANK5 = ["uniform(5,5)", "uniform(5,6)", "uniform(5,7)"]


def uniform_names(n_max):
    return [f"uniform({r},{n})" for n in range(1, n_max + 1) for r in range(1, min(n, 4) + 1)]


@pytest.mark.parametrize("name", CATALOG_NAMES + uniform_names(7) + RANK5[:2])
def test_grouped_pairing_matches_full_scan(name):
    # the walk over FY monomials grouped by their highest flat, on every
    # chain monomial of every degree
    ring = chow_ring(catalog(name))
    for d in range(ring.top_degree + 1):
        for mono in ring._chain_monomials(d, range(len(ring.flats))):
            assert ring._pairing(mono) == pairing_by_full_scan(ring, mono)


@pytest.mark.parametrize("name", CATALOG_NAMES + uniform_names(8) + RANK5)
def test_order_ideal_basis_matches_full_scan(name):
    # from degree 2 on the scan uses only flats of the degree-1 basis
    ring = chow_ring(catalog(name))
    for d in range(ring.top_degree + 1):
        assert ring._basis(d) == basis_by_full_scan(ring, d)


@pytest.mark.parametrize("name", CATALOG_NAMES + uniform_names(7) + RANK5[:1])
def test_alpha_beta_report_matches_flat_expansion(name):
    # ell = a alpha + b beta is read off the degree map; ell + 0 has no flat
    # coefficients and expands its powers flat by flat
    ring = chow_ring(catalog(name))
    for a, b in ((1, 0), (0, 1), (2, 3), (Fraction(1, 2), Fraction(-1, 3))):
        ell = ring.element_from_flat_coeffs({f: a if f & 1 else b for f in ring.flats})
        assert ring._alpha_beta(ell.flat_coeffs) == ((a, b) if ring.flats else None)
        for k in range(ring.top_degree // 2 + 1):
            fast = kahler_report(ring, k, ell)
            slow = kahler_report(ring, k, ell + ring.zero(1))
            assert fast.mat1.rows == slow.mat1.rows
            assert fast.mat2.rows == slow.mat2.rows
            assert fast.kernel == slow.kernel
            assert fast.restricted_form.rows == slow.restricted_form.rows
            verdicts = [
                (rep.poincare_nondegenerate, rep.hard_lefschetz_iso, rep.hodge_riemann_definite)
                for rep in (fast, slow)
            ]
            assert verdicts[0] == verdicts[1]
