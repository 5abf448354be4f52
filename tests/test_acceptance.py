"""End-to-end acceptance battery.

Each test covers one acceptance criterion and prints a single PASS line
on success; a failing criterion shows up as a failed test.  Run with -s
(or read the captured output) to see the lines.
"""

import itertools
from fractions import Fraction
from pathlib import Path

from matroidworks.catalog import (
    fano,
    graphic_k4,
    moebius_kantor,
    non_fano,
    pappus,
    uniform,
    vamos,
)
from matroidworks.chow import (
    beta_element,
    chow_ring,
    kahler_report,
    reduced_char_coefficients_via_volumes,
    truncation_volume_check,
)
from matroidworks.corpus import load_corpus, run_corpus
from matroidworks.fields import field_of_order, rationals
from matroidworks.groebner import Ideal, buchberger, normal_form, s_polynomial, saturate
from matroidworks.invariants import (
    BiPoly,
    UniPoly,
    characteristic_polynomial,
    chromatic_polynomial,
    ingleton_violation,
    is_log_concave,
    reduced_characteristic_polynomial,
    tutte_polynomial,
)
from matroidworks.linalg import ExactMatrix
from matroidworks.matroid import (
    mask_elements,
    matroid_from_bases,
    matroid_from_matrix,
)
from matroidworks.polynomials import PolynomialRing, poly_str
from matroidworks.realization import (
    SpaceVerdict,
    find_realization,
    is_realizable,
    realizability_table,
    realization_space,
)
from matroidworks.symmetry import automorphism_group

CORPUS = Path(__file__).parent / "data" / "catalog_corpus.json"


def _ok(num, desc):
    print(f"criterion {num:02d} PASS: {desc}")


def test_criterion_01_fano_profile():
    m = fano()
    for p in (0, 3, 5, 7, 11, 13):
        assert is_realizable(m, p) is False
    assert is_realizable(m, 2) is True
    space = realization_space(m, 2)
    assert space.verdict is SpaceVerdict.NONEMPTY
    assert space.num_free_variables == 0
    _ok(1, "fano realizable exactly in characteristic two, rigidly")


def test_criterion_02_non_fano_profile():
    m = non_fano()
    assert is_realizable(m, 0) is True
    assert is_realizable(m, 3) is True
    assert is_realizable(m, 5) is True
    assert is_realizable(m, 2) is False
    _ok(2, "non-fano realizable away from characteristic two")


def test_criterion_03_vamos():
    m = vamos()
    for p in (0, 2, 3, 5, 7, 11, 13):
        assert is_realizable(m, p) is False
    witness = ingleton_violation(m)
    assert witness == ((1, 2), (3, 4), (5, 6), (7, 8))
    _ok(3, "vamos unrealizable everywhere with an Ingleton witness")


def test_criterion_04_moebius_kantor():
    m = moebius_kantor()
    table = realizability_table(m, 13)
    assert {q for q, ok in table.items() if ok} == {3, 4, 7, 9, 13}
    space = realization_space(m, 0)
    assert space.verdict is SpaceVerdict.NONEMPTY
    assert space.num_free_variables == 1
    gens = [poly_str(g) for g in space.ideal_generators]
    var = space.free_variables[0]
    assert gens == [f"{var}^2 - {var} + 1"]
    # the quadratic splits over F_7; both roots avoid every inequation,
    # giving the two points of the space over the closure
    f7 = field_of_order(7)
    vi = space.ring.names.index(var)
    points = []
    for a in range(7):
        vals = {vi: f7.coerce(a)}
        if not f7.is_zero(space.ideal_generators[0].evaluate(vals, f7)):
            continue
        if any(f7.is_zero(u.evaluate(vals, f7)) for u in space.inequations):
            continue
        points.append(a)
    assert len(points) == 2
    _ok(4, "moebius-kantor table {3,4,7,9,13} and a split quadratic modulus")


def test_criterion_05_k4_rigid():
    m = graphic_k4()
    for p in (0, 2):
        space = realization_space(m, p)
        assert space.verdict is SpaceVerdict.NONEMPTY
        assert space.num_free_variables == 0
        assert space.ideal_generators == ()
    _ok(5, "wheel graph realization is rigid in characteristics zero and two")


def test_criterion_06_pappus():
    space = realization_space(pappus(), 0)
    assert space.verdict is SpaceVerdict.NONEMPTY
    assert space.num_free_variables == 2
    assert space.ideal_generators == ()
    assert len(space.inequations) == 7
    real = find_realization(pappus(), 11)
    assert real is not None
    assert matroid_from_matrix(real.field, real.rows()) == pappus()
    _ok(6, "pappus: two free variables, seven inequations, F_11 witness")


def test_criterion_07_tutte_k4():
    m = graphic_k4()
    t = tutte_polynomial(m)
    # independent corank-nullity sum, expanded term by term
    total = {}
    for s in range(1 << m.n):
        rs = m.rank_of(s)
        term = {(0, 0): 1}
        for _ in range(m.rank - rs):
            nxt = {}
            for (i, j), c in term.items():
                nxt[(i + 1, j)] = nxt.get((i + 1, j), 0) + c
                nxt[(i, j)] = nxt.get((i, j), 0) - c
            term = nxt
        for _ in range(s.bit_count() - rs):
            nxt = {}
            for (i, j), c in term.items():
                nxt[(i, j + 1)] = nxt.get((i, j + 1), 0) + c
                nxt[(i, j)] = nxt.get((i, j), 0) - c
            term = nxt
        for k, v in term.items():
            total[k] = total.get(k, 0) + v
    assert t == BiPoly(total)
    assert t.evaluate(1, 1) == 16
    chi = characteristic_polynomial(m)
    assert chi.coefficients_descending() == (1, -6, 11, -6)
    edges = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    p = chromatic_polynomial(edges, 4)
    falling = UniPoly((0, 1))
    for k in range(1, 4):
        falling = falling * UniPoly((-k, 1))
    assert p == falling
    assert is_log_concave((1, 6, 11, 6))
    _ok(7, "tutte(K4) from both formulas, chromatic factorization, log-concavity")


def test_criterion_08_automorphisms():
    assert automorphism_group(fano()).order == 168
    rank2 = matroid_from_bases(
        4, [b for b in itertools.combinations(range(1, 5), 2) if b != (3, 4)]
    )
    group = automorphism_group(rank2)
    assert group.order == 4
    # exhaustive S_4 recount
    count = 0
    base_set = {frozenset(mask_elements(b)) for b in rank2.bases}
    for images in itertools.permutations(range(1, 5)):
        mapped = {
            frozenset(images[e - 1] for e in b) for b in base_set
        }
        if mapped == base_set:
            count += 1
    assert count == 4
    _ok(8, "automorphism groups: fano 168, pinched rank-two example 4")


def test_criterion_09_k4_chow_pairing():
    m = graphic_k4()
    ring = chow_ring(m)
    dims = ring.graded_dimensions()
    assert dims[0] == dims[2] == 1
    d = dims[1]
    # pin d with the linear-relation rank oracle on the 13 flat variables
    assert len(ring.flats) == 13
    rows = []
    for j in range(2, m.n + 1):
        rows.append(
            [
                Fraction((1 if f & 1 else 0) - (1 if f >> (j - 1) & 1 else 0))
                for f in ring.flats
            ]
        )
    rel = ExactMatrix.from_rows(rationals(), rows).rank()
    assert rel == 5
    assert d == 13 - 5 == 8
    rep = kahler_report(ring, 1, beta_element(ring))
    assert rep.mat1.nrows == rep.mat1.ncols == d
    assert rep.mat1.rank() == d
    assert rep.mat1.rows == rep.mat2.rows
    assert len(rep.kernel) == d - 1
    assert rep.restricted_form.nrows == d - 1
    assert rep.restricted_form.is_positive_definite()
    assert rep.hodge_riemann_definite
    _ok(9, "K4 chow dims (1,8,1), beta pairing definite on the 7-dim kernel")


def test_criterion_10_volume_polynomial_identity():
    matroids = [
        uniform(2, 3),
        uniform(2, 4),
        uniform(3, 4),
        uniform(3, 5),
        uniform(4, 5),
        graphic_k4(),
        fano(),
        non_fano(),
        moebius_kantor(),
        pappus(),
        vamos(),
    ]
    for m in matroids:
        assert not m.loops()
        ring = chow_ring(m)
        got = reduced_char_coefficients_via_volumes(ring)
        want = reduced_characteristic_polynomial(m).coefficients_descending()
        assert got == want
    for m in (graphic_k4(), fano(), uniform(3, 5)):
        assert truncation_volume_check(m)
    _ok(10, "volume coefficients equal the reduced characteristic everywhere")


def test_criterion_11_property_suites_and_corpus():
    # exchange axiom by construction revalidation on the catalog
    for m in (fano(), vamos(), graphic_k4()):
        rebuilt = matroid_from_bases(
            m.n, [mask_elements(b) for b in m.bases]
        )
        assert rebuilt == m
    # a Groebner certificate and saturation idempotence spot check
    ring = PolynomialRing(rationals(), ("x", "y", "z"))
    x, y, z = ring.gens()
    gb = buchberger(Ideal(ring, [x * y - z * z, y * y - x * z]))
    for f, g in itertools.combinations(gb.elements, 2):
        assert normal_form(s_polynomial(f, g), gb.elements).is_zero()
    ideal = Ideal(ring, [x * y * z])
    once = saturate(ideal, [x])
    twice = saturate(once, [x])
    assert buchberger(once).elements == buchberger(twice).elements
    # deletion-contraction identity on K4
    m = graphic_k4()
    assert tutte_polynomial(m) == tutte_polynomial(m.delete([1])) + tutte_polynomial(
        m.contract([1])
    )
    # bundled corpus with its derived verdicts
    entries = load_corpus(str(CORPUS))
    summary = run_corpus(entries)
    assert summary.total == 6
    assert {r.identifier: r.status for r in summary.results} == {
        "fano": "false",
        "non_fano": "true",
        "moebius_kantor": "true",
        "pappus": "true",
        "vamos": "false",
        "k4": "true",
    }
    _ok(11, "property spot checks and the six-entry corpus verdicts")
