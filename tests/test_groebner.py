"""Buchberger, normal forms, inequation reduction, saturation, linear elimination.

The load-bearing check is the S-polynomial certificate: a basis G is a
Groebner basis iff every S(g_i, g_j) reduces to zero against G.  Every
basis produced in this file goes through that certificate, so the frozen
outputs below are verified rather than merely remembered.
"""

import itertools
import random
from fractions import Fraction

import pytest
from helpers import poly_from_terms

from matroidworks import groebner, realization
from matroidworks.catalog import fano, graphic_k4, moebius_kantor, non_fano, pappus, vamos
from matroidworks.errors import DegreeBudgetExceeded, InputError, RingMismatch, budget
from matroidworks.fields import prime_field, rationals
from matroidworks.groebner import (
    EliminationResult,
    Ideal,
    Substitution,
    _divide_out,
    _saturate_by_one,
    _split_linear,
    _substitute_cleared,
    buchberger,
    eliminate_linear_variables,
    normal_form,
    reduce_inequations,
    s_polynomial,
    saturate,
)
from matroidworks.polynomials import (
    ELIMINATE_FIRST,
    PolynomialRing,
    exact_divide,
    poly_sort_key,
    poly_str,
)
from matroidworks.realization import realization_space

Q = rationals()


def ring_xy():
    return PolynomialRing(Q, ("x", "y"))


def ring_xyz():
    return PolynomialRing(Q, ("x", "y", "z"))


def assert_groebner_certificate(gb):
    """Every S-polynomial of basis pairs reduces to zero."""
    els = gb.elements
    for f, g in itertools.combinations(els, 2):
        s = s_polynomial(f, g)
        assert normal_form(s, els).is_zero()


def assert_reduced(gb):
    exponents = gb.ring.exponents
    for i, f in enumerate(gb.elements):
        assert f.leading_coeff() == f.ring.field.one
        lm_others = [
            exponents(g.leading_exp()) for j, g in enumerate(gb.elements) if j != i
        ]
        for m in f.terms:
            for lm in lm_others:
                assert not all(e >= l for e, l in zip(exponents(m), lm))


def test_two_squares():
    ring = ring_xy()
    x, y = ring.gens()
    gb = buchberger(Ideal(ring, [x * x + y * y, x * x - y * y]))
    assert [poly_str(p) for p in gb.elements] == ["y^2", "x^2"]
    assert_groebner_certificate(gb)
    assert_reduced(gb)


def test_normal_form_example():
    ring = ring_xy()
    x, y = ring.gens()
    gb = buchberger(Ideal(ring, [x * x - x + ring.one()]))
    nf = normal_form(x * x * y, gb.elements)
    assert poly_str(nf) == "x*y - y"


def test_normal_form_takes_a_degrevlex_basis_and_refuses_others():
    ring = ring_xy()
    x, y = ring.gens()
    gb = buchberger(Ideal(ring, [x * x - y]))
    assert normal_form(x**3, gb) == normal_form(x**3, gb.elements)
    assert poly_str(normal_form(x**3, gb)) == "x*y"
    # the remainder modulo a basis in another order is no normal form
    block = PolynomialRing(Q, ring.names, ELIMINATE_FIRST)
    bx, by = block.gens()
    with pytest.raises(InputError):
        normal_form(x**3, buchberger(Ideal(block, [bx * bx - by])))


def test_cyclic3():
    ring = ring_xyz()
    x, y, z = ring.gens()
    gens = [
        x + y + z,
        x * y + y * z + z * x,
        x * y * z - ring.one(),
    ]
    gb = buchberger(Ideal(ring, gens))
    assert [poly_str(p) for p in gb.elements] == [
        "x + y + z",
        "y^2 + y*z + z^2",
        "z^3 - 1",
    ]
    assert_groebner_certificate(gb)
    assert_reduced(gb)


def test_generator_order_invariance():
    ring = ring_xyz()
    x, y, z = ring.gens()
    gens = [x * y - z, y * z - x, z * x - y]
    rng = random.Random(5)
    reference = buchberger(Ideal(ring, gens))
    assert_groebner_certificate(reference)
    for _ in range(6):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        again = buchberger(Ideal(ring, shuffled))
        assert again.elements == reference.elements


def test_membership_of_combinations():
    rng = random.Random(12)
    ring = ring_xyz()
    x, y, z = ring.gens()
    gens = [x * x - y, y * y - z]
    gb = buchberger(Ideal(ring, gens))
    assert_groebner_certificate(gb)
    for _ in range(20):
        combo = ring.zero()
        for g in gens:
            mult = poly_from_terms(
                ring,
                {
                    tuple(rng.randint(0, 2) for _ in range(3)): Fraction(
                        rng.randint(-3, 3)
                    )
                    for _ in range(2)
                }
            )
            combo = combo + mult * g
        assert normal_form(combo, gb.elements).is_zero()
    # and something outside the ideal does not reduce to zero
    assert not normal_form(x, gb.elements).is_zero()


def test_normal_form_is_linear():
    rng = random.Random(3)
    ring = ring_xy()
    x, y = ring.gens()
    gb = buchberger(Ideal(ring, [x * x + y, y * y - ring.one()]))
    for _ in range(20):
        f = poly_from_terms(
            ring,
            {
                (rng.randint(0, 3), rng.randint(0, 3)): Fraction(rng.randint(-4, 4))
                for _ in range(3)
            }
        )
        g = poly_from_terms(
            ring,
            {
                (rng.randint(0, 3), rng.randint(0, 3)): Fraction(rng.randint(-4, 4))
                for _ in range(3)
            }
        )
        lhs = normal_form(f + g, gb.elements)
        rhs = normal_form(f, gb.elements) + normal_form(g, gb.elements)
        assert lhs == rhs


def test_contains_one():
    ring = ring_xy()
    x, y = ring.gens()
    gb = buchberger(Ideal(ring, [x, x + ring.one()]))
    assert gb.contains_one()
    gb2 = buchberger(Ideal(ring, [x * y]))
    assert not gb2.contains_one()


def test_zero_and_empty_ideals():
    ring = ring_xy()
    gb = buchberger(Ideal(ring, []))
    assert gb.elements == ()
    assert not gb.contains_one()
    gb2 = buchberger(Ideal(ring, [ring.zero()]))
    assert gb2.elements == ()


def test_finite_field_basis():
    ring = PolynomialRing(prime_field(2), ("x", "y"))
    x, y = ring.gens()
    gb = buchberger(Ideal(ring, [x * x + y, y * y + y]))
    assert_groebner_certificate(gb)
    assert_reduced(gb)
    # over F_2, (x^2 + y)^2 = x^4 + y^2 belongs to the ideal
    assert normal_form(x**4 + y * y, gb.elements).is_zero()


def test_budget_exceeded():
    ring = ring_xyz()
    x, y, z = ring.gens()
    gens = [
        x * x + y * y + z * z - ring.one(),
        x * y + y * z + x * z,
        x * y * z - x - y,
    ]
    with budget(pair_reductions=3), pytest.raises(DegreeBudgetExceeded):
        buchberger(Ideal(ring, gens))


def test_ring_mismatch_rejected():
    r1 = ring_xy()
    r2 = ring_xyz()
    with pytest.raises(RingMismatch):
        Ideal(r1, [r2.gens()[0]])


def test_reduce_inequations_rejects_other_rings():
    x, y = ring_xy().gens()
    f3 = PolynomialRing(prime_field(3), ("x", "y"))
    with pytest.raises(RingMismatch):
        reduce_inequations([x * y + x], [f3.gens()[0]])
    with pytest.raises(RingMismatch):
        reduce_inequations([x * y + x, f3.gens()[1]], [y * y - x])


# -- saturation -------------------------------------------------------------


def test_saturation_removes_component():
    ring = ring_xy()
    x, y = ring.gens()
    sat = saturate(Ideal(ring, [x * y]), [x])
    gb = buchberger(sat)
    assert [poly_str(p) for p in gb.elements] == ["y"]
    assert_groebner_certificate(gb)


def test_saturation_to_unit_ideal():
    ring = ring_xy()
    x, y = ring.gens()
    sat = saturate(Ideal(ring, [x * x]), [x])
    assert buchberger(sat).contains_one()
    # an inequation reducing to zero modulo the ideal forces the unit ideal
    sat2 = saturate(Ideal(ring, [x]), [x * y])
    assert buchberger(sat2).contains_one()


def test_saturation_needs_the_elimination_order():
    # y + 1 is no zero divisor modulo y^2 (x^3 y - 1), so the saturation is
    # the ideal itself; the t-free part of a degrevlex basis of the
    # Rabinowitsch ideal would be empty here, that of the block order is not
    ring = ring_xy()
    x, y = ring.gens()
    f = x**3 * y**3 - y * y
    assert saturate(Ideal(ring, [f]), [y + ring.one()]).gens == (f,)


def test_saturation_refuses_a_block_order_ring():
    # the t-free part of the elimination basis is reduced in degrevlex, so a
    # ring in another order would get a basis that is not reduced in it
    block = PolynomialRing(Q, ("x", "y"), ELIMINATE_FIRST)
    x, y = block.gens()
    with pytest.raises(InputError):
        saturate(Ideal(block, [x * y]), [x])


def test_saturation_idempotent():
    ring = ring_xyz()
    x, y, z = ring.gens()
    ideal = Ideal(ring, [x * y * z, x * x * y - x * y])
    once = saturate(ideal, [x, z])
    twice = saturate(once, [x, z])
    assert buchberger(once).elements == buchberger(twice).elements


def test_saturation_contains_ideal_and_certifies():
    # every generator of I:u^inf, multiplied by a power of u, lands in I
    ring = ring_xyz()
    x, y, z = ring.gens()
    ideal = Ideal(ring, [x * y * z])
    sat = saturate(ideal, [x, z])
    gb_sat = buchberger(sat)
    assert [poly_str(p) for p in gb_sat.elements] == ["y"]
    gb_orig = buchberger(ideal)
    u = x * z
    for g in gb_sat.elements:
        h = g
        ok = False
        for _ in range(6):
            if normal_form(h, gb_orig.elements).is_zero():
                ok = True
                break
            h = h * u
        assert ok
    # the original ideal is contained in its saturation
    for g in gb_orig.elements:
        assert normal_form(g, gb_sat.elements).is_zero()


def test_saturation_chained_matches_product():
    # saturating at a power of an inequation gives the same ideal as at the
    # inequation itself
    ring = ring_xyz()
    x, y, z = ring.gens()
    ideal = Ideal(ring, [x * y * z])
    small = saturate(ideal, [x, z])
    big = saturate(ideal, [x**20, z**30])
    assert buchberger(small).elements == buchberger(big).elements


def rabinowitsch(ring, gens, u):
    """Reduced basis of (gens) : u^inf through the auxiliary variable; the
    projected elimination basis is already reduced, so Buchberger keeps it."""
    out = tuple(_saturate_by_one(gens, u))
    assert buchberger(Ideal(ring, out)).elements == out
    return out


def test_saturation_of_zero_ideal_matches_rabinowitsch():
    for field, seed in ((Q, 7), (prime_field(3), 8)):
        ring = PolynomialRing(field, ("x", "y", "z"))
        rng = random.Random(seed)
        for _ in range(15):
            ineqs = []
            count = rng.randint(1, 4)
            while len(ineqs) < count:
                terms = {
                    tuple(rng.randint(0, 2) for _ in range(3)): field.coerce(
                        rng.choice([-2, -1, 1, 2, 3])
                    )
                    for _ in range(rng.randint(1, 3))
                }
                u = poly_from_terms(ring, terms)
                if not u.is_zero():
                    ineqs.append(u)
            product = ring.one()
            for u in ineqs:
                product = product * u
            chained: list = []
            for u in ineqs:
                chained = list(rabinowitsch(ring, chained, u))
            sat = saturate(Ideal(ring, ()), ineqs)
            assert sat.gens == rabinowitsch(ring, [], product) == tuple(chained) == ()
        # a zero inequation lies in every ideal: the saturation is everything
        sat = saturate(Ideal(ring, ()), [ring.var(0), ring.zero()])
        assert sat.gens == (ring.one(),)


# -- linear elimination -----------------------------------------------------


def test_eliminate_scalar_coefficient():
    ring = ring_xy()
    x, y = ring.gens()
    res = eliminate_linear_variables([x + y - ring.one(), x * y - y], [])
    # y = 1 - x substituted into the second generator
    assert len(res.substitutions) == 1
    s = res.substitutions[0]
    assert s.var == 1
    assert poly_str(s.numerator) == "-x + 1"
    assert poly_str(s.denominator) == "1"
    assert len(res.generators) == 1
    assert poly_str(res.generators[0]) == "-x^2 + 2*x - 1"


def test_eliminate_unit_coefficient():
    ring = ring_xy()
    x, y = ring.gens()
    res = eliminate_linear_variables([x * y - ring.one()], [y])
    assert len(res.substitutions) == 1
    s = res.substitutions[0]
    assert s.var == 0
    assert poly_str(s.numerator) == "1"
    assert poly_str(s.denominator) == "y"
    assert res.generators == ()


def test_elimination_preserves_localized_solutions():
    # count F_5 points of (gens != 0 on ineqs) before and after elimination;
    # eliminated variables are recovered by back substitution
    f5 = prime_field(5)
    ring = PolynomialRing(f5, ("a", "b", "c"))
    a, b, c = ring.gens()
    gens = [a + b * c - ring.one(), a * b - c]
    ineqs = [b]
    res = eliminate_linear_variables(gens, ineqs)
    assert res.substitutions

    def points_direct():
        out = set()
        for va, vb, vc in itertools.product(range(5), repeat=3):
            vals = {0: va, 1: vb, 2: vc}
            if any(f5.is_zero(u.evaluate(vals, into_field=f5)) for u in ineqs):
                continue
            if all(f5.is_zero(g.evaluate(vals, into_field=f5)) for g in gens):
                out.add((va, vb, vc))
        return out

    eliminated = {s.var for s in res.substitutions}
    free = [i for i in range(3) if i not in eliminated]

    def points_reduced():
        out = set()
        for combo in itertools.product(range(5), repeat=len(free)):
            vals = dict(zip(free, combo))
            ok = True
            for s in reversed(res.substitutions):
                den = s.denominator.evaluate(vals, into_field=f5)
                if f5.is_zero(den):
                    ok = False
                    break
                num = s.numerator.evaluate(vals, into_field=f5)
                vals[s.var] = f5.div(num, den)
            if not ok:
                continue
            if any(
                f5.is_zero(u.evaluate(vals, into_field=f5)) for u in res.inequations
            ):
                continue
            if all(
                f5.is_zero(g.evaluate(vals, into_field=f5)) for g in res.generators
            ):
                out.add((vals[0], vals[1], vals[2]))
        return out

    assert points_direct() == points_reduced()


def leading_pairs(polys):
    """The divisor pairs _divide_out takes: (degrevlex leading monomial,
    polynomial) for each non-constant polynomial, in order."""
    return [(p.leading_exp(), p) for p in polys if not p.is_constant()]


def eliminate_by_all_pairs(generators, inequations, tally):
    """Oracle: each step unit-tests the coefficient of every (generator,
    variable) pair the generator is linear in (tally["oracle"] counts the
    tests) and eliminates the largest variable, preferring a scalar
    coefficient, then the smaller generator by poly_sort_key."""
    gens = [g for g in generators if not g.is_zero()]
    ineqs = list(inequations)
    subs = []
    while True:
        best = None  # ((-var, not scalar, generator key), var, c, rest)
        for g in gens:
            for x in g.variables():
                if g.degree_in(x) != 1:
                    continue
                c, rest = _split_linear(g, x)
                scalar = c.is_constant()
                if not scalar:
                    tally["oracle"] += 1
                    if not _divide_out(c, leading_pairs(ineqs)).is_constant():
                        continue
                rank = (-x, not scalar, poly_sort_key(g))
                if best is None or rank < best[0]:
                    best = (rank, x, c, rest)
        if best is None:
            break
        _, x, c, rest = best
        ring = c.ring
        if c.is_constant():
            sub = Substitution(x, (-rest).scale(ring.field.inv(c.constant_value())), ring.one())
        else:
            sub = Substitution(x, -rest, c)
        subs.append(sub)
        cleared = [_substitute_cleared(g, x, sub.numerator, sub.denominator) for g in gens]
        gens = [g for g in cleared if not g.is_zero()]
        ineqs = [_substitute_cleared(u, x, sub.numerator, sub.denominator) for u in ineqs]
    return EliminationResult(tuple(subs), tuple(gens), tuple(ineqs))


def checked_elimination(monkeypatch, tally):
    """eliminate_linear_variables, asserted equal to the all-pairs oracle;
    tally["scan"] counts its own unit tests."""
    plain_divide_out = groebner._divide_out

    def counted_divide_out(u, lead):
        tally["scan"] += 1
        return plain_divide_out(u, lead)

    def checked(gens, ineqs):
        gens, ineqs = list(gens), list(ineqs)
        tally["calls"] += 1
        expected = eliminate_by_all_pairs(gens, ineqs, tally)
        monkeypatch.setattr(groebner, "_divide_out", counted_divide_out)
        got = eliminate_linear_variables(gens, ineqs)
        monkeypatch.setattr(groebner, "_divide_out", plain_divide_out)
        assert got == expected
        return got

    return checked


def test_elimination_scan_matches_all_pairs_oracle_on_catalog_spaces(monkeypatch):
    """Every elimination made while building the catalog's spaces agrees
    with the all-pairs oracle, and the scan unit-tests fewer coefficients."""
    tally = {"calls": 0, "scan": 0, "oracle": 0}
    monkeypatch.setattr(
        realization, "eliminate_linear_variables", checked_elimination(monkeypatch, tally)
    )
    for m in (fano(), non_fano(), vamos(), moebius_kantor(), pappus(), graphic_k4()):
        for c in (0, 2, 3, 5, 7):
            realization_space(m, c)
    assert tally["calls"] >= 40
    assert 0 < tally["scan"] < tally["oracle"]


@pytest.mark.parametrize("field,seed", [(Q, 31), (prime_field(3), 32)])
def test_elimination_scan_matches_all_pairs_oracle_on_random_inputs(monkeypatch, field, seed):
    """Scalar, unit and non-unit coefficients compete for one variable,
    next to generators linear in other variables."""
    ring = PolynomialRing(field, ("x", "y", "z", "w"))
    rng = random.Random(seed)
    tally = {"calls": 0, "scan": 0, "oracle": 0}
    eliminate = checked_elimination(monkeypatch, tally)
    contested = by_unit = 0
    for _ in range(40):
        x = rng.randrange(ring.nvars)
        others = [i for i in range(ring.nvars) if i != x]
        pool = [random_linear_form(rng, ring, others) for _ in range(3)]
        pool = [f for f in pool if not f.is_constant()]
        if not pool:
            continue
        ineqs = [random_product(rng, pool, (1, 1)) for _ in range(rng.randint(1, 3))]
        kinds = [rng.choice(["scalar", "unit", "other"]) for _ in range(rng.randint(2, 4))]
        gens = []
        for kind in kinds:
            if kind == "scalar":
                c = ring.one().scale(rng.choice([-1, 1, 2]))
            elif kind == "unit":
                c = random_product(rng, ineqs, (1, 2))
            else:
                c = random_linear_form(rng, ring, others)
            rest = random_product(rng, pool + [random_linear_form(rng, ring, others)], (-2, 2))
            gens.append(c * ring.var(x) + rest)
        if rng.random() < 0.5:
            gens.append(random_linear_form(rng, ring) * random_linear_form(rng, ring))
        contested += "scalar" in kinds and "unit" in kinds
        res = eliminate(gens, ineqs)
        by_unit += any(not s.denominator.is_constant() for s in res.substitutions)
    assert contested >= 10 and by_unit >= 5
    assert tally["scan"] <= tally["oracle"]


def test_s_polynomial_cancels_leading_terms():
    ring = ring_xy()
    x, y = ring.gens()
    f = x * x * y + x
    g = x * y * y - y
    s = s_polynomial(f, g)
    # lcm(x^2 y, x y^2) = x^2 y^2; y*f - x*g kills the leading terms
    assert s == (x * y).scale(Fraction(2))


# -- inequation reduction ---------------------------------------------------


def sorted_dedup(polys):
    out, seen = [], set()
    for p in sorted(polys, key=poly_sort_key):
        k = poly_sort_key(p)
        if k not in seen:
            seen.add(k)
            out.append(p)
    return out


def restart_reduction(ineqs, gb_elements):
    """Oracle: after each single division, re-sort, deduplicate and rescan
    the whole list from the start; None when an inequation is in the ideal."""
    out = []
    for u in ineqs:
        r = normal_form(u, gb_elements) if gb_elements else u
        if r.is_zero():
            return None
        if not r.is_constant():
            out.append(r.monic())
    out = sorted_dedup(out)
    changed = True
    while changed:
        changed = False
        for idx, u in enumerate(out):
            for v in out:
                if v is u or v.total_degree() >= u.total_degree():
                    continue
                q = exact_divide(u, v)
                if q is not None:
                    out[idx] = q.monic()
                    changed = True
                    break
            if changed:
                break
        out = sorted_dedup(out)
    return tuple(out)


def unit_by_search(c, inequations):
    """Oracle: divide c by the first inequation that divides it, try every
    inequation again on the quotient, and report whether a scalar is left."""
    work = c
    for _ in range(c.total_degree() + 1):
        if work.is_constant():
            return not work.is_zero()
        for u in inequations:
            if u.is_constant():
                continue
            q = exact_divide(work, u)
            if q is not None and q.total_degree() < work.total_degree():
                work = q
                break
        else:
            return False
    return work.is_constant() and not work.is_zero()


def test_reduction_matches_oracles_on_catalog_spaces(monkeypatch):
    """Every inequation reduction and unit check made while building the
    catalog's spaces agrees with the oracles; the raw inequations of each
    call are also reduced without an ideal, as --no-simplify does."""
    calls = {"reduce": 0, "unit": 0}

    def checked_reduce(ineqs, gb_elements):
        ineqs = list(ineqs)
        calls["reduce"] += 1
        got = reduce_inequations(ineqs, gb_elements)
        assert got == restart_reduction(ineqs, gb_elements)
        assert reduce_inequations(ineqs, ()) == restart_reduction(ineqs, ())
        return got

    def checked_divide_out(u, lead):
        got = _divide_out(u, lead)
        if not u.is_zero():
            calls["unit"] += 1
            assert got.is_constant() == unit_by_search(u, [v for _, v in lead])
        return got

    monkeypatch.setattr(realization, "reduce_inequations", checked_reduce)
    monkeypatch.setattr(groebner, "reduce_inequations", checked_reduce)
    monkeypatch.setattr(groebner, "_divide_out", checked_divide_out)
    for m in (fano(), non_fano(), vamos(), moebius_kantor(), pappus(), graphic_k4()):
        for c in (0, 2, 3, 5, 7):
            realization_space(m, c)
    # 56 calls: saturate decides the zero ideal without reducing inequations
    assert calls["reduce"] >= 50 and calls["unit"] > 0


def random_linear_form(rng, ring, variables=None):
    field = ring.field
    variables = range(ring.nvars) if variables is None else variables
    terms = {(0,) * ring.nvars: field.coerce(rng.randint(-2, 2))}
    for i in rng.sample(variables, rng.randint(1, len(variables))):
        exp = tuple(1 if j == i else 0 for j in range(ring.nvars))
        terms[exp] = field.coerce(rng.choice([-2, -1, 1, 2, 3]))
    return poly_from_terms(ring, terms)


def random_product(rng, pool, scalar_range):
    p = pool[0].ring.one().scale(rng.randint(*scalar_range))
    for _ in range(rng.randint(1, 3)):
        p = p * rng.choice(pool)
    return p


@pytest.mark.parametrize("field,seed", [(Q, 11), (prime_field(3), 12)])
def test_reduction_matches_restart_loop_on_random_products(field, seed):
    ring = PolynomialRing(field, ("x", "y", "z"))
    rng = random.Random(seed)
    shrunk = dead = 0
    for _ in range(60):
        pool = [random_linear_form(rng, ring) for _ in range(rng.randint(2, 4))]
        pool = [f for f in pool if not f.is_constant()]
        if not pool:
            continue
        ineqs = [random_product(rng, pool, (1, 2)) for _ in range(rng.randint(2, 7))]
        gb = ()
        if rng.random() < 0.3:
            g = random_linear_form(rng, ring)
            gb = buchberger(Ideal(ring, [g])).elements
            if rng.random() < 0.3:
                ineqs.append(g * rng.choice(pool))
        got = reduce_inequations(ineqs, gb)
        assert got == restart_reduction(ineqs, gb)
        if got is None:
            dead += 1
        elif len(got) < len(sorted_dedup(p.monic() for p in ineqs)):
            shrunk += 1
    assert shrunk >= 20 and dead >= 2


@pytest.mark.parametrize("field,seed", [(Q, 21), (prime_field(3), 22)])
def test_unit_check_matches_greedy_search(field, seed):
    ring = PolynomialRing(field, ("x", "y", "z"))
    rng = random.Random(seed)
    verdicts = {True: 0, False: 0}
    for _ in range(80):
        pool = [random_linear_form(rng, ring) for _ in range(3)]
        pool = [f for f in pool if not f.is_constant()]
        if not pool:
            continue
        ineqs = [random_product(rng, pool, (1, 1)) for _ in range(rng.randint(1, 4))]
        c = random_product(rng, ineqs, (1, 2))
        if rng.random() < 0.4:
            c = c * random_linear_form(rng, ring)
        if c.is_zero():
            continue
        unit = _divide_out(c, leading_pairs(ineqs)).is_constant()
        assert unit == unit_by_search(c, ineqs)
        verdicts[unit] += 1
    assert verdicts[True] >= 20 and verdicts[False] >= 20


def test_saturation_of_zero_ideal_needs_no_inequation_reduction(monkeypatch):
    # 0 : u^inf is 0 in a domain, and the unit ideal when u is 0 itself;
    # both are decided without reducing a single inequation
    def refuse(*args):
        raise AssertionError("reduce_inequations ran on the zero ideal")

    monkeypatch.setattr(groebner, "reduce_inequations", refuse)
    ring = ring_xyz()
    x, y, z = ring.gens()
    ineqs = [x * y - z, x + ring.one(), z * z]
    assert saturate(Ideal(ring, ()), ineqs).gens == ()
    assert saturate(Ideal(ring, ()), []).gens == ()
    unit = saturate(Ideal(ring, ()), ineqs + [ring.zero()])
    assert unit.gens == (ring.one(),)
