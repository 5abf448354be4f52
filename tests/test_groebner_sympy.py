"""Groebner bases and saturations against sympy, an independent engine.

A reduced Groebner basis is unique, so buchberger must return sympy's
grevlex basis term for term, in ascending order where sympy lists it
descending.  Saturation is checked against a Rabinowitsch elimination done
entirely in sympy: each distinct inequation u in turn adds t*u - 1, a lex
basis with t first eliminates t, and the t-free part's reduced grevlex
basis is what saturate must return.  The inputs are the presentations that
realization_space hands to saturate, with and without simplification, for
every catalog matroid, and seeded random ideals in three variables whose
generators are multiples of the inequations, so that saturating removes
components.  Each sympy run takes well under a second.  sympy is a
test-only dependency, so the module is skipped without it.
"""

import random
from fractions import Fraction

import pytest
from helpers import exponent_terms, poly_from_terms

from matroidworks.catalog import catalog, catalog_names
from matroidworks.fields import prime_field, rationals
from matroidworks.groebner import Ideal, buchberger, saturate
from matroidworks.polynomials import PolynomialRing
from matroidworks.realization import realization_space

sympy = pytest.importorskip("sympy")

NAMES = [name for name in catalog_names() if "(" not in name]


def to_sympy(p, symbols):
    expr = sympy.Integer(0)
    for exps, c in exponent_terms(p).items():
        if isinstance(c, Fraction):
            term = sympy.Rational(c.numerator, c.denominator)
        else:
            term = sympy.Integer(c)
        for s, k in zip(symbols, exps):
            term *= s**k
        expr += term
    return expr


def to_fraction(c):
    return Fraction(int(c.p), int(c.q))


def sympy_basis(exprs, symbols, char, order):
    """The reduced basis as term dicts in this library's coefficients,
    ascending by leading monomial."""
    options = {"modulus": char} if char else {}
    gb = sympy.groebner(exprs, *symbols, order=order, **options)
    out = []
    for q in reversed(gb.polys):
        # over Q sympy clears denominators where this library makes monic
        lc = q.LC(order=order)
        if char:
            inv = pow(int(lc), -1, char)
            out.append({e: int(c) * inv % char for e, c in q.terms()})
        else:
            out.append({e: to_fraction(c) / to_fraction(lc) for e, c in q.terms()})
    return out


def presentation(name, char, simplify):
    space = realization_space(catalog(name), char, simplify)
    symbols = [sympy.Symbol(v) for v in space.ring.names]
    return space, symbols


@pytest.mark.parametrize("simplify", [False, True], ids=["minors", "simplified"])
@pytest.mark.parametrize("char", [0, 2, 3, 5, 7])
@pytest.mark.parametrize("name", NAMES)
def test_buchberger_matches_sympy(name, char, simplify):
    space, symbols = presentation(name, char, simplify)
    gens = space.ideal_generators
    ours = [exponent_terms(p) for p in buchberger(Ideal(space.ring, gens))]
    if not gens:
        assert ours == []
        return
    assert ours == sympy_basis([to_sympy(g, symbols) for g in gens], symbols, char, "grevlex")


def sympy_saturation(gens, inequations, symbols, char):
    t = sympy.Symbol("_t")
    options = {"modulus": char} if char else {}
    current = list(gens)
    distinct = {u for u in inequations if not (u.is_number and u != 0)}
    for u in sorted(distinct, key=sympy.default_sort_key):
        lex = sympy.groebner(current + [t * u - 1], t, *symbols, order="lex", **options)
        current = [g for g in lex.exprs if not g.has(t)]
        if any(g.is_number for g in current):
            current = [sympy.Integer(1)]
            break
    if not current:
        return []
    return sympy_basis(current, symbols, char, "grevlex")


@pytest.mark.parametrize("simplify", [False, True], ids=["minors", "simplified"])
@pytest.mark.parametrize("char", [0, 2, 3])
@pytest.mark.parametrize("name", NAMES)
def test_saturate_matches_sympy_rabinowitsch(name, char, simplify):
    space, symbols = presentation(name, char, simplify)
    sat = saturate(Ideal(space.ring, space.ideal_generators), list(space.inequations))
    expect = sympy_saturation(
        [to_sympy(g, symbols) for g in space.ideal_generators],
        [to_sympy(u, symbols) for u in space.inequations],
        symbols,
        char,
    )
    assert [exponent_terms(p) for p in sat.gens] == expect


def random_poly(ring, rng, terms, degree):
    exps = {}
    for _ in range(terms):
        e = [0] * ring.nvars
        for _ in range(rng.randint(0, degree)):
            e[rng.randrange(ring.nvars)] += 1
        exps[tuple(e)] = ring.field.coerce(rng.choice([-3, -2, -1, 1, 2, 3]))
    return poly_from_terms(ring, exps)


@pytest.mark.parametrize("field", [rationals(), prime_field(3)], ids=["Q", "GF3"])
def test_saturate_random_ideals_match_sympy(field):
    ring = PolynomialRing(field, ("x", "y", "z"))
    symbols = [sympy.Symbol(v) for v in ring.names]
    rng = random.Random(5)
    for _ in range(12):
        inequations = [random_poly(ring, rng, 2, 1) for _ in range(3)]
        gens = [
            random_poly(ring, rng, 3, 2) * rng.choice(inequations) for _ in range(2)
        ]
        sat = saturate(Ideal(ring, gens), inequations)
        expect = sympy_saturation(
            [to_sympy(g, symbols) for g in gens],
            [to_sympy(u, symbols) for u in inequations],
            symbols,
            field.characteristic,
        )
        assert [exponent_terms(p) for p in sat.gens] == expect
