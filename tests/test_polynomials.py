"""Polynomial arithmetic, monomial orders, division."""

import itertools
import random
from fractions import Fraction

import pytest
from helpers import order_key, poly_from_terms

from matroidworks import groebner
from matroidworks.errors import DegreeBudgetExceeded, InputError, RingMismatch
from matroidworks.fields import extension_field, prime_field, rationals
from matroidworks.groebner import Ideal, buchberger
from matroidworks.polynomials import (
    DEGREVLEX,
    ELIMINATE_FIRST,
    Poly,
    PolynomialRing,
    exact_divide,
    poly_str,
)


def qring(*names):
    return PolynomialRing(rationals(), names or ("x", "y", "z"))


def random_poly(rng, ring, max_terms=5, max_deg=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_deg) for _ in range(ring.nvars))
        terms[exps] = ring.field.coerce(rng.randint(-4, 4))
    return poly_from_terms(ring, terms)


def test_ring_axioms_random():
    rng = random.Random(97)
    rings = [qring(), PolynomialRing(prime_field(5), ("a", "b"))]
    for ring in rings:
        zero = ring.zero()
        one = ring.one()
        for _ in range(60):
            a = random_poly(rng, ring)
            b = random_poly(rng, ring)
            c = random_poly(rng, ring)
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + zero == a
            assert a * one == a
            assert a - a == zero
            assert a * zero == zero


def test_pow_matches_repeated_product():
    ring = qring("x", "y")
    x, y = ring.gens()
    f = x + y
    assert f**0 == ring.one()
    assert f**3 == f * f * f
    assert poly_str(f * f) == "x^2 + 2*x*y + y^2"
    with pytest.raises(InputError):
        f ** (-1)


def test_pow_squares_only_while_bits_remain(monkeypatch):
    # square-and-multiply needs one product per set bit and one squaring per
    # bit after the first; squaring past the last bit wastes the largest one
    ring = qring("x", "y")
    x, y = ring.gens()
    f = x + y + ring.one()
    expected = ring.one()
    plain_mul = Poly.__mul__
    calls = [0]

    def counted_mul(a, b):
        calls[0] += 1
        return plain_mul(a, b)

    for k in range(1, 9):
        expected = plain_mul(expected, f)
        monkeypatch.setattr(Poly, "__mul__", counted_mul)
        calls[0] = 0
        power = f**k
        monkeypatch.setattr(Poly, "__mul__", plain_mul)
        assert power == expected
        assert calls[0] <= bin(k).count("1") + k.bit_length() - 1


def test_order_comparisons():
    # frozen comparisons in three variables
    deg = qring().monomial
    assert deg((1, 0, 0)) > deg((0, 1, 0)) > deg((0, 0, 1))
    # degrevlex ranks x*z below y^2 (last exponent decides, reversed)
    assert deg((0, 2, 0)) > deg((1, 0, 1))
    assert deg((0, 0, 2)) < deg((1, 0, 1))
    b = PolynomialRing(rationals(), ("x", "y", "z"), ELIMINATE_FIRST).monomial
    # any positive power of the first block dominates the second block
    assert b((1, 0, 0)) > b((0, 9, 9))
    assert b((0, 2, 0)) > b((0, 0, 2))


@pytest.mark.parametrize("order", [DEGREVLEX, ELIMINATE_FIRST], ids=["degrevlex", "block"])
def test_packed_monomials_match_tuple_definitions(order):
    # int order, divisibility, lcm and products of packed monomials agree
    # with the tuple definitions, small exponents and large ones alike
    ring = PolynomialRing(rationals(), ("x", "y", "z", "w"), order)
    rng = random.Random(2007)
    limit = 2**15 - 1
    exps = [(0, 0, 0, 0)]
    for top in [3] * 40 + [8000] * 20:
        exps.append(tuple(rng.randint(0, top) for _ in range(ring.nvars)))
    packed = {e: ring.monomial(e) for e in exps}

    def fits(e):
        return all(sum(e[s:t]) <= limit for s, t in order.blocks(ring.nvars))

    def terms(m):
        return Poly(ring, {m: Fraction(1)})

    for e, m in packed.items():
        assert ring.exponents(m) == e
    for a, b in itertools.product(exps, repeat=2):
        ma, mb = packed[a], packed[b]
        assert (ma < mb) == (order_key(order, a) < order_key(order, b))
        divides = all(x <= y for x, y in zip(a, b))
        assert (not (mb - ma) & ring.guard) == divides
        if divides:
            assert ring.exponents(mb - ma) == tuple(y - x for x, y in zip(a, b))
        lcm = tuple(map(max, a, b))
        product = tuple(x + y for x, y in zip(a, b))
        if fits(lcm):
            assert ring.exponents(groebner._lcm(ring, ma, mb)) == lcm
        if fits(product):
            assert ring.exponents((terms(ma) * terms(mb)).leading_exp()) == product
            assert ma + mb == ring.monomial(product)
        else:
            with pytest.raises(DegreeBudgetExceeded):
                terms(ma) * terms(mb)
    # the leading monomial of a polynomial is the largest by the tuple key
    for _ in range(50):
        f = random_poly(rng, PolynomialRing(rationals(), ring.names, order))
        if not f.is_zero():
            lead = max(map(f.ring.exponents, f.terms), key=lambda e: order_key(order, e))
            assert f.ring.exponents(f.leading_exp()) == lead


def test_exponent_limit():
    # every field holds 2^15 - 1; a larger exponent or degree is refused,
    # never wrapped into another monomial
    ring = qring("x", "y")
    x, y = ring.gens()
    top = x ** (2**15 - 1)
    assert ring.exponents(top.leading_exp()) == (2**15 - 1, 0)
    assert ring.monomial((2**15 - 1, 0)) == top.leading_exp()
    with pytest.raises(DegreeBudgetExceeded):
        x ** (2**15)
    with pytest.raises(DegreeBudgetExceeded):
        top * y  # each exponent fits, the degree does not
    with pytest.raises(DegreeBudgetExceeded):
        ring.monomial((2**14, 2**14))
    # the pair x^20000 y, x y^20000 has an lcm of degree 40,000
    with pytest.raises(DegreeBudgetExceeded):
        buchberger(Ideal(ring, [x**20000 * y - ring.one(), x * y**20000 - ring.one()]))


def test_leading_data():
    ring = qring()
    x, y, z = ring.gens()
    f = x * y + z * z * z
    assert ring.exponents(f.leading_exp()) == (0, 0, 3)
    block = PolynomialRing(rationals(), ring.names, ELIMINATE_FIRST)
    bx, by, bz = block.gens()
    assert block.exponents((bx * by + bz * bz * bz).leading_exp()) == (1, 1, 0)
    g = ring.one().scale(Fraction(3)) * x
    assert g.leading_coeff() == Fraction(3)
    assert g.monic() == x
    with pytest.raises(InputError):
        ring.zero().leading_exp()


def full_division(f, g):
    """f = q*g + r with no term of r divisible by lm(g), by the textbook
    loop that sets each indivisible leading term aside and goes on."""
    ring = f.ring
    lm = g.leading_exp()
    q, r, work = ring.zero(), ring.zero(), f
    while not work.is_zero():
        e = work.leading_exp()
        term = Poly(ring, {e: work.terms[e]})
        if all(a >= b for a, b in zip(ring.exponents(e), ring.exponents(lm))):
            ratio = ring.monomial(
                a - b for a, b in zip(ring.exponents(e), ring.exponents(lm))
            )
            shift = Poly(ring, {ratio: work.terms[e] / g.terms[lm]})
            q, work = q + shift, work - shift * g
        else:
            r, work = r + term, work - term
    return q, r


def test_exact_divide_matches_full_division():
    # exact_divide stops at the first indivisible leading term; the full
    # division, which keeps going, must then leave a nonzero remainder
    rng = random.Random(402)
    ring = qring("x", "y")
    for _ in range(80):
        g = random_poly(rng, ring, max_terms=3)
        if g.is_zero():
            continue
        for f in (random_poly(rng, ring, max_terms=6), random_poly(rng, ring) * g):
            q, r = full_division(f, g)
            assert q * g + r == f
            assert exact_divide(f, g) == (q if r.is_zero() else None)


def test_exact_divide():
    ring = qring("x", "y")
    x, y = ring.gens()
    prod = (x + y) * (x - y)
    assert exact_divide(prod, x + y) == x - y
    assert exact_divide(prod, x + ring.one()) is None
    rng = random.Random(77)
    for _ in range(40):
        a = random_poly(rng, ring)
        b = random_poly(rng, ring)
        if a.is_zero() or b.is_zero():
            continue
        assert exact_divide(a * b, b) == a


def test_substitute_and_evaluate():
    ring = qring("x", "y")
    x, y = ring.gens()
    f = x * x + y
    v = f.evaluate({0: Fraction(2), 1: Fraction(3)})
    assert v == Fraction(7)
    f5 = prime_field(5)
    assert f.evaluate({0: 2, 1: 3}, into_field=f5) == f5.coerce(7)


def test_ring_mismatch():
    r1 = qring("x")
    r2 = qring("x")
    assert r1 == r2
    r3 = qring("t")
    with pytest.raises(RingMismatch):
        r1.gens()[0] + r3.gens()[0]


def test_poly_str_golden():
    ring = qring("x", "y")
    x, y = ring.gens()
    assert poly_str(ring.zero()) == "0"
    assert poly_str(ring.one()) == "1"
    assert poly_str(x * x - y + ring.one().scale(2)) == "x^2 - y + 2"
    assert poly_str(x * y.scale(Fraction(-1, 2))) == "-1/2*x*y"
    f5 = PolynomialRing(prime_field(5), ("u",))
    u = f5.gens()[0]
    assert poly_str(u * u * u + u.scale(4)) == "u^3 + 4*u"
    assert poly_str(-x) == "-x"
    assert poly_str(-ring.one()) == "-1"
    assert poly_str(-x * y.scale(3) + x) == "-3*x*y + x"
    half = x.scale(Fraction(-1, 2)) * y - y * y + ring.one().scale(Fraction(-7, 2))
    assert poly_str(half) == "-1/2*x*y - y^2 - 7/2"
    f5xy = PolynomialRing(prime_field(5), ("x", "y"))
    a, b = f5xy.gens()
    assert poly_str(-a * b + b.scale(3) - f5xy.one()) == "4*x*y + 3*y + 4"
    # F_4 and F_9: a coefficient holding "+" or "*" goes in parentheses
    t, t_plus_1 = (0, 1), (1, 1)
    for p in (2, 3):
        ext = PolynomialRing(extension_field(p, 2), ("x", "y"))
        x, y = ext.gens()
        assert poly_str(x.scale(t_plus_1)) == "(t + 1)*x"
        assert poly_str(x.scale(t)) == "t*x"
        assert poly_str(ext.one().scale(t_plus_1)) == "(t + 1)"
        mixed = x * x.scale(t_plus_1) + y.scale(t) + ext.one().scale(t_plus_1)
        assert poly_str(mixed) == "(t + 1)*x^2 + t*y + (t + 1)"
        assert poly_str(x - ext.one()) == f"x + {p - 1}"
    assert poly_str(x.scale((0, 2))) == "(2*t)*x"  # F_9


def test_scale_reduces_its_factor():
    # an unreduced int goes through Field.coerce like any other value
    ring = PolynomialRing(prime_field(5), ("x", "y"))
    x, y = ring.gens()
    assert (x + y).scale(5) == ring.zero()
    assert (x + y).scale(5).is_zero()
    assert (x + y).scale(7) == (x + y).scale(2)
    assert x.scale(-1) == -x


def test_variable_index_is_checked():
    ring = qring("x", "y")
    x, y = ring.gens()
    p = x * x * y + y
    assert p.degree_in(0) == 2 and p.degree_in(1) == 1
    assert ring.zero().degree_in(1) == -1
    for i in (-1, 2):
        with pytest.raises(InputError, match=f"no variable with index {i}"):
            p.degree_in(i)
        with pytest.raises(InputError, match=f"no variable with index {i}"):
            p.coefficients_in(i)


def test_from_terms_drops_zeros():
    ring = qring("x", "y")
    f = poly_from_terms(ring, {(1, 0): Fraction(0), (0, 1): Fraction(2)})
    assert len(f.terms) == 1
    assert f.total_degree() == 1
    assert ring.zero().total_degree() == -1
    assert f.degree_in(1) == 1
    assert f.variables() == (1,)
