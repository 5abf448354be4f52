"""Exhaustive field-axiom checks for every coefficient field up to order 13."""

import itertools
from fractions import Fraction

import pytest

from matroidworks import fields
from matroidworks.errors import InputError, MatroidworksError, NonPrimeCharacteristic
from matroidworks.fields import (
    extension_field,
    factor_prime_power,
    field_of_characteristic,
    field_of_order,
    is_prime,
    prime_field,
    rationals,
)

SMALL_ORDERS = [2, 3, 4, 5, 7, 8, 9, 11, 13]


def finite_fields():
    return [field_of_order(q) for q in SMALL_ORDERS]


def test_axioms_exhaustive():
    for f in finite_fields():
        elems = list(f.iter_elements())
        assert len(elems) == f.order
        assert len(set(elems)) == f.order
        zero, one = f.zero, f.one
        for a in elems:
            assert f.add(a, zero) == a
            assert f.mul(a, one) == a
            assert f.add(a, f.neg(a)) == zero
            if not f.is_zero(a):
                assert f.mul(a, f.inv(a)) == one
        for a, b in itertools.product(elems, repeat=2):
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
        for a, b, c in itertools.product(elems, repeat=3):
            assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
            assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_characteristic_of_each_field():
    for q in SMALL_ORDERS:
        f = field_of_order(q)
        p, _ = factor_prime_power(q)
        acc = f.zero
        for i in range(1, p + 1):
            acc = f.add(acc, f.one)
        assert f.is_zero(acc)


def test_frobenius_is_identity_on_field():
    # a^q = a for every a in GF(q)
    for f in finite_fields():
        q = f.order
        for a in f.iter_elements():
            y = f.one
            for _ in range(q):
                y = f.mul(y, a)
            assert y == a


def test_rationals():
    q = rationals()
    assert q.coerce(2) == Fraction(2)
    assert q.div(q.coerce(1), q.coerce(3)) == Fraction(1, 3)
    assert q.render(Fraction(-7, 2)) == "-7/2"
    with pytest.raises(ZeroDivisionError):
        q.inv(q.zero)


def test_prime_field_rejections():
    with pytest.raises(NonPrimeCharacteristic):
        prime_field(4)
    with pytest.raises(NonPrimeCharacteristic):
        prime_field(1)
    f = prime_field(7)
    assert f.coerce(10) == 3
    assert f.coerce(-1) == 6
    assert f.coerce(Fraction(1, 2)) == f.inv(f.coerce(2))
    with pytest.raises(ZeroDivisionError):
        f.coerce(Fraction(1, 7))


def test_extension_field_modulus_checks():
    # moduli are the k non-leading coefficients, constant first, monic implied;
    # the smallest irreducible is chosen: x^2 + 1 over F_3, but over F_5,
    # where x^2 + 1 has the root 2, x^2 + 2
    assert extension_field(3, 2).modulus == (1, 0)
    assert extension_field(5, 2).modulus == (2, 0)
    auto = extension_field(2, 3)
    assert auto.modulus == (1, 1, 0)
    assert auto.order == 8


def test_missing_modulus_is_an_internal_error(monkeypatch):
    # a degree with no irreducible would be a library bug; it must surface
    # as the library's own error, not as an AssertionError
    monkeypatch.setattr(fields, "_is_irreducible", lambda coeffs, p: False)
    with pytest.raises(MatroidworksError, match="internal"):
        extension_field(3, 2)


def test_field_of_characteristic():
    assert field_of_characteristic(0) == rationals()
    assert field_of_characteristic(5) == prime_field(5)
    with pytest.raises(NonPrimeCharacteristic):
        field_of_characteristic(6)
    with pytest.raises(NonPrimeCharacteristic):
        field_of_characteristic(-1)


def test_factor_prime_power():
    assert factor_prime_power(8) == (2, 3)
    assert factor_prime_power(13) == (13, 1)
    assert factor_prime_power(9) == (3, 2)
    assert factor_prime_power(3**12) == (3, 12)
    # a large prime is found by trial division up to its square root
    assert factor_prime_power(1_000_000_007) == (1_000_000_007, 1)
    for bad in (1, 6, 10, 12, 2 * 1_000_000_007):
        with pytest.raises(InputError):
            factor_prime_power(bad)


def test_is_prime_small():
    primes = [p for p in range(2, 60) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_render_extension_elements():
    f = extension_field(2, 2)
    rendered = {f.render(a) for a in f.iter_elements()}
    assert len(rendered) == 4


def test_field_guards():
    f8 = extension_field(2, 3)
    with pytest.raises(ZeroDivisionError):
        prime_field(7).inv(0)
    with pytest.raises(ZeroDivisionError):
        f8.inv(f8.zero)
    with pytest.raises(NonPrimeCharacteristic):
        extension_field(4, 2)
    with pytest.raises(InputError):
        extension_field(2, 1)
    with pytest.raises(InputError):
        prime_field(7).coerce("1")
    with pytest.raises(InputError):
        f8.coerce((1,))
