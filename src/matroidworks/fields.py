"""Exact coefficient fields: Q, prime fields F_p, and small extensions F_{p^k}.

Field objects hold the arithmetic; elements are plain data (Fraction for Q,
int for F_p, tuple of ints for F_{p^k}) so they stay cheap to hash and copy.
Two fields compare equal exactly when they have the same kind and parameters,
which is what the ring-mismatch checks key on.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator

from .errors import InputError, MatroidworksError, NonPrimeCharacteristic


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class Field:
    """Common interface; subclasses fill in the arithmetic."""

    characteristic: int

    def coerce(self, value):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return a == self.zero

    def render(self, a) -> str:
        raise NotImplementedError


class RationalField(Field):
    characteristic = 0

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def coerce(self, value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int) and not isinstance(value, bool):
            return Fraction(value)
        raise InputError(f"cannot coerce {value!r} into Q")

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in Q")
        return 1 / a

    def render(self, a) -> str:
        return str(a)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


class PrimeField(Field):
    """F_p with elements the ints 0..p-1."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise NonPrimeCharacteristic(f"{p} is not prime")
        self.p = p
        self.characteristic = p
        self.zero = 0
        self.one = 1 % p

    def coerce(self, value):
        if isinstance(value, int) and not isinstance(value, bool):
            return value % self.p
        if isinstance(value, Fraction):
            den = value.denominator % self.p
            if den == 0:
                raise ZeroDivisionError(f"denominator of {value} vanishes mod {self.p}")
            return value.numerator * pow(den, -1, self.p) % self.p
        raise InputError(f"cannot coerce {value!r} into F_{self.p}")

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"inverse of 0 in F_{self.p}")
        return pow(a, -1, self.p)

    def is_zero(self, a) -> bool:
        return a == 0

    def render(self, a) -> str:
        return str(a)

    def iter_elements(self) -> Iterator[int]:
        return iter(range(self.p))

    @property
    def order(self) -> int:
        return self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"F_{self.p}"


def _poly_mod_mul(a: tuple, b: tuple, modulus: tuple, p: int) -> tuple:
    """Multiply two F_p[t] residues modulo the monic modulus (coeff tuples, low first)."""
    k = len(modulus)
    prod = [0] * (2 * k - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    prod[i + j] = (prod[i + j] + ai * bj) % p
    # reduce t^m for m >= k using t^k = -modulus
    for m in range(2 * k - 2, k - 1, -1):
        c = prod[m]
        if c:
            prod[m] = 0
            for j in range(k):
                prod[m - k + j] = (prod[m - k + j] - c * modulus[j]) % p
    return tuple(prod[:k])


class ExtensionField(Field):
    """F_{p^k} as F_p[t] / (modulus); elements are coeff tuples, low degree first.

    The modulus is the lexicographically smallest monic irreducible of
    degree k (smallest encoded value sum(c_i * p^i) over the non-leading
    coefficients).
    """

    def __init__(self, p: int, k: int):
        if not is_prime(p):
            raise NonPrimeCharacteristic(f"{p} is not prime")
        if k < 2:
            raise InputError("extension degree must be at least 2 (use PrimeField)")
        self.p = p
        self.k = k
        self.characteristic = p
        self.modulus = _smallest_irreducible(p, k)
        self.zero = (0,) * k
        self.one = (1,) + (0,) * (k - 1)

    def coerce(self, value):
        if isinstance(value, tuple):
            if len(value) != self.k:
                raise InputError(f"element tuple must have length {self.k}")
            return tuple(c % self.p for c in value)
        if isinstance(value, int) and not isinstance(value, bool):
            return (value % self.p,) + (0,) * (self.k - 1)
        if isinstance(value, Fraction):
            return self.coerce(PrimeField(self.p).coerce(value))
        raise InputError(f"cannot coerce {value!r} into F_{self.p}^{self.k}")

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple((-x) % self.p for x in a)

    def mul(self, a, b):
        return _poly_mod_mul(a, b, self.modulus, self.p)

    def inv(self, a):
        if all(c == 0 for c in a):
            raise ZeroDivisionError(f"inverse of 0 in F_{self.p}^{self.k}")
        # a^(q-2) via square and multiply; q-1 is the unit group order
        q = self.p**self.k
        result = self.one
        base = a
        e = q - 2
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def is_zero(self, a) -> bool:
        return all(c == 0 for c in a)

    def render(self, a) -> str:
        parts = []
        for i in range(self.k - 1, -1, -1):
            c = a[i]
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append("t" if c == 1 else f"{c}*t")
            else:
                parts.append(f"t^{i}" if c == 1 else f"{c}*t^{i}")
        return " + ".join(parts) if parts else "0"

    def iter_elements(self) -> Iterator[tuple]:
        def rec(i):
            if i == self.k:
                yield ()
                return
            for rest in rec(i + 1):
                for c in range(self.p):
                    yield (c,) + rest

        return rec(0)

    @property
    def order(self) -> int:
        return self.p**self.k

    def __eq__(self, other):
        return (
            isinstance(other, ExtensionField)
            and other.p == self.p
            and other.k == self.k
            and other.modulus == self.modulus
        )

    def __hash__(self):
        return hash(("Fq", self.p, self.k, self.modulus))

    def __repr__(self):
        return f"F_{self.p}^{self.k}"


def _poly_divides(d: tuple, f: tuple, p: int) -> bool:
    """Whether monic d (low-first coeffs, implicit leading 1 at len(d)) divides
    the monic polynomial f (same encoding)."""
    deg_d, deg_f = len(d), len(f)
    rem = list(f) + [1]
    for i in range(deg_f, deg_d - 1, -1):
        c = rem[i]
        if c:
            rem[i] = 0
            for j in range(deg_d):
                rem[i - deg_d + j] = (rem[i - deg_d + j] - c * d[j]) % p
    return all(c == 0 for c in rem[:deg_d])


def _monic_polys(p: int, deg: int) -> Iterator[tuple]:
    """Non-leading coefficient tuples of monic degree-deg polys, ascending encoding."""
    for code in range(p**deg):
        coeffs = []
        c = code
        for _ in range(deg):
            coeffs.append(c % p)
            c //= p
        yield tuple(coeffs)


def _is_irreducible(coeffs: tuple, p: int) -> bool:
    deg = len(coeffs)
    for d in range(1, deg // 2 + 1):
        for cand in _monic_polys(p, d):
            if _poly_divides(cand, coeffs, p):
                return False
    return True


def _smallest_irreducible(p: int, k: int) -> tuple:
    for cand in _monic_polys(p, k):
        if _is_irreducible(cand, p):
            return cand
    raise MatroidworksError(f"internal: no monic irreducible of degree {k} over F_{p}")


_RATIONALS = RationalField()


def rationals() -> RationalField:
    return _RATIONALS


def prime_field(p: int) -> PrimeField:
    return PrimeField(p)


def extension_field(p: int, k: int) -> ExtensionField:
    return ExtensionField(p, k)


def field_of_characteristic(char: int) -> Field:
    """Q for 0, F_p for prime p."""
    if char == 0:
        return _RATIONALS
    return PrimeField(char)


def factor_prime_power(q: int) -> tuple[int, int]:
    """(p, k) with q = p^k, or InputError if q is not a prime power."""
    if not isinstance(q, int) or q < 2:
        raise InputError(f"{q!r} is not a prime power")
    # the smallest divisor p >= 2 is prime; q itself when none is <= sqrt(q)
    p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
    k, m = 0, q
    while m % p == 0:
        m //= p
        k += 1
    if m != 1:
        raise InputError(f"{q} is not a prime power")
    return p, k


def field_of_order(q: int) -> Field:
    p, k = factor_prime_power(q)
    return PrimeField(p) if k == 1 else ExtensionField(p, k)
