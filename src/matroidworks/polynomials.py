"""Multivariate polynomials over the exact fields, with packed monomials.

A ring is (field, variable names, monomial order); a polynomial is a dict
from monomials to nonzero coefficients.  A monomial is one int whose int
order is the ring's monomial order, so the leading monomial is max() of
the terms, a product of monomials is their sum, and a divides b exactly
when b - a sets no guard bit (PolynomialRing has the layout).
ring.monomial(exps) and ring.exponents(m) convert to and from exponent
tuples.  Everything here is immutable by convention: operations build new
polynomials.  Coefficients are opaque field elements, brought in by
Field.coerce; render_terms is the one text form of all polynomials.
"""

from __future__ import annotations

import operator
import struct
from typing import Iterable, Mapping, Optional, Sequence

from .errors import DegreeBudgetExceeded, InputError, RingMismatch
from .fields import Field

W = 16  # bits per field of a packed monomial; the top one is a guard bit
_LIMIT = (1 << (W - 1)) - 1  # the largest exponent or degree a field holds
_MASK = (1 << W) - 1


def overflow_error() -> DegreeBudgetExceeded:
    """The error for a monomial that its packed fields cannot hold."""
    return DegreeBudgetExceeded(f"a monomial exponent or degree exceeds {_LIMIT}")


class MonomialOrder:
    """degrevlex, or a two-block elimination order (degrevlex in each block).

    The pipeline uses two orders: DEGREVLEX everywhere, and ELIMINATE_FIRST,
    whose first block is the first variable alone, where saturation
    eliminates its auxiliary variable.
    """

    __slots__ = ("block",)

    def __init__(self, block: Optional[int] = None):
        self.block = block  # first-block size; None for degrevlex

    def blocks(self, n: int) -> list[tuple[int, int]]:
        """The nonempty (start, stop) variable ranges of the blocks."""
        cut = n if self.block is None else min(self.block, n)
        return [(s, t) for s, t in ((0, cut), (cut, n)) if s < t]

    def __eq__(self, other):
        return isinstance(other, MonomialOrder) and self.block == other.block

    def __hash__(self):
        return hash(self.block)

    def __repr__(self):
        if self.block is None:
            return "MonomialOrder(degrevlex)"
        return f"MonomialOrder(block, {self.block})"


DEGREVLEX = MonomialOrder()
ELIMINATE_FIRST = MonomialOrder(1)


class PolynomialRing:
    """Field + named variables + monomial order.  Rings compare by value.

    A monomial of n variables packs 2n fields of W bits, most significant
    first.  For each block of the order come its degree, then its prefix
    sums e_1+...+e_{k-1} down to e_1 (over the block's k exponents); then
    the n exponents.  Lex order on the first n fields is the monomial
    order, and they determine the rest, so int order is the ring's order.
    Every field is a sum of exponents, so adding two monomials multiplies
    them.  A field holds at most 2^(W-1) - 1: the top bit of each field is
    a guard, set in a + b when the product overflows (DegreeBudgetExceeded)
    and in b - a when a does not divide b.
    """

    __slots__ = ("field", "names", "order", "guard", "_blocks", "_weights", "_unpack")

    def __init__(self, field: Field, names: Sequence[str], order: MonomialOrder = DEGREVLEX):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise InputError("variable names must be distinct")
        self.field = field
        self.names = names
        self.order = order
        n = len(names)
        self.guard = sum(1 << (W * f + W - 1) for f in range(2 * n))
        self._blocks = order.blocks(n)

        def field_bit(f):  # field f counts from the most significant
            return 1 << (W * (2 * n - 1 - f))

        # the monomial of each variable: in its block, the degree and the
        # prefix sums that include it, then its exponent field
        self._weights = []
        pos = 0
        for s, t in self._blocks:
            for j in range(t - s):
                w = sum(field_bit(pos + f) for f in range(t - s - j))
                self._weights.append(w + field_bit(n + s + j))
            pos += t - s
        self._unpack = struct.Struct(f">{2 * n}x{n}H").unpack

    @property
    def nvars(self) -> int:
        return len(self.names)

    def monomial(self, exps: Sequence[int]) -> int:
        """The packed monomial with these exponents."""
        exps = tuple(exps)
        if len(exps) != self.nvars:
            raise InputError("exponent tuple has the wrong length")
        if min(exps, default=0) < 0:
            raise InputError("negative exponent")
        if any(sum(exps[s:t]) > _LIMIT for s, t in self._blocks):
            raise overflow_error()
        return sum(map(operator.mul, exps, self._weights))

    def exponents(self, m: int) -> tuple:
        """The exponent tuple of a packed monomial."""
        return self._unpack(m.to_bytes(4 * self.nvars, "big"))

    def zero(self) -> "Poly":
        return Poly(self, {})

    def one(self) -> "Poly":
        return Poly(self, {0: self.field.one})

    def var(self, i: int) -> "Poly":
        if not 0 <= i < self.nvars:
            raise InputError(f"no variable with index {i}")
        return Poly(self, {self._weights[i]: self.field.one})

    def gens(self) -> list["Poly"]:
        return [self.var(i) for i in range(self.nvars)]

    def __eq__(self, other):
        return self is other or (
            isinstance(other, PolynomialRing)
            and self.field == other.field
            and self.names == other.names
            and self.order == other.order
        )

    def __hash__(self):
        return hash((self.field, self.names, self.order))

    def __repr__(self):
        return f"PolynomialRing({self.field!r}, {list(self.names)}, {self.order!r})"


class Poly:
    """Immutable multivariate polynomial."""

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: PolynomialRing, terms: dict):
        self.ring = ring
        self.terms = terms
        self._hash = None

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not any(self.terms)  # the constant monomial is 0

    def constant_value(self):
        """The coefficient of the constant term (field zero if absent)."""
        return self.terms.get(0, self.ring.field.zero)

    def variables(self) -> tuple[int, ...]:
        used = 0
        for e in self.terms:
            used |= e
        return tuple(i for i, k in enumerate(self.ring.exponents(used)) if k)

    def _exponent_shift(self, i: int) -> int:
        if not 0 <= i < self.ring.nvars:
            raise InputError(f"no variable with index {i}")
        return W * (self.ring.nvars - 1 - i)

    def degree_in(self, i: int) -> int:
        shift = self._exponent_shift(i)
        return max(((e >> shift) & _MASK for e in self.terms), default=-1)

    def coefficients_in(self, i: int) -> dict[int, "Poly"]:
        """{k: c_k} with self the sum of c_k * x_i^k, each c_k free of x_i,
        for the k that occur."""
        shift = self._exponent_shift(i)
        x = self.ring._weights[i]
        layers: dict[int, dict] = {}
        for e, c in self.terms.items():
            k = (e >> shift) & _MASK
            layers.setdefault(k, {})[e - k * x] = c
        return {k: Poly(self.ring, t) for k, t in layers.items()}

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Poly"):
        if self.ring != other.ring:
            raise RingMismatch(f"{self.ring!r} vs {other.ring!r}")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        f = self.ring.field
        out = dict(self.terms)
        for e, c in other.terms.items():
            if e in out:
                s = f.add(out[e], c)
                if f.is_zero(s):
                    del out[e]
                else:
                    out[e] = s
            else:
                out[e] = c
        return Poly(self.ring, out)

    def __neg__(self) -> "Poly":
        f = self.ring.field
        return Poly(self.ring, {e: f.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        f = self.ring.field
        guard = self.ring.guard
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                if e & guard:
                    raise overflow_error()
                c = f.mul(c1, c2)
                if e in out:
                    s = f.add(out[e], c)
                    if f.is_zero(s):
                        del out[e]
                    else:
                        out[e] = s
                elif not f.is_zero(c):
                    out[e] = c
        return Poly(self.ring, out)

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise InputError("negative polynomial power")
        result = self.ring.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def scale(self, c) -> "Poly":
        """c * self, with c brought into the field by Field.coerce (which
        returns the field's own elements unchanged)."""
        f = self.ring.field
        cc = f.coerce(c)
        if f.is_zero(cc):
            return self.ring.zero()
        return Poly(self.ring, {e: f.mul(v, cc) for e, v in self.terms.items()})

    # -- leading data ------------------------------------------------------

    def leading_exp(self) -> int:
        if not self.terms:
            raise InputError("zero polynomial has no leading monomial")
        return max(self.terms)

    def leading_coeff(self):
        return self.terms[self.leading_exp()]

    def monic(self) -> "Poly":
        if not self.terms:
            return self
        return self.scale(self.ring.field.inv(self.leading_coeff()))

    def sorted_terms(self) -> list[int]:
        """The monomials, descending in the ring's order."""
        return sorted(self.terms, reverse=True)

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, values: Mapping[int, object], into_field: Optional[Field] = None):
        """Full evaluation; values maps variable index -> field element.

        ``into_field`` allows evaluating a prime-field polynomial at points of
        an extension field (coefficients are coerced along the way).
        """
        target = into_field if into_field is not None else self.ring.field
        acc = target.zero
        for e, c in self.terms.items():
            term = target.coerce(c) if target != self.ring.field else c
            for i, k in enumerate(self.ring.exponents(e)):
                if k:
                    v = values[i]
                    for _ in range(k):
                        term = target.mul(term, v)
            acc = target.add(acc, term)
        return acc

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, frozenset(self.terms.items())))
        return self._hash

    def __repr__(self):
        return f"Poly({poly_str(self)})"


def render_terms(terms: Iterable[tuple[str, Sequence[str]]]) -> str:
    """The text of a polynomial from its terms in print order, each a pair
    (coefficient text, factor texts).

    A leading "-" of a coefficient becomes the term's sign; a coefficient
    holding "+" or "*" goes in parentheses; a coefficient "1" is left off
    before its factors; no terms give "0".
    """
    pieces = []
    for cs, factors in terms:
        sign = " + "
        if cs.startswith("-"):
            sign, cs = " - ", cs[1:]
        if "+" in cs or "*" in cs:
            cs = f"({cs})"
        body = factors if cs == "1" and factors else (cs, *factors)
        pieces.append(sign + "*".join(body))
    if not pieces:
        return "0"
    text = "".join(pieces)  # the first term's sign is "-" or nothing
    return "-" + text[3:] if text.startswith(" - ") else text[3:]


def poly_str(p: Poly) -> str:
    """Deterministic rendering: terms descending in the ring's order, ^
    powers, * products."""
    render, names = p.ring.field.render, p.ring.names
    return render_terms(
        (render(p.terms[e]), [names[i] if k == 1 else f"{names[i]}^{k}"
                              for i, k in enumerate(p.ring.exponents(e)) if k])
        for e in p.sorted_terms()
    )


def poly_sort_key(p: Poly):
    """Total deterministic key on polynomials (used to fix tie-breaks)."""
    return tuple((e, str(p.terms[e])) for e in p.sorted_terms())


def exact_divide(f: Poly, g: Poly) -> Optional[Poly]:
    """f / g when the division is exact, else None (division in the ring's
    order).

    The leading terms of the working dividend strictly decrease, so a term
    that lm(g) does not divide is never cancelled: the division stops there.
    For the same reason each quotient term is written once.
    """
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    ring = f.ring
    if ring != g.ring:
        raise RingMismatch("division over different rings")
    field = ring.field
    guard = ring.guard
    glm = g.leading_exp()
    glc = g.terms[glm]
    q: dict = {}
    work = dict(f.terms)
    while work:
        e = max(work)
        ratio = e - glm
        if ratio & guard:
            return None
        coeff = q[ratio] = field.div(work.pop(e), glc)
        for ge, gc in g.terms.items():
            if ge == glm:
                continue
            ne = ratio + ge
            if ne & guard:
                raise overflow_error()
            nv = field.sub(work.get(ne, field.zero), field.mul(coeff, gc))
            if field.is_zero(nv):
                work.pop(ne, None)
            else:
                work[ne] = nv
    return Poly(ring, q)
