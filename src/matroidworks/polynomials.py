"""Multivariate polynomials with dense exponent tuples over the exact fields.

A ring is (field, variable names); a polynomial is a dict from exponent
tuples to nonzero coefficients.  Monomial orders produce sort keys, so
"largest monomial" is always max() over keys.  Everything here is
immutable by convention: operations build new polynomials.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .errors import InputError, RingMismatch
from .fields import ExtensionField, Field, RationalField


class MonomialOrder:
    """degrevlex, or a two-block elimination order (degrevlex in each block).

    The pipeline uses two orders: DEGREVLEX everywhere, and ELIMINATE_FIRST,
    whose first block is the first variable alone, where saturation
    eliminates its auxiliary variable.
    """

    __slots__ = ("block",)

    def __init__(self, block: Optional[int] = None):
        self.block = block  # first-block size; None for degrevlex

    def key(self, exps: tuple) -> tuple:
        s = self.block
        if s is None:
            return (sum(exps), tuple(-e for e in reversed(exps)))
        head, tail = exps[:s], exps[s:]
        return (
            sum(head),
            tuple(-e for e in reversed(head)),
            sum(tail),
            tuple(-e for e in reversed(tail)),
        )

    def __repr__(self):
        if self.block is None:
            return "MonomialOrder(degrevlex)"
        return f"MonomialOrder(block, {self.block})"


DEGREVLEX = MonomialOrder()
ELIMINATE_FIRST = MonomialOrder(1)


class PolynomialRing:
    """Field + named variables.  Rings compare by value."""

    __slots__ = ("field", "names", "_zero_exp")

    def __init__(self, field: Field, names: Sequence[str]):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise InputError("variable names must be distinct")
        self.field = field
        self.names = names
        self._zero_exp = (0,) * len(names)

    @property
    def nvars(self) -> int:
        return len(self.names)

    def zero(self) -> "Poly":
        return Poly(self, {})

    def one(self) -> "Poly":
        return Poly(self, {self._zero_exp: self.field.one})

    def var(self, i: int) -> "Poly":
        if not 0 <= i < self.nvars:
            raise InputError(f"no variable with index {i}")
        exp = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Poly(self, {exp: self.field.one})

    def gens(self) -> list["Poly"]:
        return [self.var(i) for i in range(self.nvars)]

    def __eq__(self, other):
        return (
            isinstance(other, PolynomialRing)
            and self.field == other.field
            and self.names == other.names
        )

    def __hash__(self):
        return hash((self.field, self.names))

    def __repr__(self):
        return f"PolynomialRing({self.field!r}, {list(self.names)})"


def _is_raw_element(field: Field, value) -> bool:
    if isinstance(field, RationalField):
        return isinstance(value, Fraction)
    if isinstance(field, ExtensionField):
        return isinstance(value, tuple)
    return isinstance(value, int) and not isinstance(value, bool)


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
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self):
        """The coefficient of the constant term (field zero if absent)."""
        return self.terms.get(self.ring._zero_exp, self.ring.field.zero)

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def variables(self) -> tuple[int, ...]:
        used = set()
        for e in self.terms:
            for i, v in enumerate(e):
                if v:
                    used.add(i)
        return tuple(sorted(used))

    def degree_in(self, i: int) -> int:
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

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
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
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
        f = self.ring.field
        cc = f.coerce(c) if not _is_raw_element(f, c) else c
        if f.is_zero(cc):
            return self.ring.zero()
        return Poly(self.ring, {e: f.mul(v, cc) for e, v in self.terms.items()})

    def mul_monomial(self, exp: tuple, coeff) -> "Poly":
        f = self.ring.field
        return Poly(
            self.ring,
            {
                tuple(a + b for a, b in zip(e, exp)): f.mul(c, coeff)
                for e, c in self.terms.items()
            },
        )

    # -- leading data ------------------------------------------------------

    def leading_exp(self, order: MonomialOrder) -> tuple:
        if not self.terms:
            raise InputError("zero polynomial has no leading monomial")
        return max(self.terms, key=order.key)

    def leading_coeff(self, order: MonomialOrder):
        return self.terms[self.leading_exp(order)]

    def monic(self, order: MonomialOrder) -> "Poly":
        if not self.terms:
            return self
        return self.scale(self.ring.field.inv(self.leading_coeff(order)))

    def sorted_terms(self) -> list[tuple]:
        return sorted(self.terms, key=DEGREVLEX.key, reverse=True)

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
            for i, k in enumerate(e):
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


def _coeff_str(field: Field, c) -> tuple[str, bool]:
    """(rendered coefficient, needs_parens)."""
    s = field.render(c)
    return s, ("+" in s or (isinstance(field, ExtensionField) and "*" in s))


def poly_str(p: Poly) -> str:
    """Deterministic rendering: terms descending in degrevlex, ^ powers, * products."""
    if p.is_zero():
        return "0"
    field = p.ring.field
    names = p.ring.names
    rational = isinstance(field, RationalField)
    pieces = []
    for idx, e in enumerate(p.sorted_terms()):
        c = p.terms[e]
        negative = rational and c < 0
        mag = -c if negative else c
        factors = []
        for i, k in enumerate(e):
            if k == 1:
                factors.append(names[i])
            elif k > 1:
                factors.append(f"{names[i]}^{k}")
        cs, parens = _coeff_str(field, mag)
        if not factors:
            body = f"({cs})" if parens else cs
        elif cs == "1":
            body = "*".join(factors)
        else:
            head = f"({cs})" if parens else cs
            body = head + "*" + "*".join(factors)
        if idx == 0:
            pieces.append(("-" if negative else "") + body)
        else:
            pieces.append((" - " if negative else " + ") + body)
    return "".join(pieces)


def poly_sort_key(p: Poly, order: MonomialOrder = DEGREVLEX):
    """Total deterministic key on polynomials (used to fix tie-breaks)."""
    items = sorted(p.terms, key=order.key, reverse=True)
    return tuple((order.key(e), repr(p.terms[e])) for e in items)


def exact_divide(f: Poly, g: Poly) -> Optional[Poly]:
    """f / g when the division is exact, else None (division in degrevlex).

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
    glm = g.leading_exp(DEGREVLEX)
    glc = g.terms[glm]
    q: dict = {}
    work = dict(f.terms)
    while work:
        e = max(work, key=DEGREVLEX.key)
        if not all(a >= b for a, b in zip(e, glm)):
            return None
        ratio = tuple(a - b for a, b in zip(e, glm))
        coeff = q[ratio] = field.div(work.pop(e), glc)
        for ge, gc in g.terms.items():
            if ge == glm:
                continue
            ne = tuple(a + b for a, b in zip(ratio, ge))
            nv = field.sub(work.get(ne, field.zero), field.mul(coeff, gc))
            if field.is_zero(nv):
                work.pop(ne, None)
            else:
                work[ne] = nv
    return Poly(ring, q)
