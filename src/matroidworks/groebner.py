"""Buchberger's algorithm, inequation reduction, saturation, and
linear-variable elimination.

The engine is deterministic end to end: generators are sorted on entry,
S-pairs are processed in normal strategy (smallest lcm first, index
tie-break), and the two classical Buchberger criteria (coprime leading
monomials and the chain criterion) prune pairs.  Each Buchberger run is
capped by the current budget's pair_reductions (errors.budget); when the
cap trips, DegreeBudgetExceeded is raised rather than a wrong basis
returned.

Inequations (the elements inverted in a localization) are simplified in one
place, reduce_inequations: normal form against one divisor list built per
call, monic, no scalars, sorted without repeats, and factors that are other
inequations divided out.  saturate uses it on its inputs.
eliminate_linear_variables scans the variables from the last and eliminates
the first one that some generator is linear in with a unit coefficient: a
scalar one beats a unit one, then the smaller generator wins.  It asks the
same division primitive whether a coefficient is a unit, and only for a
variable with no scalar coefficient.

Each ring carries its monomial order, and monomials are packed ints in
that order (see polynomials), so leading monomials are max(), products are
sums and divisibility is a guard-bit test.  Everything runs in degrevlex
rings except the Rabinowitsch step of saturation, whose extended ring
eliminates its auxiliary first variable in the block order
ELIMINATE_FIRST.  saturate runs that step once per inequation, not once by
their product, and returns the last step's t-free elements as its reduced
basis.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import DegreeBudgetExceeded, InputError, RingMismatch, current_budget
from .polynomials import (
    DEGREVLEX,
    ELIMINATE_FIRST,
    Poly,
    PolynomialRing,
    exact_divide,
    overflow_error,
    poly_sort_key,
)


class Ideal:
    """Finitely generated ideal; the empty generator tuple is the zero ideal."""

    __slots__ = ("ring", "gens")

    def __init__(self, ring: PolynomialRing, gens: Iterable[Poly]):
        out = []
        for g in gens:
            if g.ring != ring:
                raise RingMismatch("ideal generator over the wrong ring")
            if not g.is_zero():
                out.append(g)
        self.ring = ring
        self.gens = tuple(out)

    def __repr__(self):
        return f"Ideal({len(self.gens)} generators over {self.ring!r})"


class GroebnerBasis:
    """A reduced Groebner basis in its ring's order: monic, ascending by
    leading monomial."""

    __slots__ = ("ring", "elements")

    def __init__(self, ring: PolynomialRing, elements: Sequence[Poly]):
        self.ring = ring
        self.elements = tuple(elements)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def contains_one(self) -> bool:
        return has_unit(self.elements)

    def __repr__(self):
        return f"GroebnerBasis({len(self.elements)} elements, {self.ring.order!r})"


def has_unit(basis: Iterable[Poly]) -> bool:
    """Whether some element is a nonzero constant: for a Groebner basis,
    whether it spans the unit ideal."""
    return any(p.is_constant() and not p.is_zero() for p in basis)


def _lcm(ring: PolynomialRing, a: int, b: int) -> int:
    return ring.monomial(map(max, ring.exponents(a), ring.exponents(b)))


def s_polynomial(f: Poly, g: Poly) -> Poly:
    if f.is_zero() or g.is_zero():
        raise InputError("S-polynomial of a zero polynomial")
    ring = f.ring
    fe, ge = f.leading_exp(), g.leading_exp()
    lcm = _lcm(ring, fe, ge)
    mf = f * Poly(ring, {lcm - fe: ring.field.inv(f.terms[fe])})
    mg = g * Poly(ring, {lcm - ge: ring.field.inv(g.terms[ge])})
    return mf - mg


def _reduce_terms(terms: dict, basis: Sequence[tuple], ring: PolynomialRing) -> dict:
    """Full normal form of a term dict against [(lm, lc, terms)] divisors.

    Divisors are tried in list order (callers keep them ascending by leading
    monomial, which fixes the divisor selection deterministically).
    """
    field = ring.field
    guard = ring.guard
    work = dict(terms)
    remainder: dict = {}
    while work:
        e = max(work)
        c = work.pop(e)
        for lm, lc, bt in basis:
            shift = e - lm
            if not shift & guard:
                break
        else:
            remainder[e] = c
            continue
        coeff = field.div(c, lc)
        for be, bc in bt.items():
            if be == lm:
                continue
            ne = shift + be
            if ne & guard:
                raise overflow_error()
            nv = field.sub(work.get(ne, field.zero), field.mul(coeff, bc))
            if field.is_zero(nv):
                work.pop(ne, None)
            else:
                work[ne] = nv
    return remainder


def _divisors(leading: Iterable[tuple]) -> list[tuple]:
    """The (lm, lc, terms) divisors of _reduce_terms, ascending by leading
    monomial, from (leading monomial, polynomial) pairs."""
    divisors = [(lm, p.terms[lm], p.terms) for lm, p in leading]
    divisors.sort(key=lambda t: t[0])
    return divisors


def _divisors_in(basis: Iterable[Poly], ring: PolynomialRing) -> list[tuple]:
    """The divisor list of _reduce_terms for the nonzero elements of basis,
    which must lie in ring."""
    if isinstance(basis, GroebnerBasis) and basis.ring.order != ring.order:
        raise InputError(f"normal form needs a Groebner basis in {ring.order!r}")
    leading = []
    for g in basis:
        if g.is_zero():
            continue
        if g.ring != ring:
            raise RingMismatch("normal form across rings")
        leading.append((g.leading_exp(), g))
    return _divisors(leading)


def normal_form(f: Poly, basis: Iterable[Poly]) -> Poly:
    """Unique remainder of f modulo a (Groebner) basis, in f's ring order.

    For a non-Groebner divisor set the result still uses the deterministic
    first-divisor-in-order selection, so it is reproducible.  A
    GroebnerBasis in another order is refused: its remainder in this order
    is not a normal form.
    """
    divisors = _divisors_in(basis, f.ring)
    return Poly(f.ring, _reduce_terms(f.terms, divisors, f.ring))


def buchberger(ideal: Ideal) -> GroebnerBasis:
    """Reduced Groebner basis in the ring's order by Buchberger's algorithm.

    Normal pair-selection strategy; the coprime and chain criteria prune
    pairs; single-term pairs are skipped outright (their S-polynomials
    vanish identically).  Raises DegreeBudgetExceeded after more pair
    reductions than the current budget's pair_reductions.
    """
    limit = current_budget().pair_reductions
    ring = ideal.ring
    guard = ring.guard
    if not ideal.gens:
        return GroebnerBasis(ring, ())

    # poly_sort_key starts with the leading monomial
    seed = sorted((g.monic() for g in ideal.gens), key=poly_sort_key)

    basis: list[Poly] = []  # monic
    lms: list[int] = []

    # seed with inter-reduction: keeps the pair queue small
    for g in seed:
        r = _reduce_terms(g.terms, _divisors(zip(lms, basis)), ring)
        if r:
            p = Poly(ring, r).monic()
            basis.append(p)
            lms.append(p.leading_exp())

    heap: list[tuple] = []
    done: set[frozenset] = set()

    def push_pairs(j: int):
        for i in range(j):
            heapq.heappush(heap, (_lcm(ring, lms[i], lms[j]), i, j))

    for j in range(len(basis)):
        push_pairs(j)

    reductions = 0
    while heap:
        lcm, i, j = heapq.heappop(heap)
        pk = frozenset((i, j))
        if pk in done:
            continue
        done.add(pk)
        # coprime criterion
        if lcm == lms[i] + lms[j]:
            continue
        # chain criterion: lm_k divides the lcm
        skip = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if (
                not (lcm - lms[k]) & guard
                and frozenset((i, k)) in done
                and frozenset((j, k)) in done
            ):
                skip = True
                break
        if skip:
            continue
        if len(basis[i].terms) == 1 and len(basis[j].terms) == 1:
            continue
        reductions += 1
        if reductions > limit:
            raise DegreeBudgetExceeded(f"Buchberger exceeded {limit} pair reductions")
        s = s_polynomial(basis[i], basis[j])
        r = _reduce_terms(s.terms, _divisors(zip(lms, basis)), ring)
        if not r:
            continue
        p = Poly(ring, r).monic()
        basis.append(p)
        lms.append(p.leading_exp())
        push_pairs(len(basis) - 1)

    # minimalize: drop any element whose leading monomial another one divides
    kept: list[int] = []
    for i in sorted(range(len(basis)), key=lms.__getitem__):
        if all((lms[i] - lms[k]) & guard for k in kept):
            kept.append(i)
    # fully reduce tails against the other kept elements
    final: list[Poly] = []
    for i in kept:
        others = _divisors((lms[k], basis[k]) for k in kept if k != i)
        r = _reduce_terms(basis[i].terms, others, ring)
        if r:
            final.append(Poly(ring, r).monic())
    final.sort(key=Poly.leading_exp)
    return GroebnerBasis(ring, final)


# -- inequations -----------------------------------------------------------


def sorted_unique(polys: Iterable[Poly]) -> list[Poly]:
    """The polynomials ascending by poly_sort_key, each once."""
    by_key = {poly_sort_key(p): p for p in polys}
    return [by_key[k] for k in sorted(by_key)]


def _divide_out(u: Poly, lead: Sequence[tuple]) -> Poly:
    """u divided by the first divisor that divides it exactly, repeatedly.

    The divisors come as (leading monomial, non-constant polynomial) pairs,
    tried in the given order.  Only those whose leading monomial divides
    lm(u) are tried, since every exact divisor's does.  Stops when u is a
    scalar or no divisor divides it.
    """
    guard = u.ring.guard
    while not u.is_constant():
        lm = u.leading_exp()
        for vlm, v in lead:
            if not (lm - vlm) & guard:
                q = exact_divide(u, v)
                if q is not None:
                    u = q
                    break
        else:
            break
    return u


def reduce_inequations(
    ineqs: Iterable[Poly], gb_elements: Sequence[Poly]
) -> Optional[tuple]:
    """Inequations as semigroup generators of the same localization.

    Each is put in normal form modulo the Groebner basis elements (one
    divisor list for all of them), made monic, and dropped if scalar; the
    rest are sorted and deduplicated.  Then, smallest first, each is divided
    by the smaller ones that divide it; a quotient that sorts below earlier
    survivors sends those back to be divided again, and one that becomes
    scalar is dropped.  Returns None when an inequation lies in the ideal:
    inverting it leaves nothing.
    """
    ineqs = list(ineqs)
    if not ineqs:
        return ()
    ring = ineqs[0].ring
    divisors = _divisors_in(gb_elements, ring)
    reduced = []
    for u in ineqs:
        if u.ring != ring:
            raise RingMismatch("inequations over different rings")
        r = u
        if divisors:
            r = Poly(ring, _reduce_terms(u.terms, divisors, ring))
        if r.is_zero():
            return None
        if not r.is_constant():
            reduced.append(r.monic())
    pending = sorted_unique(reduced)
    done: list[Poly] = []
    keys: list = []
    lead: list[tuple] = []  # (leading monomial, u) for each u in done
    while pending:
        u = _divide_out(pending.pop(0), lead)
        if u.is_constant():
            continue
        k = poly_sort_key(u)
        pos = bisect_left(keys, k)
        pending[:0] = done[pos:]
        del done[pos:], keys[pos:], lead[pos:]
        done.append(u)
        keys.append(k)
        lead.append((u.leading_exp(), u))
    return tuple(done)


# -- saturation ------------------------------------------------------------

_AUX_NAME = "_t"


def _extended_ring(ring: PolynomialRing) -> PolynomialRing:
    """The ring with the auxiliary variable t first, eliminated first."""
    if ring.order != DEGREVLEX:
        raise InputError("saturation needs a degrevlex ring")
    if _AUX_NAME in ring.names:
        raise InputError(f"ring already uses the reserved name {_AUX_NAME}")
    return PolynomialRing(ring.field, (_AUX_NAME,) + ring.names, ELIMINATE_FIRST)


def _embed(p: Poly, ring2: PolynomialRing) -> Poly:
    exponents = p.ring.exponents
    return Poly(ring2, {ring2.monomial((0,) + exponents(e)): c for e, c in p.terms.items()})


def _project(p: Poly, ring: PolynomialRing) -> Optional[Poly]:
    out = {}
    for e, c in p.terms.items():
        t, *exps = p.ring.exponents(e)
        if t:
            return None
        out[ring.monomial(exps)] = c
    return Poly(ring, out)


def _saturate_by_one(gens: Sequence[Poly], u: Poly) -> list[Poly]:
    """The reduced degrevlex basis of (gens) : u^inf, by the Rabinowitsch
    trick: the t-free elements of the reduced ELIMINATE_FIRST basis of
    (gens, t*u - 1), in their order there."""
    ring = u.ring
    ring2 = _extended_ring(ring)
    t = ring2.var(0)
    ext = [_embed(g, ring2) for g in gens]
    ext.append(t * _embed(u, ring2) - ring2.one())
    gb = buchberger(Ideal(ring2, ext))
    out = []
    for g in gb:
        p = _project(g, ring)
        if p is not None:
            out.append(p)
    return out


def saturate(ideal: Ideal, inequations: Sequence[Poly]) -> Ideal:
    """The saturation I : u^inf for u the product of the inequations, as its
    reduced degrevlex basis.

    The zero ideal is its own saturation, since the polynomial ring is a
    domain, unless an inequation is zero; that is decided before any
    inequation is reduced.  Otherwise the inequations are first simplified
    by reduce_inequations modulo a Groebner basis of I; if one lies in I the
    saturation is the unit ideal outright.  Then I is saturated by one
    factor at a time, in that order: I : (uv)^inf = (I : u^inf) : v^inf,
    and each Rabinowitsch run carries one small factor where the product's
    terms and degree grow with every factor (1,940 terms in degree 20 for
    pappus unsimplified).  A unit in any step's result makes the saturation
    the unit ideal.  The last
    step's result is returned as it stands: the t-free part of a reduced
    elimination basis is the reduced basis of the eliminated ideal in the
    restricted order (Cox-Little-O'Shea, Ideals, Varieties, and Algorithms,
    Ch. 3 Sec. 1), so a closing Buchberger run would return it unchanged.
    The pair_reductions budget caps each Buchberger run, so a saturation by
    k factors may spend up to k + 1 times that limit.
    """
    ring = ideal.ring
    gb = buchberger(ideal)
    if gb.contains_one():
        return Ideal(ring, (ring.one(),))
    if any(u.ring != ring for u in inequations):
        raise RingMismatch("inequation over the wrong ring")
    if not gb.elements:
        # I = 0 in a domain: 0 : u^inf is 0, unless u is 0 itself
        if any(u.is_zero() for u in inequations):
            return Ideal(ring, (ring.one(),))
        return Ideal(ring, ())
    factors = reduce_inequations(inequations, gb.elements)
    if factors is None:
        # some u lies in I, so 1 * u^1 is in I and the saturation is everything
        return Ideal(ring, (ring.one(),))
    if not factors:
        return Ideal(ring, gb.elements)
    result = gb.elements
    for f in factors:
        result = _saturate_by_one(result, f)
        if has_unit(result):
            return Ideal(ring, (ring.one(),))
    return Ideal(ring, result)


# -- linear-variable elimination ------------------------------------------


@dataclass(frozen=True)
class Substitution:
    """One elimination step: variable = numerator / denominator.

    The denominator is the unit coefficient that was in front of the
    variable (the constant 1 polynomial for plain scalar eliminations).
    """

    var: int
    numerator: Poly
    denominator: Poly


@dataclass
class EliminationResult:
    substitutions: tuple
    generators: tuple
    inequations: tuple


def _split_linear(g: Poly, x: int) -> tuple[Poly, Poly]:
    """g = c*x + rest with deg_x(g) == 1; returns (c, rest), both x-free."""
    layers = g.coefficients_in(x)
    if not layers.keys() <= {0, 1}:
        raise InputError("not linear in the chosen variable")
    zero = g.ring.zero()
    return layers.get(1, zero), layers.get(0, zero)


def _substitute_cleared(h: Poly, x: int, num: Poly, den: Poly) -> Poly:
    """h with x -> num/den, multiplied through by den^deg_x(h)."""
    layers = h.coefficients_in(x)
    d = max(layers, default=0)
    if d == 0:
        return h
    acc = h.ring.zero()
    for k, c in layers.items():
        acc = acc + c * num**k * den ** (d - k)
    return acc


def _next_substitution(gens: Sequence[Poly], ineqs: Sequence[Poly]) -> Optional[Substitution]:
    """The next step of eliminate_linear_variables, or None when no variable
    has a usable generator."""
    if not gens:
        return None
    ring = gens[0].ring
    lead = None
    for x in reversed(range(ring.nvars)):
        linear = [(g, *_split_linear(g, x)) for g in gens if g.degree_in(x) == 1]
        if not any(c.is_constant() for _, c, _ in linear):
            if lead is None:
                lead = [(u.leading_exp(), u) for u in ineqs if not u.is_constant()]
            linear = [t for t in linear if _divide_out(t[1], lead).is_constant()]
        if linear:
            _, c, rest = min(
                linear, key=lambda t: (not t[1].is_constant(), poly_sort_key(t[0]))
            )
            if c.is_constant():
                inverse = ring.field.inv(c.constant_value())
                return Substitution(x, (-rest).scale(inverse), ring.one())
            return Substitution(x, -rest, c)
    return None


def eliminate_linear_variables(
    generators: Sequence[Poly], inequations: Sequence[Poly]
) -> EliminationResult:
    """Repeatedly eliminate variables with unit linear coefficient.

    A generator c*x + g is usable when c is a nonzero scalar or a unit of
    the localization: a scalar times a product of current inequations, as
    _divide_out finds it.  Each step scans the variables from the last and
    eliminates the first one with a usable generator.  Among its generators
    a scalar c beats a unit one, and then the first by poly_sort_key wins.
    Whether a non-scalar c is a unit is tested only for a variable that has
    no scalar coefficient.  Substitutions are recorded as x = num/den and
    denominators are cleared through every polynomial by multiplying with
    the matching unit power, so the presented localized quotient is
    unchanged.
    """
    gens = [g for g in generators if not g.is_zero()]
    ineqs = list(inequations)
    subs: list[Substitution] = []
    while True:
        s = _next_substitution(gens, ineqs)
        if s is None:
            break
        subs.append(s)
        cleared = [_substitute_cleared(g, s.var, s.numerator, s.denominator) for g in gens]
        gens = [g for g in cleared if not g.is_zero()]
        ineqs = [_substitute_cleared(u, s.var, s.numerator, s.denominator) for u in ineqs]
    return EliminationResult(tuple(subs), tuple(gens), tuple(ineqs))
