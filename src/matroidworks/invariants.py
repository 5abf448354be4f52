"""Tutte, characteristic, and chromatic polynomials; log-concavity; Ingleton.

The polynomials are Poly over Q: the Tutte polynomial in Q[x, y], the
others in Q[q], both degrevlex, so they print through poly_str like every
other polynomial.  Their coefficients are integers, and
coefficients_descending reads them off as ints.  The Tutte polynomial comes
from the corank-nullity subset sum up to n = 20 (SUBSET_RANK_LIMIT) and
falls back to deletion-contraction above that.  The subset sum counts the
(rank, size) cells of the matroid's cached subset-rank table
(``matroid.subset_rank_table``) and expands each term once per cell.  The
characteristic polynomial is the specialization chi(q) = (-1)^r T(1-q, 0);
the tests check it against the direct signed subset sum.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import comb
from typing import Iterable, Optional, Sequence, Union

from .errors import (
    InputError,
    LoopPresent,
    NonzeroRemainder,
    SearchBudgetExceeded,
    current_budget,
)
from .fields import rationals
from .matroid import (
    SUBSET_RANK_LIMIT,
    Matroid,
    SubsetFamily,
    _component_count,
    _popcounts,
    mask_elements,
    matroid_from_graph,
)
from .polynomials import Poly, PolynomialRing, exact_divide

_XY = PolynomialRing(rationals(), ("x", "y"))  # the Tutte polynomials
_Q = PolynomialRing(rationals(), ("q",))  # the others
_X, _Y = _XY.gens()
(_QVAR,) = _Q.gens()


def coefficients_descending(p: Poly) -> tuple[int, ...]:
    """The integer coefficients of a polynomial in one variable, highest
    degree first; () for the zero polynomial."""
    out = [0] * (p.degree_in(0) + 1)
    for e, c in p.terms.items():
        if c.denominator != 1:
            raise InputError(f"coefficient {c} is not an integer")
        out[-1 - p.ring.exponents(e)[0]] = c.numerator
    return tuple(out)


def _tutte_subset_sum(m: Matroid) -> Poly:
    """Sum of (x-1)^(r - r(S)) (y-1)^(|S| - r(S)) over all subsets S.

    The term depends only on (r(S), |S|), so subsets are first counted per
    cell, from the matroid's subset-rank table, and each cell's product is
    expanded once, by the binomial theorem.
    """
    r = m.rank
    hist = Counter(zip(m._rank_table(), _popcounts(m.n)))
    x, y = _X.leading_exp(), _Y.leading_exp()
    acc: dict = {}
    for (rs, size), count in hist.items():
        a, b = r - rs, size - rs
        for i in range(a + 1):
            xa = count * comb(a, i) * (-1) ** (a - i)
            for j in range(b + 1):
                key = i * x + j * y  # the packed monomial x^i y^j
                acc[key] = acc.get(key, 0) + xa * comb(b, j) * (-1) ** (b - j)
    return Poly(_XY, {e: Fraction(c) for e, c in acc.items() if c})


def _tutte_deletion_contraction(m: Matroid, memo: dict) -> Poly:
    key = (m.n, m.bases)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if m.n == 0:
        out = _XY.one()
    else:
        loops = set(m.loops())
        e = 1
        if e in loops:
            out = _tutte_deletion_contraction(m.delete((e,)), memo) * _Y
        elif all(b & 1 for b in m.bases):  # coloop
            out = _tutte_deletion_contraction(m.contract((e,)), memo) * _X
        else:
            out = _tutte_deletion_contraction(
                m.delete((e,)), memo
            ) + _tutte_deletion_contraction(m.contract((e,)), memo)
    memo[key] = out
    return out


def tutte_polynomial(m: Matroid) -> Poly:
    if m.n <= SUBSET_RANK_LIMIT:
        return _tutte_subset_sum(m)
    return _tutte_deletion_contraction(m, {})


def characteristic_polynomial(m: Matroid) -> Poly:
    """chi(q) = (-1)^rk T(1-q, 0), expanded by the binomial theorem from
    the y-free terms c x^i of T."""
    sign = -1 if m.rank % 2 else 1
    acc: dict = {}
    for e, c in tutte_polynomial(m).terms.items():
        i, j = _XY.exponents(e)
        if not j:  # T has integer coefficients: sum them as ints
            for k in range(i + 1):
                acc[k] = acc.get(k, 0) + sign * c.numerator * comb(i, k) * (-1) ** k
    q = _QVAR.leading_exp()
    return Poly(_Q, {k * q: Fraction(c) for k, c in acc.items() if c})


def reduced_characteristic_polynomial(m: Matroid) -> Poly:
    """chi(q) / (q - 1)."""
    if m.loops():
        raise LoopPresent("reduced characteristic polynomial needs a loop-free matroid")
    red = exact_divide(characteristic_polynomial(m), _QVAR - _Q.one())
    if red is None:
        raise NonzeroRemainder("q - 1 does not divide the characteristic polynomial")
    return red


def chromatic_polynomial(
    edges: Sequence[tuple[int, int]], num_vertices: Optional[int] = None
) -> Poly:
    """q^c * chi of the cycle matroid, the proper-coloring count.

    Vertices are the edge endpoints plus 1..num_vertices when given (the
    only way to express isolated vertices).  Simple graphs only.
    """
    seen = set()
    for u, v in edges:
        if u == v:
            raise InputError(f"self-loop at vertex {u}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise InputError(f"parallel edge {key}")
        seen.add(key)
    verts = {x for uv in edges for x in uv}
    if num_vertices is not None:
        if verts and max(verts) > num_vertices:
            raise InputError("edge endpoint exceeds the declared vertex count")
        verts |= set(range(1, num_vertices + 1))
    c = _component_count(verts, edges)
    return characteristic_polynomial(matroid_from_graph(edges)) * _QVAR**c


def is_log_concave(p: Union[Poly, Iterable[int]]) -> bool:
    """w_j^2 >= w_{j-1} * w_{j+1} on absolute values, interior j only."""
    if isinstance(p, Poly):
        p = coefficients_descending(p)
    seq = [abs(int(c)) for c in p]
    return all(
        seq[j] * seq[j] >= seq[j - 1] * seq[j + 1]
        for j in range(1, len(seq) - 1)
    )


def _ingleton_holds(rk, a, b, c, d) -> bool:
    lhs = rk[a] + rk[b] + rk[a | b | c] + rk[a | b | d] + rk[c | d]
    rhs = rk[a | b] + rk[a | c] + rk[a | d] + rk[b | c] + rk[b | d]
    return lhs <= rhs


def ingleton_violation(m: Matroid, exhaustive: bool = False):
    """A quadruple (A,B,C,D) violating Ingleton's inequality, or None.

    The default family is ordered quadruples of pairwise-disjoint nonempty
    subsets of size at most 2, which suffices for the Vamos witness; the
    exhaustive mode ranges over all nonempty subset quadruples and is meant
    for small ground sets.  A violation certifies non-realizability over
    every field.  The witness is the first violator in lexicographic order
    of (A, B, C, D) over the subset pool.

    The search is pruned (see below); the current budget's
    ingleton_quadruples (errors.budget) caps the quadruples that survive the
    pruning and reach the full inequality check, so a matroid whose pruning
    leaves nothing to check passes under any budget.
    """
    limit = current_budget().ingleton_quadruples

    class _Ranks(dict):
        def __missing__(self, mask):
            r = m.rank_of(mask)
            self[mask] = r
            return r

    rk = _Ranks()

    def mutual(a, b, c=0):
        """I(A;B|C) = r(A+C) + r(B+C) - r(A+B+C) - r(C), >= 0 by submodularity."""
        return rk[a | c] + rk[b | c] - rk[a | b | c] - rk[c]

    full = (1 << m.n) - 1
    if exhaustive:
        pool = list(range(1, full + 1))
    else:
        pool = [1 << i for i in range(m.n)]
        pool += [
            (1 << i) | (1 << j)
            for i in range(m.n)
            for j in range(i + 1, m.n)
        ]
        pool = list(SubsetFamily(m.n, pool))
    # Ingleton's inequality reads I(A;B) <= I(A;B|C) + I(A;B|D) + I(C;D),
    # every term nonnegative.  Three cuts follow, none of which can skip
    # the first violator:
    # (a) The inequality is symmetric under A<->B and under C<->D, so the
    #     lexicographically first violator has A before B and C before D in
    #     pool order.  A = B or C = D never violates (both reduce to
    #     submodularity); only exhaustive mode, where parts may overlap,
    #     meets those cases.
    # (b) When I(A;B) = 0 the left side is 0 and no C, D can violate.
    # (c) A violation needs I(A;B|C) < I(A;B) and I(A;B|D) < I(A;B), so C
    #     and D both come from the candidates passing that test.
    checked = 0
    for i, a in enumerate(pool):
        for b in pool[i + 1:]:
            if not exhaustive and a & b:
                continue
            gap = mutual(a, b)
            if gap == 0:
                continue
            ab = a | b
            cands = [
                c
                for c in pool
                if (exhaustive or not ab & c) and mutual(a, b, c) < gap
            ]
            for k, c in enumerate(cands):
                for d in cands[k + 1:]:
                    if not exhaustive and c & d:
                        continue
                    checked += 1
                    if checked > limit:
                        raise SearchBudgetExceeded(
                            f"Ingleton search passed {limit} quadruples"
                        )
                    if not _ingleton_holds(rk, a, b, c, d):
                        return (
                            mask_elements(a),
                            mask_elements(b),
                            mask_elements(c),
                            mask_elements(d),
                        )
    return None
