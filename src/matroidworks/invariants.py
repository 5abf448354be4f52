"""Tutte, characteristic, and chromatic polynomials; log-concavity; Ingleton.

All coefficients are plain Python integers.  The Tutte polynomial comes
from the corank-nullity subset sum up to n = 20 (SUBSET_RANK_LIMIT) and
falls back to deletion-contraction above that.  The subset sum counts the
(rank, size) cells of the matroid's cached subset-rank table
(``matroid.subset_rank_table``) and expands each term once per cell.  The
characteristic polynomial is the specialization chi(q) = (-1)^r T(1-q, 0);
the tests check it against the direct signed subset sum.  UniPoly and
BiPoly print through polynomials.render_terms, the text form that the
realization polynomials share.
"""

from __future__ import annotations

from collections import Counter
from math import comb
from typing import Iterable, Optional, Sequence, Union

from .errors import (
    InputError,
    LoopPresent,
    NonzeroRemainder,
    SearchBudgetExceeded,
    current_budget,
)
from .matroid import (
    SUBSET_RANK_LIMIT,
    Matroid,
    SubsetFamily,
    _component_count,
    _popcounts,
    mask_elements,
    matroid_from_graph,
)
from .polynomials import render_terms


class UniPoly:
    """Univariate integer polynomial, dense ascending coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def coefficients_descending(self) -> tuple[int, ...]:
        return tuple(reversed(self.coeffs))

    def __eq__(self, other) -> bool:
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "UniPoly") -> "UniPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(
            self.coefficient(k) + other.coefficient(k) for k in range(n)
        )

    def __neg__(self) -> "UniPoly":
        return UniPoly(-c for c in self.coeffs)

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        if self.is_zero() or other.is_zero():
            return UniPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return UniPoly(out)

    def __pow__(self, k: int) -> "UniPoly":
        if k < 0:
            raise InputError("negative polynomial power")
        acc = UniPoly((1,))
        for _ in range(k):
            acc = acc * self
        return acc

    def scale(self, c: int) -> "UniPoly":
        return UniPoly(c * a for a in self.coeffs)

    def evaluate(self, q):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * q + c
        return acc

    def divide_exact(self, other: "UniPoly") -> "UniPoly":
        """Exact quotient; NonzeroRemainder when the division does not come
        out even (integer long division, leading coefficient must divide)."""
        if other.is_zero():
            raise InputError("division by the zero polynomial")
        rem = list(self.coeffs)
        d = other.degree
        lead = other.coeffs[-1]
        if len(rem) - 1 < d:
            if self.is_zero():
                return UniPoly()
            raise NonzeroRemainder("quotient degree underflow")
        out = [0] * (len(rem) - d)
        for k in range(len(out) - 1, -1, -1):
            c = rem[k + d]
            if c % lead:
                raise NonzeroRemainder(f"leading term left remainder {c} / {lead}")
            f = c // lead
            out[k] = f
            for j, b in enumerate(other.coeffs):
                rem[k + j] -= f * b
        if any(rem):
            raise NonzeroRemainder(f"remainder {UniPoly(rem)!r}")
        return UniPoly(out)

    def render(self, var: str = "q") -> str:
        return render_terms(
            (str(c), () if k == 0 else (var if k == 1 else f"{var}^{k}",))
            for k, c in reversed(list(enumerate(self.coeffs)))
            if c
        )

    def __repr__(self) -> str:
        return f"UniPoly({self.render()})"


class BiPoly:
    """Bivariate integer polynomial, terms keyed by (x-degree, y-degree)."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {k: v for k, v in dict(terms or {}).items() if v}

    def coefficient(self, i: int, j: int) -> int:
        return self.terms.get((i, j), 0)

    def __eq__(self, other) -> bool:
        return isinstance(other, BiPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "BiPoly") -> "BiPoly":
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + v
        return BiPoly(out)

    def evaluate(self, x, y):
        acc = 0
        for (i, j), c in self.terms.items():
            acc += c * x**i * y**j
        return acc

    def specialize(self, x_poly: UniPoly, y_poly: UniPoly) -> UniPoly:
        acc = UniPoly()
        for (i, j), c in sorted(self.terms.items()):
            acc = acc + (x_poly**i * y_poly**j).scale(c)
        return acc

    def render(self) -> str:
        by_degree = sorted(self.terms.items(), key=lambda t: (-sum(t[0]), -t[0][0]))
        return render_terms(
            (str(c), [v if k == 1 else f"{v}^{k}" for v, k in (("x", i), ("y", j)) if k])
            for (i, j), c in by_degree
        )

    def __repr__(self) -> str:
        return f"BiPoly({self.render()})"


def _tutte_subset_sum(m: Matroid) -> BiPoly:
    """Sum of (x-1)^(r - r(S)) (y-1)^(|S| - r(S)) over all subsets S.

    The term depends only on (r(S), |S|), so subsets are first counted per
    cell, from the matroid's subset-rank table, and each cell's product is
    expanded once, by the binomial theorem.
    """
    r = m.rank
    hist = Counter(zip(m._rank_table(), _popcounts(m.n)))
    acc: dict = {}
    for (rs, size), count in hist.items():
        a, b = r - rs, size - rs
        for i in range(a + 1):
            xa = count * comb(a, i) * (-1) ** (a - i)
            for j in range(b + 1):
                key = (i, j)
                acc[key] = acc.get(key, 0) + xa * comb(b, j) * (-1) ** (b - j)
    return BiPoly(acc)


def _tutte_deletion_contraction(m: Matroid, memo: dict) -> BiPoly:
    key = (m.n, m.bases)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if m.n == 0:
        out = BiPoly({(0, 0): 1})
    else:
        loops = set(m.loops())
        e = 1
        if e in loops:
            sub = _tutte_deletion_contraction(m.delete((e,)), memo)
            out = BiPoly({(i, j + 1): c for (i, j), c in sub.terms.items()})
        elif all(b & 1 for b in m.bases):  # coloop
            sub = _tutte_deletion_contraction(m.contract((e,)), memo)
            out = BiPoly({(i + 1, j): c for (i, j), c in sub.terms.items()})
        else:
            out = _tutte_deletion_contraction(
                m.delete((e,)), memo
            ) + _tutte_deletion_contraction(m.contract((e,)), memo)
    memo[key] = out
    return out


def tutte_polynomial(m: Matroid) -> BiPoly:
    if m.n <= SUBSET_RANK_LIMIT:
        return _tutte_subset_sum(m)
    return _tutte_deletion_contraction(m, {})


def characteristic_polynomial(m: Matroid) -> UniPoly:
    """chi(q) = (-1)^rk T(1-q, 0)."""
    chi = tutte_polynomial(m).specialize(UniPoly((1, -1)), UniPoly())
    return -chi if m.rank % 2 else chi


def reduced_characteristic_polynomial(m: Matroid) -> UniPoly:
    if m.loops():
        raise LoopPresent("reduced characteristic polynomial needs a loop-free matroid")
    chi = characteristic_polynomial(m)
    return chi.divide_exact(UniPoly((-1, 1)))


def chromatic_polynomial(
    edges: Sequence[tuple[int, int]], num_vertices: Optional[int] = None
) -> UniPoly:
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
    chi = characteristic_polynomial(matroid_from_graph(edges))
    return chi * UniPoly([0] * c + [1])


def is_log_concave(p: Union[UniPoly, Iterable[int]]) -> bool:
    """w_j^2 >= w_{j-1} * w_{j+1} on absolute values, interior j only."""
    if isinstance(p, UniPoly):
        seq = [abs(c) for c in p.coeffs]
    else:
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
