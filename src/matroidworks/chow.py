"""Chow rings of loop-free matroids and the Kaehler-package checks.

A(M) = Q[x_F | F a nonempty proper flat]/(I + J): I kills products of
incomparable flats, J imposes the n-1 linear relations anchored at
element 1.

Every number is read off the lattice of flats; nothing is eliminated.

* Graded dimensions count the Feichtner-Yuzvinsky basis (Invent. Math.
  155, 2004) in one pass over the flats in rank order.
* The degree map deg: A^{r-1} -> Q, normalized so every complete flag
  monomial has degree 1, takes any alpha^p beta^q prod x_F^a over a chain
  of flats apart on the intervals of the chain (Adiprasito-Huh-Katz, Ann.
  Math. 188, 2018, section 6).
* The basis of each graded piece is the degrevlex standard monomials of
  I + J.  A chain monomial is standard exactly when its class is not a
  combination of smaller monomials, and by Poincare duality its degrees
  against the FY monomials of the complementary degree decide that.  Only
  FY monomials whose highest flat is comparable with every flat of the
  chain pair with it, and the standard monomials are an order ideal, so
  from degree 2 on only flats whose x_F is standard are scanned.
* Elements are coordinates over the standard monomials.  A degree-1
  element sum c_F x_F and a product of elements are both reduced through
  the pairings: their degrees against the FY monomials of the
  complementary degree are solved against those of the basis.

alpha and beta are the degree-1 classes whose mixed volumes give the
reduced characteristic polynomial, and kahler_report packages Poincare
duality, hard Lefschetz, and the Hodge-Riemann form for one (k, ell) at
a time, all from degrees of monomial products; powers of ell = a alpha +
b beta come straight from the degree map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import (
    InputError,
    LoopPresent,
    MatroidworksError,
    WrongDegree,
)
from .fields import rationals
from .groebner import buchberger  # noqa: F401  (a boundary of mwbench/tracing.py)
from .linalg import ExactMatrix, _add_row, _solve
from .matroid import Matroid, mask_elements, mask_of

_Q = rationals()
_ZERO = Fraction(0)
_ONE = Fraction(1)


def _fy_dimensions(levels) -> tuple[int, ...]:
    """dim A^d for d = 0..r-1, counted on the Feichtner-Yuzvinsky basis.

    levels[k] holds the rank-k flats.  g(F) is the Hilbert function of
    the FY monomials whose chain ends at F: g(empty) = 1 and g(F) =
    sum_{G < F} g(G)(t + ... + t^{rk F - rk G - 1}).  The Hilbert function
    of A(M) is the sum of g(F) over all flats, the empty flat and the
    ground set included.
    """
    r = len(levels) - 1
    g = {0: [1] + [0] * (r - 1)}
    total = list(g[0])
    for rho in range(2, r + 1):
        for f in levels[rho]:
            acc = [0] * r
            # rank-1 flats have g = 0, so ranks 0 and 2..rho-2 contribute
            for k in (0, *range(2, rho - 1)):
                below = [0] * r
                for h in levels[k]:
                    if h & f == h:
                        below = [a + b for a, b in zip(below, g[h])]
                for d, c in enumerate(below):
                    if c:
                        for e in range(d + 1, d + rho - k):
                            acc[e] += c
            g[f] = acc
            total = [a + b for a, b in zip(total, acc)]
    return tuple(total)


class ChowRing:
    """Graded data of A(M); built through :func:`chow_ring`."""

    def __init__(self, m: Matroid, _token=None):
        if _token is not _BUILD_TOKEN:
            raise InputError("use chow_ring() to construct Chow rings")
        self.matroid = m
        # every flat, empty and ground set included, bucketed by rank
        self._levels = tuple(m.flats(k).masks for k in range(m.rank + 1))
        self._rank = {f: rho for rho, level in enumerate(self._levels) for f in level}
        self.flats = tuple(f for level in self._levels[1 : m.rank] for f in level)
        self.flat_index = {f: i for i, f in enumerate(self.flats)}
        self.top_degree = m.rank - 1
        self._dimensions = _fy_dimensions(self._levels)
        self._volumes: dict[tuple[int, int, int], int] = {}
        self._comp: Optional[list[int]] = None
        self._fy: dict[int, tuple] = {}
        self._fy_groups: dict[int, dict] = {}
        self._standard: dict[int, tuple] = {}
        self._standard_pairings: dict[int, list] = {}
        self._solvers: dict[int, dict] = {}

    def _comparability(self) -> list[int]:
        """Comparability bitmask over flat indices, per flat; built on first
        use, since the plain report never multiplies monomials."""
        if self._comp is None:
            self._comp = [
                sum(1 << j for j, g in enumerate(self.flats) if f & g in (f, g))
                for f in self.flats
            ]
        return self._comp

    def graded_dimension(self, d: int) -> int:
        if d < 0 or d > self.matroid.rank:
            raise WrongDegree(f"degree {d} outside 0..{self.matroid.rank}")
        return 0 if d == self.matroid.rank else self._dimensions[d]

    def graded_dimensions(self) -> tuple[int, ...]:
        return self._dimensions

    # -- degree map -------------------------------------------------------

    def _interval_volume(self, g: int, h: int, v: int) -> int:
        """deg(alpha^u beta^v) on the minor M|h/g, with u + v its top degree.

        With i the lowest element of h - g, deg(alpha^u) = 1 and deg(alpha^u
        beta^v) is the sum of deg(beta^{v-1}) on [g, K] over the flats K of
        rank rk g + v with g < K < h that miss i.  Memoised on (g, h, v).
        """
        if v == 0:
            return 1
        key = (g, h, v)
        hit = self._volumes.get(key)
        if hit is None:
            rest = h & ~g
            low = rest & -rest
            hit = sum(
                self._interval_volume(g, k, v - 1)
                for k in self._levels[self._rank[g] + v]
                if k & g == g and k & h == k and not k & low
            )
            self._volumes[key] = hit
        return hit

    def _degree(self, chain: tuple, p: int = 0, q: int = 0) -> int:
        """deg(alpha^p beta^q prod x_F^a) for a chain ((flat index, a), ...)
        of increasing flats, with total degree r - 1.

        On the intervals [F_j, F_{j+1}] of empty < F_1 < ... < E, alpha goes
        to the top interval and beta to the bottom one, and x_F^a is
        x_F (-alpha_{M|F} - beta_{M/F})^{a-1}.  Each interval has a fixed
        degree, so exactly one term of each binomial survives.
        """
        rank = self._rank
        lower, v, out = 0, q, 1
        for idx, a in chain:
            f = self.flats[idx]
            t = rank[f] - rank[lower] - 1 - v  # alpha exponent below f
            if not 0 <= t < a:
                return 0
            out *= self._interval_volume(lower, f, v) * math.comb(a - 1, t)
            if a % 2 == 0:
                out = -out
            lower, v = f, a - 1 - t
        top = self._levels[-1][0]
        if rank[top] - rank[lower] - 1 - v != p:
            return 0
        return out * self._interval_volume(lower, top, v)

    def _product(self, m1: tuple, m2: tuple) -> Optional[tuple]:
        """m1 * m2 for chain monomials, or None when it is not a chain."""
        comp = self._comparability()
        exps = dict(m1)
        for f, e in m2:
            for g in exps:
                if not comp[f] >> g & 1:
                    return None
            exps[f] = exps.get(f, 0) + e
        return tuple(sorted(exps.items()))

    # -- bases --------------------------------------------------------------

    def _fy_monomials(self, e: int) -> tuple:
        """The FY basis of A^e as (chain, p, support).

        x_{F_1}^{a_1} ... x_{F_k}^{a_k} over empty < F_1 < ... < F_k with
        1 <= a_i <= rk F_i - rk F_{i-1} - 1.  A top flat E has x_E = -alpha
        and is kept as alpha^p; the sign changes no span or kernel the
        basis is used for.
        """
        hit = self._fy.get(e)
        if hit is not None:
            return hit
        rank = self._rank
        top = self.matroid.rank
        out = []

        def extend(chain, supp, low, left):
            if not left:
                out.append((chain, 0, supp))
                return
            if left <= top - rank[low] - 1:
                out.append((chain, left, supp))
            for idx, f in enumerate(self.flats):
                gap = rank[f] - rank[low] - 1
                if gap >= 1 and f & low == low:
                    for a in range(1, min(gap, left) + 1):
                        extend(chain + ((idx, a),), supp | 1 << idx, f, left - a)

        extend((), 0, 0, e)
        if len(out) != self.graded_dimension(e):
            raise MatroidworksError(
                f"internal: {len(out)} FY monomials in degree {e}, "
                f"dimension {self.graded_dimension(e)}"
            )
        hit = self._fy[e] = tuple(out)
        return hit

    def _fy_by_top(self, e: int) -> dict:
        """The FY monomials of A^e as (s, chain, p, support), grouped by the
        index of their highest flat, -1 for alpha^p alone."""
        hit = self._fy_groups.get(e)
        if hit is None:
            hit = self._fy_groups[e] = {}
            for s, (chain, p, supp) in enumerate(self._fy_monomials(e)):
                hit.setdefault(supp.bit_length() - 1, []).append((s, chain, p, supp))
        return hit

    def _chain_monomials(self, d: int, usable):
        """Chain monomials of degree d on the flat indices in usable,
        smallest first in degrevlex.

        Degrevlex compares exponents from the last flat down, the larger
        exponent making the smaller monomial, so the highest flat and its
        exponent are chosen first, in descending order.
        """
        below = [
            [j for j in range(i - 1, -1, -1) if j in usable and self.flats[j] | f == f]
            for i, f in enumerate(self.flats)
        ]

        def extend(chain, options, left):
            if not left:
                yield chain
                return
            for f in options:
                for a in range(left, 0, -1):
                    yield from extend(((f, a),) + chain, below[f], left - a)

        return extend((), [i for i in reversed(range(len(below))) if i in usable], d)

    def _pairing(self, mono: tuple) -> dict[int, int]:
        """deg(mono * t) over the FY monomials t of complementary degree,
        as a sparse vector.  Only the groups of t whose highest flat is
        comparable with every flat of mono are walked."""
        comp = self._comparability()
        allowed = -1
        for f, _ in mono:
            allowed &= comp[f]
        groups = self._fy_by_top(self.top_degree - sum(e for _, e in mono))
        tops, rest = [-1], allowed if mono else (1 << len(self.flats)) - 1
        while rest:
            low = rest & -rest
            tops.append(low.bit_length() - 1)
            rest ^= low
        out = {}
        for top in tops:
            for s, chain, p, supp in groups.get(top, ()):
                if not supp & ~allowed:
                    v = self._degree(self._product(mono, chain), p)
                    if v:
                        out[s] = v
        return out

    def _basis(self, d: int) -> tuple:
        """Standard monomials of degree d, largest first.

        The chain monomials are scanned smallest first; one is standard
        when its pairing is independent of those of the smaller standard
        monomials.  The scan stops at the FY dimension.  Every divisor of a
        standard monomial is standard, so from degree 2 on it skips the
        flats whose x_F is not in the degree-1 basis.  Keeps the pairings
        of the basis for _solver.
        """
        hit = self._standard.get(d)
        if hit is not None:
            return hit
        dim = self.graded_dimension(d)
        usable = {m[0][0] for m in self._basis(1)} if d >= 2 else range(len(self.flats))
        rows: dict = {}
        kept = []
        if dim:
            for mono in self._chain_monomials(d, usable):
                vec = self._pairing(mono)
                if _add_row(rows, vec):
                    kept.append((mono, vec))
                    if len(kept) == dim:
                        break
            else:
                raise MatroidworksError(
                    f"internal: {len(kept)} standard monomials in degree {d}, "
                    f"FY dimension {dim}"
                )
        kept.reverse()
        self._standard_pairings[d] = [vec for _, vec in kept]
        hit = self._standard[d] = tuple(mono for mono, _ in kept)
        return hit

    def _solver(self, d: int) -> dict:
        """The pairings of the degree-d basis, labelled by basis index."""
        hit = self._solvers.get(d)
        if hit is None:
            hit = self._solvers[d] = {}
            self._basis(d)
            for i, vec in enumerate(self._standard_pairings[d]):
                _add_row(hit, vec, i)
        return hit

    def _element(self, d: int, pairing: dict, flat_coeffs=None) -> "ChowElement":
        """The element of A^d whose pairing vector is pairing."""
        coords = [_ZERO] * self.graded_dimension(d)
        for label, c in _solve(self._solver(d), pairing).items():
            coords[label] = c
        return ChowElement(self, d, coords, flat_coeffs)

    # -- elements ---------------------------------------------------------

    def zero(self, degree: int) -> "ChowElement":
        return ChowElement(
            self, degree, (_ZERO,) * self.graded_dimension(degree)
        )

    def one(self) -> "ChowElement":
        return ChowElement(self, 0, (_ONE,))

    def _flat_key(self, key) -> int:
        if isinstance(key, int):
            mask = key
        else:
            mask = mask_of(key, self.matroid.n)
        idx = self.flat_index.get(mask)
        if idx is None:
            if not 0 <= mask < 1 << self.matroid.n:
                raise InputError(f"mask {mask} outside ground set 1..{self.matroid.n}")
            raise InputError(
                f"{sorted(mask_elements(mask))} is not a nonempty proper flat"
            )
        return idx

    def _alpha_beta(self, flat_coeffs) -> Optional[tuple]:
        """(a, b) when sum c_F x_F is a alpha + b beta flat by flat: c_F = a
        on the flats that contain element 1 and b on the others.  None for
        any other coefficients, none at all, or a ring without flats."""
        pairs = list(zip(self.flats, flat_coeffs or ()))
        split = [{c for f, c in pairs if f & 1 == one} for one in (1, 0)]
        if any(len(values) != 1 for values in split):
            return None
        # integral values as ints keep the degrees in int arithmetic
        return tuple(c.numerator if c.denominator == 1 else c for (c,) in split)

    def element_from_flat_coeffs(self, coeffs) -> "ChowElement":
        """Degree-1 element Sum c_F x_F; keys are flat masks or element
        iterables, values ints or Fractions.  Coordinates are solved from the
        pairing, read off the degree map when the sum is a alpha + b beta
        and summed from those of the x_F otherwise.  Keeps the flat
        coefficients for the Lefschetz test and kahler_report."""
        by_idx: dict[int, Fraction] = {}
        for key, val in dict(coeffs).items():
            idx = self._flat_key(key)
            by_idx[idx] = by_idx.get(idx, _ZERO) + _Q.coerce(val)
        flat_vec = tuple(by_idx.get(i, _ZERO) for i in range(len(self.flats)))
        ab = self._alpha_beta(flat_vec)
        pairing: dict[int, Fraction] = {}
        if ab is None:
            for idx, c in by_idx.items():
                for s, v in self._pairing(((idx, 1),)).items():
                    pairing[s] = pairing.get(s, 0) + c * v
        else:
            a, b = ab
            for s, (chain, p, _) in enumerate(self._fy_monomials(self.top_degree - 1)):
                pairing[s] = a * self._degree(chain, p + 1) + b * self._degree(chain, p, 1)
        return self._element(1, pairing, flat_vec)


_BUILD_TOKEN = object()


def chow_ring(m: Matroid) -> ChowRing:
    if m.rank < 1:
        raise InputError("Chow ring needs rank at least 1")
    if m.loops():
        raise LoopPresent(f"loops {list(m.loops())} are not allowed")
    return ChowRing(m, _BUILD_TOKEN)


class ChowElement:
    """Homogeneous element in standard-monomial coordinates."""

    __slots__ = ("ring", "degree", "coords", "flat_coeffs")

    def __init__(self, ring: ChowRing, degree: int, coords, flat_coeffs=None):
        self.ring = ring
        self.degree = degree
        self.coords = tuple(c if type(c) is Fraction else _Q.coerce(c) for c in coords)
        if len(self.coords) != ring.graded_dimension(degree):
            raise WrongDegree(
                f"{len(self.coords)} coordinates for a dimension-"
                f"{ring.graded_dimension(degree)} component"
            )
        if flat_coeffs is not None:
            if degree != 1 or len(flat_coeffs) != len(ring.flats):
                raise InputError("flat coefficients need degree 1 and one value per flat")
            flat_coeffs = tuple(map(_Q.coerce, flat_coeffs))
        self.flat_coeffs = flat_coeffs

    def is_zero(self) -> bool:
        return all(not c for c in self.coords)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ChowElement)
            and self.ring is other.ring
            and self.degree == other.degree
            and self.coords == other.coords
        )

    def __add__(self, other: "ChowElement") -> "ChowElement":
        self._match(other)
        return ChowElement(
            self.ring,
            self.degree,
            tuple(a + b for a, b in zip(self.coords, other.coords)),
        )

    def __sub__(self, other: "ChowElement") -> "ChowElement":
        self._match(other)
        return ChowElement(
            self.ring,
            self.degree,
            tuple(a - b for a, b in zip(self.coords, other.coords)),
        )

    def __neg__(self) -> "ChowElement":
        return self.scale(-1)

    def scale(self, c) -> "ChowElement":
        c = _Q.coerce(c)
        return ChowElement(
            self.ring, self.degree, tuple(c * a for a in self.coords)
        )

    def _match(self, other):
        _same_ring(self.ring, other)
        if self.degree != other.degree:
            raise WrongDegree("degrees differ")

    def __mul__(self, other: "ChowElement") -> "ChowElement":
        """Coordinates solved from deg(self * other * t) over the FY
        monomials t of the complementary degree."""
        ring = self.ring
        _same_ring(ring, other)
        target = self.degree + other.degree
        if not ring.graded_dimension(target):
            return ChowElement(ring, target, ())
        theirs = [
            (mono, y) for mono, y in zip(ring._basis(other.degree), other.coords) if y
        ]
        pairing: dict[int, Fraction] = {}
        for mine, x in zip(ring._basis(self.degree), self.coords):
            for mono, y in theirs if x else ():
                mono = ring._product(mine, mono)
                if mono is not None:
                    for s, v in ring._pairing(mono).items():
                        pairing[s] = pairing.get(s, 0) + x * y * v
        return ring._element(target, pairing)

    def __pow__(self, k: int) -> "ChowElement":
        if k < 0:
            raise InputError("negative powers")
        acc = self.ring.one()
        for _ in range(k):
            acc = acc * self
        return acc

    def __repr__(self) -> str:
        return f"ChowElement(degree={self.degree}, coords={self.coords})"


def _same_ring(ring: ChowRing, element: ChowElement) -> None:
    if element.ring is not ring:
        raise InputError("elements of different Chow rings")


def alpha_element(ring: ChowRing) -> ChowElement:
    return ring.element_from_flat_coeffs(
        {f: 1 for f in ring.flats if f & 1}
    )


def beta_element(ring: ChowRing) -> ChowElement:
    return ring.element_from_flat_coeffs(
        {f: 1 for f in ring.flats if not f & 1}
    )


def volume_map(eta: ChowElement) -> Fraction:
    ring = eta.ring
    if eta.degree != ring.top_degree:
        raise WrongDegree(
            f"volume is defined in degree {ring.top_degree}, got {eta.degree}"
        )
    return eta.coords[0] * ring._degree(ring._basis(ring.top_degree)[0])


def is_lefschetz_element(ring: ChowRing, ell: ChowElement) -> bool:
    """Strict submodularity of the flat coefficients over incomparable
    pairs, with c = 0 on the empty flat and the full ground set."""
    _same_ring(ring, ell)
    if ell.degree != 1:
        raise WrongDegree("Lefschetz candidates live in degree 1")
    if ell.flat_coeffs is None:
        raise InputError("element carries no flat coefficients")
    m = ring.matroid
    flats = ring.flats
    coeffs = ell.flat_coeffs

    def c_of(mask: int) -> Fraction:
        idx = ring.flat_index.get(mask)
        return coeffs[idx] if idx is not None else _ZERO

    for i in range(len(flats)):
        fi = flats[i]
        for j in range(i + 1, len(flats)):
            fj = flats[j]
            inter = fi & fj
            if inter == fi or inter == fj:
                continue
            join = m.closure(fi | fj)
            if not coeffs[i] + coeffs[j] > c_of(inter) + c_of(join):
                return False
    return True


@dataclass(frozen=True)
class PairingReport:
    degree: int
    lefschetz: ChowElement
    mat1: ExactMatrix
    mat2: ExactMatrix
    kernel: tuple
    restricted_form: ExactMatrix
    poincare_nondegenerate: bool
    hard_lefschetz_iso: bool
    hodge_riemann_definite: bool

    def to_json_dict(self) -> dict:
        return {
            "k": self.degree,
            "mat1": [[str(e) for e in row] for row in self.mat1.rows],
            "mat2": [[str(e) for e in row] for row in self.mat2.rows],
            "kernel_dimension": len(self.kernel),
            "restricted_form": [
                [str(e) for e in row] for row in self.restricted_form.rows
            ],
            "poincare_nondegenerate": self.poincare_nondegenerate,
            "hard_lefschetz_iso": self.hard_lefschetz_iso,
            "hodge_riemann_definite": self.hodge_riemann_definite,
        }


def kahler_report(ring: ChowRing, k: int, ell: ChowElement) -> PairingReport:
    """Poincare pairing, Lefschetz form, and the Hodge-Riemann check.

    With b_i the standard monomials of A^k and c_j those of A^{D-k}, Mat1
    is deg(b_i c_j) and Mat2 is deg(b_i ell^{D-2k} b_j).  The kernel of
    ell^{r-2k}: A^k -> A^{r-k} is the kernel of deg(ell^{r-2k} b_i t_s)
    over the FY monomials t_s of A^{k-1}: by Poincare duality that matrix
    has the row space of the map itself.  The Hodge-Riemann form is
    (-1)^k Mat2 restricted to the kernel, tested for positive definiteness
    by Sylvester's criterion.

    The matrices hold the degrees as computed, ints unless ell has
    fractional coefficients; their ranks and the kernel come from the
    sparse echelon of linalg.

    When ell = a alpha + b beta (see ChowRing._alpha_beta), deg(ell^e
    alpha^p chain) is sum_i C(e, i) a^i b^{e-i} deg(alpha^{p+i} beta^{e-i}
    chain), read off the degree map.  Any other ell = sum c_F x_F is
    expanded flat by flat, memoised on the chain monomial it multiplies.
    """
    top = ring.top_degree
    if k < 0 or 2 * k > top:
        raise WrongDegree(f"need 0 <= k <= {top}/2, got {k}")
    if ell.degree != 1:
        raise WrongDegree("the Lefschetz element must have degree 1")
    _same_ring(ring, ell)
    dim_k = ring.graded_dimension(k)
    if dim_k != ring.graded_dimension(top - k):
        raise MatroidworksError(
            "internal: graded dimensions break Poincare symmetry"
        )
    basis_k = ring._basis(k)
    basis_co = ring._basis(top - k)
    comp = ring._comparability()
    # integral coefficients as ints keep the degrees below in int arithmetic
    ell_terms = [
        (mono[0][0], c.numerator if c.denominator == 1 else c)
        for mono, c in zip(ring._basis(1), ell.coords)
        if c
    ]
    ab = ring._alpha_beta(ell.flat_coeffs)
    if ab is not None:  # C(e, i) a^i b^{e-i} by e, without the zero terms
        ca, cb = ab
        weights = [
            [(i, c) for i in range(e + 1) if (c := math.comb(e, i) * ca**i * cb ** (e - i))]
            for e in range(top + 1)
        ]
    memo: dict[tuple, Fraction] = {}

    def ell_degree(chain: tuple, p: int = 0):
        """deg(ell^e alpha^p chain), e filling up the top degree."""
        key = (chain, p)
        hit = memo.get(key)
        if hit is None:
            e = top - p - sum(a for _, a in chain)
            if not e:
                hit = ring._degree(chain, p)
            elif ab is not None:
                hit = sum(c * ring._degree(chain, p + i, e - i) for i, c in weights[e])
            else:
                allowed = -1
                for f, _ in chain:
                    allowed &= comp[f]
                hit = sum(
                    c * ell_degree(ring._product(chain, ((f, 1),)), p)
                    for f, c in ell_terms
                    if allowed >> f & 1
                )
            memo[key] = hit
        return hit

    def product_degree(m1: tuple, m2: tuple, p: int = 0):
        mono = ring._product(m1, m2)
        return 0 if mono is None else ell_degree(mono, p)

    mat1_rows = [
        [product_degree(b, c) for c in basis_co] for b in basis_k
    ]
    mat2_rows = [[_ZERO] * dim_k for _ in range(dim_k)]
    for i, b in enumerate(basis_k):
        for j in range(i, dim_k):
            mat2_rows[i][j] = mat2_rows[j][i] = product_degree(b, basis_k[j])

    mat1 = ExactMatrix(_Q, mat1_rows)
    mat2 = ExactMatrix(_Q, mat2_rows)
    poincare = mat1.rank() == dim_k
    lefschetz_iso = mat2.rank() == dim_k

    # primitive part: kernel of ell^{r - 2k} out of A^k
    if k:
        map_rows = [
            [product_degree(b, chain, p) for b in basis_k]
            for chain, p, _ in ring._fy_monomials(k - 1)
        ]
    else:
        map_rows = [[0] * dim_k]  # the target A^r is zero
    kernel_vectors = ExactMatrix(_Q, map_rows).kernel_basis()
    kernel = tuple(
        ChowElement(ring, k, vec) for vec in kernel_vectors
    )

    # sign * K^T Mat2 K over the nonzeros of each kernel vector, with each
    # vector scaled to integers and every entry divided back once
    sign = -1 if k % 2 else 1
    scaled = []
    for vec in kernel_vectors:
        den = math.lcm(*(v.denominator for v in vec))
        scaled.append((den, [(a, (v * den).numerator) for a, v in enumerate(vec) if v]))
    mat2_k = [[sum(v * row[b] for b, v in kv) for row in mat2_rows] for _, kv in scaled]
    restricted = ExactMatrix(
        _Q,
        [
            [
                Fraction(sign * sum(u * mk[a] for a, u in kv), du * dt)
                for mk, (dt, _) in zip(mat2_k, scaled)
            ]
            for du, kv in scaled
        ],
    )
    definite = not kernel or restricted.is_positive_definite()
    return PairingReport(
        degree=k,
        lefschetz=ell,
        mat1=mat1,
        mat2=mat2,
        kernel=kernel,
        restricted_form=restricted,
        poincare_nondegenerate=poincare,
        hard_lefschetz_iso=lefschetz_iso,
        hodge_riemann_definite=definite,
    )


def reduced_char_coefficients_via_volumes(ring: ChowRing) -> tuple[int, ...]:
    """((-1)^j vol(alpha^{r-1-j} beta^j))_j, the coefficients of the reduced
    characteristic polynomial from its leading term down to the constant.

    The volumes come from the degree map on the lattice of flats.  Only
    ring relations enter, never the Moebius function, so comparing the
    result with the characteristic polynomial is a real check.
    """
    top = ring.top_degree
    return tuple(
        (-1) ** q * ring._degree((), top - q, q) for q in range(top + 1)
    )


def truncation_volume_check(m: Matroid) -> bool:
    """vol_M(alpha^{r-1-j} beta^j) = vol_{trunc M}(alpha^{r-2-j} beta^j)
    for all j <= r-2: multiplying by one alpha is truncation."""
    if m.rank < 3:
        raise WrongDegree("truncation comparison needs rank at least 3")
    big = chow_ring(m)
    small = chow_ring(m.truncate())
    a1, b1 = alpha_element(big), beta_element(big)
    a2, b2 = alpha_element(small), beta_element(small)
    for j in range(m.rank - 1):
        lhs = volume_map((a1 ** (m.rank - 1 - j)) * (b1**j))
        rhs = volume_map((a2 ** (m.rank - 2 - j)) * (b2**j))
        if lhs != rhs:
            return False
    return True
