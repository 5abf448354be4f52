"""Chow rings of loop-free matroids and the Kaehler-package checks.

A(M) = Q[x_F | F a nonempty proper flat]/(I + J): I kills products of
incomparable flats, J imposes the n-1 linear relations anchored at
element 1.

The plain report reads every number off the lattice of flats, with no
elimination.  Graded dimensions count the Feichtner-Yuzvinsky basis
(Invent. Math. 155, 2004) in one pass over the flats in rank order, and
the volumes of alpha^{r-1-j} beta^j come from the degree map through
restrictions M|F (Adiprasito-Huh-Katz, Ann. Math. 188, 2018, section 6).

Elements, volume_map and kahler_report run on the elimination engine.
Because any monomial whose support is not a chain is a multiple of an
I-generator, the quotient lives on chain monomials alone; each graded
piece the engine needs is computed by exact Gauss-Jordan elimination of
the J-multiples against the chain monomials of that degree, with columns
in descending degrevlex order.  The surviving (standard) monomials
coincide with the standard monomials of the reduced degrevlex Groebner
basis of I + J, which the test suite re-checks against Buchberger on
small inputs, and their count must equal the Feichtner-Yuzvinsky
dimension, which the engine checks each time it builds a degree.

Volumes are normalized so every complete flag monomial integrates to 1;
alpha and beta are the degree-1 classes whose mixed volumes give the
reduced characteristic polynomial, and kahler_report packages Poincare
duality, hard Lefschetz, and the Hodge-Riemann form for one (k, ell) at
a time.
"""

from __future__ import annotations

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
from .groebner import GroebnerBasis, Ideal, buchberger
from .linalg import ExactMatrix
from .matroid import Matroid, mask_elements, mask_of
from .polynomials import DEGREVLEX, Poly, PolynomialRing

_Q = rationals()
_ZERO = Fraction(0)
_ONE = Fraction(1)


class _DegreeData:
    __slots__ = ("monomials", "index", "supp", "std_positions", "std_index", "nf")

    def __init__(self, monomials, index, supp, std_positions, std_index, nf):
        self.monomials = monomials
        self.index = index
        self.supp = supp
        self.std_positions = std_positions
        self.std_index = std_index
        self.nf = nf


def _insert_flat(mono: tuple, flat: int) -> tuple:
    out = []
    placed = False
    for f, e in mono:
        if f == flat:
            out.append((f, e + 1))
            placed = True
        elif f > flat and not placed:
            out.append((flat, 1))
            out.append((f, e))
            placed = True
        else:
            out.append((f, e))
    if not placed:
        out.append((flat, 1))
    return tuple(out)


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
        levels = [[] for _ in range(m.rank + 1)]
        for f in m.flats():
            levels[m.rank_of(f)].append(f)
        # every flat, empty and ground set included, bucketed by rank
        self._levels = tuple(
            tuple(sorted(level, key=mask_elements)) for level in levels
        )
        flats = [f for level in self._levels[1 : m.rank] for f in level]
        self.flats = tuple(flats)
        self.flat_index = {f: i for i, f in enumerate(flats)}
        self.ring = PolynomialRing(
            _Q,
            tuple(
                "x_{" + ",".join(map(str, mask_elements(f))) + "}"
                for f in flats
            ),
        )
        self.top_degree = m.rank - 1
        self._dimensions = _fy_dimensions(self._levels)
        self._comp: Optional[list[int]] = None
        self._data: dict[int, _DegreeData] = {}
        self._ideal_polys: Optional[tuple] = None
        self._top_std_volume: Optional[Fraction] = None
        self._flat_tables: dict[tuple[int, int], tuple] = {}

    def _comparability(self) -> list[int]:
        """Comparability bitmask over flat indices, per flat; built on first
        use, since only the elimination engine and the ideal generators
        need it."""
        if self._comp is None:
            flats = self.flats
            comp = []
            for f in flats:
                mask = 0
                for j, g in enumerate(flats):
                    if f & g == f or f & g == g:
                        mask |= 1 << j
                comp.append(mask)
            self._comp = comp
        return self._comp

    # -- graded engine ----------------------------------------------------

    def _degree(self, d: int) -> _DegreeData:
        if d < 0 or d > self.matroid.rank:
            raise WrongDegree(f"degree {d} outside 0..{self.matroid.rank}")
        hit = self._data.get(d)
        if hit is not None:
            return hit
        if d == 0:
            empty = ()
            data = _DegreeData((empty,), {empty: 0}, (0,), (0,), {0: 0}, {})
            return self._store(0, data)
        prev = self._degree(d - 1)
        comp = self._comparability()
        nflats = len(self.flats)
        monos = []
        supp_of = {}
        for pos, mono in enumerate(prev.monomials):
            supp = prev.supp[pos]
            start = mono[-1][0] if mono else 0
            for f in range(start, nflats):
                if supp & ~comp[f]:
                    continue
                m2 = _insert_flat(mono, f)
                if m2 not in supp_of:
                    supp_of[m2] = supp | (1 << f)
                    monos.append(m2)
        keys = {}
        for mono in monos:
            exps = [0] * nflats
            for f, e in mono:
                exps[f] = e
            keys[mono] = tuple(-x for x in reversed(exps))
        monos.sort(key=lambda mo: keys[mo], reverse=True)  # descending degrevlex
        index = {mo: i for i, mo in enumerate(monos)}
        supp = tuple(supp_of[mo] for mo in monos)

        elem_masks = self.flats
        n = self.matroid.n
        rows = []
        for pos, mono in enumerate(prev.monomials):
            psupp = prev.supp[pos]
            compat = []
            for f in range(nflats):
                if not (psupp & ~comp[f]):
                    compat.append((f, index[_insert_flat(mono, f)]))
            if not compat:
                continue
            for j in range(2, n + 1):
                jbit = 1 << (j - 1)
                row = {}
                for f, target in compat:
                    c = (1 if elem_masks[f] & 1 else 0) - (
                        1 if elem_masks[f] & jbit else 0
                    )
                    if c:
                        row[target] = row.get(target, 0) + c
                row = {k: Fraction(v) for k, v in row.items() if v}
                if row:
                    rows.append(row)

        pivots: dict[int, dict] = {}
        for row in rows:
            r = row
            while r:
                lead = min(r)
                pr = pivots.get(lead)
                if pr is None:
                    c = r[lead]
                    if c != 1:
                        r = {k: v / c for k, v in r.items()}
                    pivots[lead] = r
                    break
                c = r[lead]
                nr = dict(r)
                for k, v in pr.items():
                    nv = nr.get(k, _ZERO) - c * v
                    if nv:
                        nr[k] = nv
                    else:
                        nr.pop(k, None)
                r = nr
        for lead in sorted(pivots, reverse=True):
            pr = pivots[lead]
            extra = [k for k in pr if k != lead and k in pivots]
            while extra:
                for k in extra:
                    c = pr.pop(k)
                    for k2, v in pivots[k].items():
                        if k2 == k:
                            continue
                        nv = pr.get(k2, _ZERO) - c * v
                        if nv:
                            pr[k2] = nv
                        else:
                            pr.pop(k2, None)
                extra = [k for k in pr if k != lead and k in pivots]

        std_positions = tuple(p for p in range(len(monos)) if p not in pivots)
        std_index = {p: i for i, p in enumerate(std_positions)}
        nf = {}
        for lead, pr in pivots.items():
            nf[lead] = tuple(
                (std_index[k], -v) for k, v in sorted(pr.items()) if k != lead
            )
        data = _DegreeData(tuple(monos), index, supp, std_positions, std_index, nf)
        return self._store(d, data)

    def _store(self, d: int, data: _DegreeData) -> _DegreeData:
        """Cache degree d after checking it against the FY dimension."""
        if len(data.std_positions) != self.graded_dimension(d):
            raise MatroidworksError(
                f"internal: elimination finds {len(data.std_positions)} standard "
                f"monomials in degree {d}, the FY basis {self.graded_dimension(d)}"
            )
        self._data[d] = data
        return data

    def graded_dimension(self, d: int) -> int:
        if d < 0 or d > self.matroid.rank:
            raise WrongDegree(f"degree {d} outside 0..{self.matroid.rank}")
        return 0 if d == self.matroid.rank else self._dimensions[d]

    def graded_dimensions(self) -> tuple[int, ...]:
        return self._dimensions

    def basis_monomials(self, d: int) -> tuple[Poly, ...]:
        data = self._degree(d)
        out = []
        for p in data.std_positions:
            exps = [0] * len(self.flats)
            for f, e in data.monomials[p]:
                exps[f] = e
            out.append(Poly(self.ring, {tuple(exps): _ONE}))
        return tuple(out)

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
            raise InputError(
                f"{sorted(mask_elements(mask))} is not a nonempty proper flat"
            )
        return idx

    def element_from_flat_coeffs(self, coeffs) -> "ChowElement":
        """Degree-1 element Sum c_F x_F; keys are flat masks or element
        iterables.  Keeps the raw flat coefficients for the Lefschetz test."""
        by_idx: dict[int, Fraction] = {}
        for key, val in dict(coeffs).items():
            idx = self._flat_key(key)
            by_idx[idx] = by_idx.get(idx, _ZERO) + Fraction(val)
        data = self._degree(1)
        out = [_ZERO] * len(data.std_positions)
        for idx, c in by_idx.items():
            if not c:
                continue
            pos = data.index[((idx, 1),)]
            red = data.nf.get(pos)
            if red is None:
                out[data.std_index[pos]] += c
            else:
                for s, v in red:
                    out[s] += c * v
        flat_vec = tuple(by_idx.get(i, _ZERO) for i in range(len(self.flats)))
        return ChowElement(self, 1, tuple(out), flat_vec)

    def _flat_table(self, degree: int, flat_idx: int) -> tuple:
        """x_F times each standard monomial of A^degree, reduced in A^{degree+1}.

        Entry i is the product with the i-th standard monomial as a sparse
        vector; built once per (degree, flat) and cached on the ring.
        """
        key = (degree, flat_idx)
        table = self._flat_tables.get(key)
        if table is not None:
            return table
        data = self._degree(degree)
        nxt = self._degree(degree + 1)
        comp = self._comparability()[flat_idx]
        rows = []
        for pos in data.std_positions:
            if data.supp[pos] & ~comp:
                rows.append(())
                continue
            p2 = nxt.index[_insert_flat(data.monomials[pos], flat_idx)]
            red = nxt.nf.get(p2)
            rows.append(((nxt.std_index[p2], _ONE),) if red is None else red)
        table = self._flat_tables[key] = tuple(rows)
        return table

    def multiply_by_flat(self, degree: int, vec: tuple, flat_idx: int) -> tuple:
        """x_F * vec for vec in A^degree.

        Elements here are sparse vectors: tuples of (standard-monomial
        index, coefficient) pairs with nonzero coefficients.
        """
        table = self._flat_table(degree, flat_idx)
        return _combine((c, table[i]) for i, c in vec)

    def _multiply_by_monomial(self, degree: int, vec: tuple, mono: tuple) -> tuple:
        """vec in A^degree times the chain monomial ((flat, exponent), ...)."""
        for f, e in mono:
            for _ in range(e):
                vec = self.multiply_by_flat(degree, vec, f)
                degree += 1
        return vec

    # -- presentation-level data ------------------------------------------

    def ideal_generators(self) -> tuple[Poly, ...]:
        """The I and J generators as honest polynomials (I first)."""
        if self._ideal_polys is not None:
            return self._ideal_polys
        ring = self.ring
        k = len(self.flats)
        comp = self._comparability()
        gens = []
        for i in range(k):
            for j in range(i + 1, k):
                if not (comp[i] >> j) & 1:
                    exps = [0] * k
                    exps[i] = 1
                    exps[j] = 1
                    gens.append(Poly(ring, {tuple(exps): _ONE}))
        n = self.matroid.n
        for j in range(2, n + 1):
            jbit = 1 << (j - 1)
            terms = {}
            for idx, f in enumerate(self.flats):
                c = (1 if f & 1 else 0) - (1 if f & jbit else 0)
                if c:
                    exps = [0] * k
                    exps[idx] = 1
                    terms[tuple(exps)] = Fraction(c)
            if terms:
                gens.append(Poly(ring, terms))
        self._ideal_polys = tuple(gens)
        return self._ideal_polys

    def groebner_basis(self) -> GroebnerBasis:
        """Reduced degrevlex basis of I + J by Buchberger; small rings only
        in practice, the graded engine does not need it."""
        return buchberger(Ideal(self.ring, self.ideal_generators()), DEGREVLEX)

    # -- volume -----------------------------------------------------------

    def canonical_flag(self) -> tuple[int, ...]:
        """Flat indices of the first complete flag F_1 < ... < F_{r-1}."""
        m = self.matroid
        flag = []
        current = None
        for target in range(1, m.rank):
            found = None
            for idx, f in enumerate(self.flats):
                if m.rank_of(f) != target:
                    continue
                if current is not None and current & ~f:
                    continue
                found = idx
                break
            if found is None:
                raise MatroidworksError("internal: flag extension failed")
            flag.append(found)
            current = self.flats[found]
        return tuple(flag)

    def _top_volume_unit(self) -> Fraction:
        """vol of the single top-degree standard monomial."""
        if self._top_std_volume is not None:
            return self._top_std_volume
        top = self.top_degree
        dim = self.graded_dimension(top)
        if dim != 1:
            raise MatroidworksError(
                f"internal: top graded piece has dimension {dim}"
            )
        vec = self._multiply_by_monomial(
            0, ((0, _ONE),), tuple((idx, 1) for idx in self.canonical_flag())
        )
        if not vec:
            raise MatroidworksError("internal: canonical flag monomial vanished")
        self._top_std_volume = _ONE / vec[0][1]
        return self._top_std_volume


_BUILD_TOKEN = object()


def _combine(terms) -> tuple:
    """Sum of c * vec over (c, vec) in terms, for sparse vectors: tuples of
    (index, coefficient) pairs.  The result keeps no zero coefficients."""
    acc: dict[int, Fraction] = {}
    for c, vec in terms:
        for s, v in vec:
            acc[s] = acc.get(s, _ZERO) + c * v
    return tuple((s, v) for s, v in acc.items() if v)


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
        self.coords = tuple(Fraction(c) for c in coords)
        self.flat_coeffs = flat_coeffs
        if len(self.coords) != ring.graded_dimension(degree):
            raise WrongDegree(
                f"{len(self.coords)} coordinates for a dimension-"
                f"{ring.graded_dimension(degree)} component"
            )

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
        c = Fraction(c)
        return ChowElement(
            self.ring, self.degree, tuple(c * a for a in self.coords)
        )

    def _match(self, other):
        if self.ring is not other.ring:
            raise InputError("elements of different Chow rings")
        if self.degree != other.degree:
            raise WrongDegree("degrees differ")

    def __mul__(self, other: "ChowElement") -> "ChowElement":
        if self.ring is not other.ring:
            raise InputError("elements of different Chow rings")
        ring = self.ring
        data = ring._degree(other.degree)
        target = self.degree + other.degree
        acc = [_ZERO] * ring.graded_dimension(target)
        mine = tuple((i, c) for i, c in enumerate(self.coords) if c)
        prod = _combine(
            (
                c,
                ring._multiply_by_monomial(
                    self.degree, mine, data.monomials[data.std_positions[i]]
                ),
            )
            for i, c in enumerate(other.coords)
            if c
        )
        for s, v in prod:
            acc[s] = v
        return ChowElement(ring, target, acc)

    def __pow__(self, k: int) -> "ChowElement":
        if k < 0:
            raise InputError("negative powers")
        acc = self.ring.one()
        for _ in range(k):
            acc = acc * self
        return acc

    def __repr__(self) -> str:
        return f"ChowElement(degree={self.degree}, coords={self.coords})"


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
    if not eta.coords:
        return _ZERO
    return eta.coords[0] * ring._top_volume_unit()


def is_lefschetz_element(ring: ChowRing, ell: ChowElement) -> bool:
    """Strict submodularity of the flat coefficients over incomparable
    pairs, with c = 0 on the empty flat and the full ground set."""
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

    Mat1 pairs A^k with A^{D-k}; Mat2 is the form vol(a * ell^{D-2k} * b)
    on A^k; the Hodge-Riemann form is (-1)^k Mat2 restricted to the kernel
    of multiplication by ell^{rk-2k} into A^{rk-k}, tested for positive
    definiteness by Sylvester's criterion.

    Products run on sparse vectors through the ring's flat tables.
    Multiplication by ell is one sparse matrix per degree, built once, so
    Mat2 is (ell^{D-2k} basis) times Mat1 transposed, and the restriction
    to the kernel sums only over the nonzeros of each kernel vector.
    """
    m = ring.matroid
    top = ring.top_degree
    if k < 0 or 2 * k > top:
        raise WrongDegree(f"need 0 <= k <= {top}/2, got {k}")
    if ell.degree != 1:
        raise WrongDegree("the Lefschetz element must have degree 1")
    dim_k = ring.graded_dimension(k)
    dim_co = ring.graded_dimension(top - k)
    if dim_k != dim_co:
        raise MatroidworksError(
            "internal: graded dimensions break Poincare symmetry"
        )
    unit = ring._top_volume_unit() if dim_k else _ONE

    data_k = ring._degree(k)
    mat1_rows = []
    for pos in data_k.std_positions:
        mono = data_k.monomials[pos]
        row = []
        for j in range(dim_co):
            v = ring._multiply_by_monomial(top - k, ((j, _ONE),), mono)
            row.append(v[0][1] * unit if v else _ZERO)
        mat1_rows.append(row)

    data1 = ring._degree(1)
    ell_terms = [
        (data1.monomials[data1.std_positions[s]][0][0], c)
        for s, c in enumerate(ell.coords)
        if c
    ]

    def times_ell(degree: int, vecs: list) -> list:
        tables = [(c, ring._flat_table(degree, f)) for f, c in ell_terms]
        ell_map = [
            _combine((c, t[i]) for c, t in tables)
            for i in range(ring.graded_dimension(degree))
        ]
        return [_combine((c, ell_map[i]) for i, c in v) for v in vecs]

    lifted = [((i, _ONE),) for i in range(dim_k)]
    for d in range(k, top - k):
        lifted = times_ell(d, lifted)  # ell^{D-2k} b_i, in A^{D-k}
    # vol(w * b_j) = sum_t w_t vol(c_t * b_j), read off row j of Mat1
    mat1_nonzero = [{t: v for t, v in enumerate(row) if v} for row in mat1_rows]
    mat2_rows = [
        [sum(c * nz[t] for t, c in w if t in nz) for nz in mat1_nonzero]
        for w in lifted
    ]

    mat1 = ExactMatrix.from_rows(_Q, mat1_rows) if dim_k else ExactMatrix(_Q, ())
    mat2 = ExactMatrix.from_rows(_Q, mat2_rows) if dim_k else ExactMatrix(_Q, ())
    poincare = dim_k == 0 or mat1.rank() == dim_k
    lefschetz_iso = dim_k == 0 or mat2.rank() == dim_k

    # primitive part: kernel of ell^{rk - 2k} out of A^k
    # A^{rk-k} is zero above the top degree (k = 0); skip eliminating it
    target_dim = 0 if m.rank - k > top else ring.graded_dimension(m.rank - k)
    kernel_vectors: list[tuple]
    if dim_k == 0:
        kernel_vectors = []
    elif target_dim == 0:
        kernel_vectors = [
            tuple(_ONE if j == i else _ZERO for j in range(dim_k))
            for i in range(dim_k)
        ]
    else:
        map_rows = [[_ZERO] * dim_k for _ in range(target_dim)]
        for t, col in enumerate(times_ell(top - k, lifted)):
            for s, v in col:
                map_rows[s][t] = v
        kernel_vectors = [
            tuple(v) for v in ExactMatrix.from_rows(_Q, map_rows).kernel_basis()
        ]
    kernel = tuple(
        ChowElement(ring, k, vec) for vec in kernel_vectors
    )

    sign = -1 if k % 2 else 1
    kd = len(kernel_vectors)
    kernel_nonzero = [
        tuple((a, v) for a, v in enumerate(vec) if v) for vec in kernel_vectors
    ]
    # sign * K^T Mat2 K over the nonzeros of each kernel vector
    mat2_k = [
        [sum(v * row[b] for b, v in kv) for row in mat2_rows]
        for kv in kernel_nonzero
    ]
    restricted_rows = [
        [sign * sum(u * mk[a] for a, u in kv) for mk in mat2_k]
        for kv in kernel_nonzero
    ]
    restricted = (
        ExactMatrix.from_rows(_Q, restricted_rows) if kd else ExactMatrix(_Q, ())
    )
    definite = kd == 0 or restricted.is_positive_definite()
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

    The volumes come from the degree map on the lattice of flats, in exact
    ints and with no elimination (Adiprasito-Huh-Katz, section 6): with i
    the lowest element, vol(alpha^{r-1}) = 1 and vol(alpha^p beta^q) is the
    sum of vol_{M|F}(beta^{q-1}) over the rank-q flats F missing i.  Inside
    M|F the same rule holds with i = min F, ending at 1 on rank-1 flats.
    Only ring relations enter, never the Moebius function, so comparing
    the result with the characteristic polynomial is a real check.
    """
    levels = ring._levels
    top = ring.top_degree
    # restricted[F] = vol_{M|F}(beta^{rk F - 1}), memoised rank by rank
    restricted = dict.fromkeys(levels[1], 1)
    for rho in range(2, top + 1):
        below = levels[rho - 1]
        for f in levels[rho]:
            low = f & -f
            restricted[f] = sum(
                restricted[g] for g in below if g & f == g and not g & low
            )
    out = [1]
    for q in range(1, top + 1):
        # element 1 (bit 0) is the lowest, as in beta_element
        v = sum(restricted[f] for f in levels[q] if not f & 1)
        out.append(v if q % 2 == 0 else -v)
    return tuple(out)


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
