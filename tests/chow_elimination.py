"""The elimination engine for A(M), kept as an oracle for the tests.

Any monomial whose support is not a chain is a multiple of an I-generator,
so the quotient lives on chain monomials alone.  Each graded piece is
computed by exact Gauss-Jordan elimination of the J-multiples against the
chain monomials of that degree, with columns in descending degrevlex
order.  The surviving (standard) monomials are the standard monomials of
the reduced degrevlex Groebner basis of I + J.  Products run on sparse
vectors through one table per (degree, flat), and volumes are normalized
by the first complete flag.

Nothing here reads the degree map, the FY basis or the pairings of
``matroidworks.chow``; only the flats of a ``ChowRing`` are used, and the
oracle builds its own polynomial ring Q[x_F] over them (``flat_ring``).
Its ranks, kernels and definiteness checks are the dense ones of
``dense_linalg``, not those of ``matroidworks.linalg``.
"""

import math
from fractions import Fraction

from dense_linalg import bareiss_rank, is_positive_definite, kernel_basis
from helpers import poly_from_terms
from matroidworks.fields import rationals
from matroidworks.matroid import mask_elements
from matroidworks.polynomials import PolynomialRing

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _insert_flat(mono, flat):
    exps = dict(mono)
    exps[flat] = exps.get(flat, 0) + 1
    return tuple(sorted(exps.items()))


def _combine(terms):
    """Sum of c * vec over (c, vec) in terms, for sparse vectors: tuples of
    (index, coefficient) pairs.  The result keeps no zero coefficients."""
    acc = {}
    for c, vec in terms:
        for s, v in vec:
            acc[s] = acc.get(s, _ZERO) + c * v
    return tuple((s, v) for s, v in acc.items() if v)


def flat_ring(ring):
    """Q[x_F] over the nonempty proper flats of a ChowRing, in its flat
    order, with x_F named by the elements of F, e.g. x_{1,2}."""
    return PolynomialRing(
        rationals(),
        ["x_{" + ",".join(map(str, mask_elements(f))) + "}" for f in ring.flats],
    )


def ideal_generators(ring):
    """The I and J generators as honest polynomials (I first)."""
    poly_ring = flat_ring(ring)
    k = len(ring.flats)
    gens = []
    for i in range(k):
        for j in range(i + 1, k):
            f, g = ring.flats[i], ring.flats[j]
            if f & g not in (f, g):
                exps = [0] * k
                exps[i] = exps[j] = 1
                gens.append(poly_from_terms(poly_ring, {tuple(exps): _ONE}))
    for j in range(2, ring.matroid.n + 1):
        jbit = 1 << (j - 1)
        terms = {}
        for idx, f in enumerate(ring.flats):
            c = (1 if f & 1 else 0) - (1 if f & jbit else 0)
            if c:
                exps = [0] * k
                exps[idx] = 1
                terms[tuple(exps)] = Fraction(c)
        if terms:
            gens.append(poly_from_terms(poly_ring, terms))
    return tuple(gens)


class Degree:
    """One graded piece: its chain monomials in descending degrevlex, the
    standard ones, and the normal form of each non-standard one."""

    def __init__(self, monomials, std_positions, nf):
        self.monomials = monomials
        self.index = {mo: i for i, mo in enumerate(monomials)}
        self.std_positions = std_positions
        self.std_index = {p: i for i, p in enumerate(std_positions)}
        self.nf = nf

    @property
    def standard(self):
        return tuple(self.monomials[p] for p in self.std_positions)

    def reduce(self, mono):
        """The chain monomial mono as a sparse vector over the standard ones."""
        pos = self.index[mono]
        red = self.nf.get(pos)
        return ((self.std_index[pos], _ONE),) if red is None else red


class EliminationRing:
    """Standard monomials, products and volumes of a ChowRing by elimination."""

    def __init__(self, ring):
        self.ring = ring
        flats = ring.flats
        self.comp = [
            sum(1 << j for j, g in enumerate(flats) if f & g in (f, g)) for f in flats
        ]
        self._data = {}
        self._tables = {}
        self._unit = None

    def degree(self, d):
        hit = self._data.get(d)
        if hit is not None:
            return hit
        if d == 0:
            data = self._data[0] = Degree(((),), (0,), {})
            return data
        prev = self.degree(d - 1)
        nflats = len(self.ring.flats)
        monos = set()
        for mono in prev.monomials:
            for f in self.compatible(mono):
                if not mono or f >= mono[-1][0]:
                    monos.add(_insert_flat(mono, f))

        def key(mono):
            exps = [0] * nflats
            for f, e in mono:
                exps[f] = e
            return tuple(-x for x in reversed(exps))

        monos = sorted(monos, key=key, reverse=True)  # descending degrevlex
        index = {mo: i for i, mo in enumerate(monos)}
        rows = []
        for mono in prev.monomials:
            compat = [(f, index[_insert_flat(mono, f)]) for f in self.compatible(mono)]
            for j in range(2, self.ring.matroid.n + 1):
                jbit = 1 << (j - 1)
                row = {}
                for f, target in compat:
                    flat = self.ring.flats[f]
                    c = (1 if flat & 1 else 0) - (1 if flat & jbit else 0)
                    if c:
                        row[target] = row.get(target, 0) + c
                row = {t: Fraction(v) for t, v in row.items() if v}
                if row:
                    rows.append(row)
        pivots = {}
        for r in rows:
            while r:
                lead = min(r)
                pr = pivots.get(lead)
                if pr is None:
                    c = r[lead]
                    pivots[lead] = {t: v / c for t, v in r.items()}
                    break
                c = r[lead]
                nr = dict(r)
                for t, v in pr.items():
                    nv = nr.get(t, _ZERO) - c * v
                    if nv:
                        nr[t] = nv
                    else:
                        nr.pop(t, None)
                r = nr
        for lead in sorted(pivots, reverse=True):
            pr = pivots[lead]
            extra = [t for t in pr if t != lead and t in pivots]
            while extra:
                for t in extra:
                    c = pr.pop(t)
                    for t2, v in pivots[t].items():
                        if t2 != t:
                            nv = pr.get(t2, _ZERO) - c * v
                            if nv:
                                pr[t2] = nv
                            else:
                                pr.pop(t2, None)
                extra = [t for t in pr if t != lead and t in pivots]
        std_positions = tuple(p for p in range(len(monos)) if p not in pivots)
        std_index = {p: i for i, p in enumerate(std_positions)}
        nf = {
            lead: tuple((std_index[t], -v) for t, v in sorted(pr.items()) if t != lead)
            for lead, pr in pivots.items()
        }
        data = self._data[d] = Degree(tuple(monos), std_positions, nf)
        return data

    def compatible(self, mono):
        """Flat indices comparable with every flat of mono."""
        allowed = -1
        for f, _ in mono:
            allowed &= self.comp[f]
        return [f for f in range(len(self.ring.flats)) if allowed >> f & 1]

    def multiply_by_flat(self, degree, vec, flat):
        """x_F * vec for a sparse vector vec in A^degree."""
        table = self._tables.get((degree, flat))
        if table is None:
            here, there = self.degree(degree), self.degree(degree + 1)
            table = self._tables[degree, flat] = tuple(
                there.reduce(_insert_flat(mono, flat))
                if flat in self.compatible(mono)
                else ()
                for mono in here.standard
            )
        return _combine((c, table[i]) for i, c in vec)

    def multiply_by_monomial(self, degree, vec, mono):
        for f, e in mono:
            for _ in range(e):
                vec = self.multiply_by_flat(degree, vec, f)
                degree += 1
        return vec

    def canonical_flag(self):
        """Flat indices of the first complete flag F_1 < ... < F_{r-1}."""
        m = self.ring.matroid
        flag, current = [], 0
        for target in range(1, m.rank):
            idx = next(
                i
                for i, f in enumerate(self.ring.flats)
                if m.rank_of(f) == target and not current & ~f
            )
            flag.append(idx)
            current = self.ring.flats[idx]
        return tuple(flag)

    def unit(self):
        """The volume of the top standard monomial."""
        if self._unit is None:
            vec = self.multiply_by_monomial(
                0, ((0, _ONE),), tuple((f, 1) for f in self.canonical_flag())
            )
            self._unit = _ONE / vec[0][1]
        return self._unit

    def volume(self, mono):
        """vol of a top-degree chain monomial."""
        vec = self.degree(self.ring.top_degree).reduce(mono)
        return vec[0][1] * self.unit() if vec else _ZERO

    def element(self, coeffs):
        """sum c_F x_F, from flat indices to coefficients, in A^1."""
        vec = _combine((c, self.degree(1).reduce(((f, 1),))) for f, c in coeffs.items())
        return vec

    def product(self, d1, v1, d2, v2):
        """v1 * v2 for sparse vectors in A^d1 and A^d2."""
        std = self.degree(d2).standard
        return _combine(
            (c, self.multiply_by_monomial(d1, v1, std[i])) for i, c in v2
        )

    def kahler(self, k, ell):
        """Mat1, Mat2, the kernel basis, the restricted form and the three
        verdicts of the pairing checks for ell, a sparse vector in A^1."""
        top = self.ring.top_degree
        m = self.ring.matroid
        field = rationals()
        basis_k = self.degree(k).standard
        dim_k = len(basis_k)
        dim_co = len(self.degree(top - k).standard)
        unit = self.unit()
        mat1 = []
        for mono in basis_k:
            row = []
            for j in range(dim_co):
                v = self.multiply_by_monomial(top - k, ((j, _ONE),), mono)
                row.append(v[0][1] * unit if v else _ZERO)
            mat1.append(row)
        lifted = [((i, _ONE),) for i in range(dim_k)]
        for d in range(k, top - k):
            lifted = [self.product(d, w, 1, ell) for w in lifted]
        mat2 = [
            [sum(c * mat1[j][t] for t, c in w) for j in range(dim_k)] for w in lifted
        ]
        if k == 0:
            kernel = [
                tuple(_ONE if j == i else _ZERO for j in range(dim_k))
                for i in range(dim_k)
            ]
        else:
            images = [self.product(top - k, w, 1, ell) for w in lifted]
            target_dim = len(self.degree(m.rank - k).standard)
            map_rows = [[_ZERO] * dim_k for _ in range(target_dim)]
            for t, col in enumerate(images):
                for s, v in col:
                    map_rows[s][t] = v
            kernel = kernel_basis(field, map_rows)
        # K^T Mat2 K with each kernel vector scaled to integers, and each
        # entry divided back by the two scales
        sign = -1 if k % 2 else 1
        dens = [math.lcm(*(x.denominator for x in v)) for v in kernel]
        nonzero = [
            [(a, int(x * den)) for a, x in enumerate(v) if x] for v, den in zip(kernel, dens)
        ]
        exact = [[x.numerator if x.denominator == 1 else x for x in row] for row in mat2]
        mk = [[sum(row[b] * x for b, x in nz) for nz in nonzero] for row in exact]
        restricted = [
            [
                sign * Fraction(sum(x * mk[a][t] for a, x in nz), du * dens[t])
                for t in range(len(kernel))
            ]
            for du, nz in zip(dens, nonzero)
        ]
        verdicts = (
            bareiss_rank(mat1) == dim_k,
            bareiss_rank(mat2) == dim_k,
            not kernel or is_positive_definite(restricted),
        )
        return mat1, mat2, [tuple(v) for v in kernel], restricted, verdicts
