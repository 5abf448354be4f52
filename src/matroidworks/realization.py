"""Realization spaces of matroids over a field of chosen characteristic.

The pipeline: pick a basis whose parameterized matrix needs the fewest
variables, fix entries to 0/1 by the mu/nu normalization, collect the
non-basis maximal minors as an ideal and the basis minors as inequations,
simplify the presentation (Groebner reduction, inequation reduction by
groebner.reduce_inequations, elimination of variables with unit linear
coefficient), and decide emptiness by saturating the ideal at the
inequations.  When an inequation lies in the ideal the verdict is Empty
at once, and the space keeps the inequations as they were before that
reduction, so its stored presentation still has no points.

The chart depends only on the matroid and its minors have integer
coefficients, so a sweep over characteristics (realization_spaces) takes
the minors once over Q and reduces them mod p for each characteristic.

Emptiness is decided over the algebraic closure of the prime field: the
space is empty for characteristic c exactly when 1 lies in the saturation.
Realizability over a specific finite field F_q is a separate, exhaustive
search over the simplified presentation's surviving variables.  The search
is a pruned depth-first walk in a fixed variable order and element order:
each equation and inequation is tested as soon as its variables are all
assigned, so it visits the admissible points, and finds the first witness,
exactly as full enumeration of every assignment would.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .errors import (
    DegreeBudgetExceeded,
    InputError,
    LoopPresent,
    MatroidworksError,
    SearchBudgetExceeded,
    current_budget,
)
from .fields import (
    Field,
    factor_prime_power,
    field_of_characteristic,
    field_of_order,
    rationals,
)
from .groebner import (
    Ideal,
    Substitution,
    buchberger,
    eliminate_linear_variables,
    has_unit,
    reduce_inequations,
    saturate,
    sorted_unique,
)
from .linalg import ExactMatrix, MinorOracle
from .matroid import Matroid, mask_elements, mask_of, matroid_from_matrix
from .polynomials import Poly, PolynomialRing, poly_str

# Unused here; the benchmark tracer wraps them as attributes of this module.
from .groebner import normal_form  # noqa: F401
from .polynomials import exact_divide  # noqa: F401


class SpaceVerdict(Enum):
    NONEMPTY = "NonEmpty"
    EMPTY = "Empty"
    UNDECIDED = "Undecided"


class _Undecided:
    """Tri-state answer for realizability questions the budgets cut short.

    Refuses boolean coercion so an undecided answer can never slip through
    an if-statement as False.
    """

    __slots__ = ()

    def __bool__(self):
        raise TypeError(
            "realizability is undecided; compare against UNDECIDED explicitly"
        )

    def __repr__(self):
        return "UNDECIDED"


UNDECIDED = _Undecided()


def _matrix_skeleton(m: Matroid, basis_mask: int):
    """Entry plan for the parameterized matrix: 'zero' / 'one' / 'var' grid.

    Rows follow the basis elements in increasing order; the mu/nu formulas
    are applied in the order-preserving relabeling that puts the basis last,
    which is exactly the original column order with non-basis columns first.
    """
    r, n = m.rank, m.n
    b_elems = list(mask_elements(basis_mask))
    c_elems = [e for e in range(1, n + 1) if not (basis_mask >> (e - 1)) & 1]
    k = len(c_elems)
    exch = [
        [m.is_basis((basis_mask & ~(1 << (b - 1))) | (1 << (c - 1))) for c in c_elems]
        for b in b_elems
    ]
    # sentinels r and k mean "r+1" and "k+1" in 1-based terms
    mu = [next((i for i in range(r) if exch[i][j]), r) for j in range(k)]
    nu = [next((j for j in range(k) if exch[i][j] and mu[j] != i), k) for i in range(r)]
    plan = [["zero"] * k for _ in range(r)]
    for i in range(r):
        for j in range(k):
            if not exch[i][j]:
                continue
            if mu[j] == i or nu[i] == j:
                plan[i][j] = "one"
            else:
                plan[i][j] = "var"
    return b_elems, c_elems, plan


def choose_basis(m: Matroid) -> tuple[int, ...]:
    """The basis whose parameterized matrix has the fewest variables.

    Ties break to the first such basis in the canonical order of
    ``m.bases``; in rank 0 and full rank that is the only basis.  The choice
    depends only on the matroid, not on the characteristic.  Loops make
    every choice degenerate, so they are rejected up front.
    """
    if m.rank > 0 and m.loops():
        raise LoopPresent(f"loops {list(m.loops())} admit no realization chart")

    def variables(mask: int) -> int:
        return sum(row.count("var") for row in _matrix_skeleton(m, mask)[2])

    return mask_elements(min(m.bases, key=variables))


def build_parameterized_matrix(m: Matroid, basis: Sequence[int]):
    """The r x n symbolic matrix over Q for the given basis, and its ring.

    The basis columns carry the identity; every other entry is fixed to 0
    (non-basis exchange), fixed to 1 (mu/nu normalization), or a fresh
    variable named x_{i,j} for row i and grid column j, numbered row-major.
    Returns (ring, grid) where grid is an r x n tuple of rows of
    polynomials over ring.
    """
    basis_mask = mask_of(basis, m.n)
    if not m.is_basis(basis_mask):
        raise InputError(f"{sorted(basis)} is not a basis")
    b_elems, c_elems, plan = _matrix_skeleton(m, basis_mask)
    names = [
        f"x_{{{i + 1},{j + 1}}}"
        for i, row in enumerate(plan)
        for j, tag in enumerate(row)
        if tag == "var"
    ]
    ring = PolynomialRing(rationals(), names)
    fixed = {"zero": ring.zero(), "one": ring.one()}
    variables = iter(ring.gens())
    grid = []
    for i, b in enumerate(b_elems):
        row = [ring.zero()] * m.n
        row[b - 1] = ring.one()
        for c, tag in zip(c_elems, plan[i]):
            row[c - 1] = next(variables) if tag == "var" else fixed[tag]
        grid.append(tuple(row))
    return ring, tuple(grid)


@dataclass(frozen=True)
class RealizationSpace:
    matroid: Matroid
    characteristic: int
    basis: tuple[int, ...]
    ring: PolynomialRing
    matrix: tuple  # r x n rows of Poly, pre-substitution
    ideal_generators: tuple  # Poly, post-simplification
    inequations: tuple  # Poly, reduced semigroup generators
    substitutions: tuple  # Substitution log from simplification
    verdict: SpaceVerdict

    @property
    def free_variables(self) -> tuple[str, ...]:
        return tuple(self.ring.names[i] for i in _free_indices(self))

    @property
    def num_free_variables(self) -> int:
        return len(self.free_variables)

    def to_json_dict(self) -> dict:
        return {
            "characteristic": self.characteristic,
            "basis": list(self.basis),
            "variables": list(self.ring.names),
            "free_variables": list(self.free_variables),
            "ideal_generators": [poly_str(g) for g in self.ideal_generators],
            "inequations": [poly_str(u) for u in self.inequations],
            "matrix": [[poly_str(p) for p in row] for row in self.matrix],
            "substitutions": [
                {
                    "variable": self.ring.names[s.var],
                    "numerator": poly_str(s.numerator),
                    "denominator": poly_str(s.denominator),
                }
                for s in self.substitutions
            ],
            "verdict": self.verdict.value,
        }


@dataclass(frozen=True)
class RealizationMatrix:
    field: Field
    matrix: ExactMatrix

    def rows(self) -> list[list]:
        return [list(row) for row in self.matrix.rows]


def _simplify(ring, gens, ineqs):
    """The simplification loop: GB, inequation reduction, elimination.

    Returns (gens, ineqs, substitutions, empty) with empty=True when the
    presentation already proves the localized quotient is zero.
    """
    subs: list[Substitution] = []
    gens = list(gens)
    ineqs = list(ineqs)
    for _ in range(len(ring.names) + 2):
        gb = buchberger(Ideal(ring, gens))
        if gb.contains_one():
            return (ring.one(),), tuple(ineqs), tuple(subs), True
        gens = list(gb.elements)
        reduced = reduce_inequations(ineqs, gens)
        if reduced is None:
            return tuple(gens), tuple(ineqs), tuple(subs), True
        ineqs = list(reduced)
        step = eliminate_linear_variables(gens, ineqs)
        if not step.substitutions:
            break
        subs.extend(step.substitutions)
        gens = list(step.generators)
        ineqs = list(step.inequations)
    return tuple(gens), tuple(ineqs), tuple(subs), False


def realization_spaces(
    m: Matroid, characteristics: Sequence[int], simplify: bool = True
) -> tuple[RealizationSpace, ...]:
    """The realization spaces of m over the given characteristics, in order.

    The chart is choose_basis(m); its matrix and maximal minors are built
    once over Q.  The minors have integer coefficients and reduction mod p
    commutes with the determinant, so each characteristic maps them into
    its field.  The verdict is Empty exactly when the saturation of the
    defining ideal at the inequations is the unit ideal, which decides
    realizability over the algebraic closure.  Budget exhaustion yields
    verdict Undecided in that characteristic alone.  A trip in the
    simplification loop keeps the raw minors (no substitutions, the monic
    non-basis minors, every basis minor with constants and repeats); a trip
    in the saturation keeps the simplified presentation.
    """
    if not characteristics:
        return ()
    basis = choose_basis(m)
    rational_ring, rational_grid = build_parameterized_matrix(m, basis)
    minors = []
    if m.rank > 0:
        oracle = MinorOracle(rational_grid)
        minors = [
            (m.is_basis(sum(1 << c for c in cols)), oracle.det(cols))
            for cols in itertools.combinations(range(m.n), m.rank)
        ]
    spaces = []
    for characteristic in characteristics:
        field = field_of_characteristic(characteristic)
        ring = PolynomialRing(field, rational_ring.names)

        def into(p: Poly) -> Poly:
            terms = ((e, field.coerce(c)) for e, c in p.terms.items())
            return Poly(ring, {e: c for e, c in terms if not field.is_zero(c)})

        gens = []
        ineqs = []
        for is_basis, minor in minors:
            minor = into(minor)
            if is_basis:
                ineqs.append(minor)
            elif not minor.is_zero():
                gens.append(minor.monic())
        gens = sorted_unique(gens)

        subs: tuple = ()
        try:
            if simplify:
                gens, ineqs, subs, empty = _simplify(ring, gens, ineqs)
            else:
                reduced = reduce_inequations(ineqs, ())
                empty = reduced is None
                if not empty:
                    ineqs = reduced
            if empty or has_unit(saturate(Ideal(ring, gens), list(ineqs)).gens):
                verdict = SpaceVerdict.EMPTY
            else:
                verdict = SpaceVerdict.NONEMPTY
        except DegreeBudgetExceeded:
            verdict = SpaceVerdict.UNDECIDED
        spaces.append(
            RealizationSpace(
                matroid=m,
                characteristic=characteristic,
                basis=basis,
                ring=ring,
                matrix=tuple(tuple(map(into, row)) for row in rational_grid),
                ideal_generators=tuple(gens),
                inequations=tuple(ineqs),
                substitutions=tuple(subs),
                verdict=verdict,
            )
        )
    return tuple(spaces)


def realization_space(
    m: Matroid, characteristic: int, simplify: bool = True
) -> RealizationSpace:
    """The realization space of m over fields of the given characteristic:
    realization_spaces for that characteristic alone."""
    return realization_spaces(m, (characteristic,), simplify)[0]


def is_realizable(m: Matroid, characteristic: int):
    """True/False over the algebraic closure of the prime field; UNDECIDED
    when budgets ran out."""
    v = realization_space(m, characteristic).verdict
    if v is SpaceVerdict.NONEMPTY:
        return True
    if v is SpaceVerdict.EMPTY:
        return False
    return UNDECIDED


def _free_indices(space: RealizationSpace) -> list[int]:
    gone = {s.var for s in space.substitutions}
    return [i for i in range(len(space.ring.names)) if i not in gone]


def _search_points(space: RealizationSpace, q: int):
    """An iterator of (F_q, value dict) for the surviving variables'
    admissible points over F_q.

    A depth-first walk over the surviving variables in ring order, the
    first outermost, each running through ``iter_elements``.  Every
    generator and inequation is checked at the depth where its last
    variable is assigned, and constant ones once before the walk, so a
    prefix that already fails is never extended.  Admissibility is the
    conjunction of those checks: the points and their order are exactly
    those of the full enumeration of all q^k assignments.

    Each value tried at any depth is one search node.  The walk raises
    SearchBudgetExceeded on visiting more nodes than the budget's
    search_nodes, read when this function is called.
    """
    limit = current_budget().search_nodes
    fq = field_of_order(q)
    free = _free_indices(space)
    depth_of = {v: d for d, v in enumerate(free)}
    checks: list[list] = [[] for _ in free]  # (poly, must vanish) per depth
    for polys, vanish in (
        (space.ideal_generators, True),
        (space.inequations, False),
    ):
        for p in polys:
            used = p.variables()
            if used:
                checks[max(depth_of[v] for v in used)].append((p, vanish))
            elif fq.is_zero(p.evaluate({}, fq)) != vanish:
                return iter(())
    elems = list(fq.iter_elements())
    values: dict = {}
    nodes = 0

    def walk(d: int):
        nonlocal nodes
        if d == len(free):
            yield fq, dict(values)
            return
        var, here = free[d], checks[d]
        for a in elems:
            nodes += 1
            if nodes > limit:
                raise SearchBudgetExceeded(
                    f"point search over F_{q} exceeded {limit} nodes"
                )
            values[var] = a
            if all(
                fq.is_zero(p.evaluate(values, fq)) == vanish for p, vanish in here
            ):
                yield from walk(d + 1)

    return walk(0)


def _realizable_in(space: RealizationSpace, q: int) -> bool:
    """Whether the space has a point over F_q; Empty short-circuits to False."""
    if space.verdict is SpaceVerdict.EMPTY:
        return False
    for _ in _search_points(space, q):
        return True
    return False


def is_realizable_over_q(m: Matroid, q: int) -> bool:
    """Exhaustive realizability over the finite field with q elements.

    The characteristic-p space is simplified first; its surviving variables
    are enumerated over F_q.  An Empty verdict short-circuits to False
    since F_q embeds in the algebraic closure.
    """
    p, _ = factor_prime_power(q)
    return _realizable_in(realization_space(m, p), q)


def find_realization(m: Matroid, q: int) -> Optional[RealizationMatrix]:
    """An explicit r x n matrix over F_q realizing m, or None.

    The found point is pushed back through the substitution log (all
    denominators are invertible at admissible points) and the resulting
    matrix re-checked: its matroid must equal m on the nose.
    """
    p, _ = factor_prime_power(q)
    space = realization_space(m, p)
    if space.verdict is SpaceVerdict.EMPTY:
        return None
    for fq, values in _search_points(space, q):
        for sub in reversed(space.substitutions):
            num = sub.numerator.evaluate(values, fq)
            den = sub.denominator.evaluate(values, fq)
            if fq.is_zero(den):
                raise MatroidworksError(
                    "internal: unit denominator vanished at an admissible point"
                )
            values[sub.var] = fq.div(num, den)
        rows = [
            [entry.evaluate(values, fq) for entry in row]
            for row in space.matrix
        ]
        # rank 0 has one matroid per n, so there is nothing to check
        if m.rank > 0 and matroid_from_matrix(fq, rows) != m:
            raise MatroidworksError(
                "internal: realization verification failed"
            )
        return RealizationMatrix(fq, ExactMatrix.from_rows(fq, rows, m.n))
    return None


def realizability_table(m: Matroid, q_max: int) -> dict[int, bool]:
    """is_realizable_over_q for every prime power q <= q_max, ascending.

    One sweep builds the space of each prime p <= q_max, in ascending
    order, and each space is searched for every power of its prime.
    """
    prime_of: dict[int, int] = {}
    for q in range(2, q_max + 1):
        try:
            prime_of[q], _ = factor_prime_power(q)
        except InputError:
            continue
    primes = sorted(set(prime_of.values()))
    space_of = dict(zip(primes, realization_spaces(m, primes)))
    return {q: _realizable_in(space_of[p], q) for q, p in prime_of.items()}
