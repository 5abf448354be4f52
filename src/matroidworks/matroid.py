"""Matroids on ground set {1, ..., n} given by their bases.

Subsets are stored as int bitmasks (element e <-> bit e-1), which keeps every
ground set with n <= 63 cheap to hash and intersect.  The canonical order on a
family of subsets is lexicographic on the sorted element tuples, so ``{1,4}``
sorts before ``{2,3}``.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Optional, Sequence

from .errors import (
    EmptyFamily,
    ExchangeAxiomViolation,
    InputError,
    UnequalBasisSizes,
)

MAX_GROUND = 63


def mask_of(elements: Iterable[int], n: int) -> int:
    """Bitmask of a subset of {1..n}; validates the element range."""
    m = 0
    for e in elements:
        if not isinstance(e, int) or isinstance(e, bool) or not 1 <= e <= n:
            raise InputError(f"element {e!r} outside ground set 1..{n}")
        m |= 1 << (e - 1)
    return m


def mask_elements(mask: int) -> tuple[int, ...]:
    """Sorted tuple of the elements in a bitmask."""
    out = []
    e = 1
    while mask:
        if mask & 1:
            out.append(e)
        mask >>= 1
        e += 1
    return tuple(out)


class SubsetFamily:
    """An immutable, deduplicated family of subsets of {1..n} in canonical order."""

    __slots__ = ("n", "masks", "_members")

    def __init__(self, n: int, subsets: Iterable[int | Iterable[int]]):
        if not isinstance(n, int) or n < 1:
            raise InputError(f"ground set size must be a positive integer, got {n!r}")
        if n > MAX_GROUND:
            raise InputError(f"ground set size {n} exceeds the bitmask limit {MAX_GROUND}")
        seen = set()
        for s in subsets:
            m = s if isinstance(s, int) else mask_of(s, n)
            if m >> n:
                raise InputError(f"subset {mask_elements(m)} outside ground set 1..{n}")
            seen.add(m)
        self.n = n
        self.masks = tuple(sorted(seen, key=mask_elements))
        self._members = frozenset(seen)

    def __iter__(self) -> Iterator[int]:
        return iter(self.masks)

    def __len__(self) -> int:
        return len(self.masks)

    def __contains__(self, mask: int) -> bool:
        return mask in self._members

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SubsetFamily)
            and self.n == other.n
            and self.masks == other.masks
        )

    def __hash__(self) -> int:
        return hash((self.n, self.masks))

    def as_lists(self) -> list[list[int]]:
        return [list(mask_elements(m)) for m in self.masks]

    def __repr__(self) -> str:
        return f"SubsetFamily(n={self.n}, {self.as_lists()})"


class Matroid:
    """Immutable matroid; equality and hashing go by (n, bases).

    Construct through :func:`matroid_from_bases` (validates the exchange
    axiom) or the other ``matroid_from_*`` helpers.  Derived data (independent
    sets, rank table, flats, circuits) is computed lazily and cached; all
    operations returning matroids build fresh objects.
    """

    __slots__ = ("n", "bases", "rank", "_indep", "_flats", "_flat_levels", "_circuits")

    def __init__(self, n: int, basis_masks: tuple[int, ...], _validated: bool = False):
        if not _validated:
            raise InputError("use matroid_from_bases() to construct matroids")
        self.n = n
        self.bases = basis_masks
        self.rank = basis_masks[0].bit_count() if basis_masks else 0
        self._indep: Optional[frozenset[int]] = None
        self._flats = None
        self._flat_levels = None
        self._circuits = None

    # -- equality ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matroid)
            and self.n == other.n
            and self.bases == other.bases
        )

    def __hash__(self) -> int:
        return hash((self.n, self.bases))

    def __repr__(self) -> str:
        return f"Matroid(n={self.n}, rank={self.rank}, #bases={len(self.bases)})"

    # -- basic oracles -----------------------------------------------------

    @property
    def ground_mask(self) -> int:
        return (1 << self.n) - 1

    def basis_lists(self) -> list[list[int]]:
        return [list(mask_elements(b)) for b in self.bases]

    def _independent_masks(self) -> frozenset[int]:
        """All independent sets, as the downward closure of the bases."""
        if self._indep is None:
            seen = set(self.bases)
            frontier = list(self.bases)
            while frontier:
                m = frontier.pop()
                mm = m
                while mm:
                    low = mm & -mm
                    sub = m & ~low
                    if sub not in seen:
                        seen.add(sub)
                        frontier.append(sub)
                    mm &= ~low
            self._indep = frozenset(seen)
        return self._indep

    def is_independent(self, mask: int) -> bool:
        return mask in self._independent_masks()

    def rank_of(self, mask: int) -> int:
        """Rank of a subset: size of a greedily grown independent subset."""
        cur = 0
        mm = mask
        indep = self._independent_masks()
        while mm:
            low = mm & -mm
            if (cur | low) in indep:
                cur |= low
            mm &= ~low
        return cur.bit_count()

    def closure(self, mask: int) -> int:
        r = self.rank_of(mask)
        out = mask
        rest = self.ground_mask & ~mask
        while rest:
            low = rest & -rest
            if self.rank_of(mask | low) == r:
                out |= low
            rest &= ~low
        return out

    def loops(self) -> tuple[int, ...]:
        """Elements contained in no basis."""
        covered = 0
        for b in self.bases:
            covered |= b
        return mask_elements(self.ground_mask & ~covered)

    # -- derived families --------------------------------------------------

    def flats(self, rank: Optional[int] = None) -> SubsetFamily:
        """All flats; optionally only those of one rank.

        The closure search adds one element at a time, so its k-th level
        holds exactly the flats of rank k.
        """
        if self._flats is None:
            current = {self.closure(0)}
            all_flats = set(current)
            levels = []
            while current:
                levels.append(SubsetFamily(self.n, current))
                nxt = set()
                for f in current:
                    rest = self.ground_mask & ~f
                    while rest:
                        low = rest & -rest
                        g = self.closure(f | low)
                        nxt.add(g)
                        rest &= ~low
                nxt -= all_flats
                all_flats |= nxt
                current = nxt
            self._flats = SubsetFamily(self.n, all_flats)
            self._flat_levels = tuple(levels)
        if rank is None:
            return self._flats
        if 0 <= rank < len(self._flat_levels):
            return self._flat_levels[rank]
        return SubsetFamily(self.n, ())

    def circuits(self) -> SubsetFamily:
        """Minimal dependent sets, found by a popcount-ordered scan."""
        if self._circuits is None:
            indep = self._independent_masks()
            found: list[int] = []
            # any dependent set of size rank+1 contains a circuit, so the scan
            # can stop once subsets would exceed rank+1 elements
            for size in range(1, self.rank + 2):
                for combo in itertools.combinations(range(1, self.n + 1), size):
                    m = 0
                    for e in combo:
                        m |= 1 << (e - 1)
                    if m in indep:
                        continue
                    if any(c & m == c for c in found):
                        continue
                    found.append(m)
            self._circuits = SubsetFamily(self.n, found)
        return self._circuits

    # -- minors and friends ------------------------------------------------

    def delete(self, subset: Iterable[int]) -> "Matroid":
        s = mask_of(subset, self.n)
        keep = self.ground_mask & ~s
        if keep == 0:
            return Matroid(0, (0,), _validated=True)
        r = self.rank_of(keep)
        indep = self._independent_masks()
        new_bases = {m for m in indep if m & s == 0 and m.bit_count() == r}
        return _relabel_to_prefix(self.n, new_bases, keep)

    def contract(self, subset: Iterable[int]) -> "Matroid":
        s = mask_of(subset, self.n)
        keep = self.ground_mask & ~s
        if keep == 0:
            return Matroid(0, (0,), _validated=True)
        # fix the lexicographically first maximal independent subset of s
        t = 0
        mm = s
        indep = self._independent_masks()
        while mm:
            low = mm & -mm
            if (t | low) in indep:
                t |= low
            mm &= ~low
        new_bases = {b & ~s for b in self.bases if b & s == t}
        return _relabel_to_prefix(self.n, new_bases, keep)

    def truncate(self) -> "Matroid":
        if self.rank == 0:
            raise InputError("cannot truncate a rank-0 matroid")
        indep = self._independent_masks()
        new_bases = tuple(
            sorted(
                (m for m in indep if m.bit_count() == self.rank - 1),
                key=mask_elements,
            )
        )
        return Matroid(self.n, new_bases, _validated=True)


def _relabel_to_prefix(n: int, basis_masks: Iterable[int], keep: int) -> Matroid:
    """Relabel the surviving elements (bits of keep) to 1..k preserving order."""
    table = {}
    new = 0
    for e in range(1, n + 1):
        if keep >> (e - 1) & 1:
            new += 1
            table[e] = new
    k = len(table)
    out = set()
    for m in basis_masks:
        nm = 0
        for e in mask_elements(m):
            nm |= 1 << (table[e] - 1)
        out.add(nm)
    return Matroid(k, tuple(sorted(out, key=mask_elements)), _validated=True)


# -- constructors ----------------------------------------------------------


def matroid_from_bases(n: int, bases: Iterable[Iterable[int] | int]) -> Matroid:
    """Validate the basis-exchange axiom eagerly and build the matroid.

    Raises EmptyFamily, UnequalBasisSizes, or ExchangeAxiomViolation (with a
    witnessing triple) when the family is not the basis family of a matroid.
    """
    fam = SubsetFamily(n, bases)
    if len(fam) == 0:
        raise EmptyFamily("a matroid needs at least one basis")
    sizes = {m.bit_count() for m in fam}
    if len(sizes) != 1:
        raise UnequalBasisSizes(f"bases of different sizes: {sorted(sizes)}")
    basis_set = fam._members
    ground = (1 << n) - 1
    for a in fam.masks:
        # One mask per x in A, ascending: x itself plus every y outside A
        # with A - x + y a basis.  B passes the exchange test at x exactly
        # when it meets that mask (x in B means x is not in A - B), so each
        # (A, B, x) check is one AND and the loops keep the order A, B, x.
        reach = []
        rest = a
        while rest:
            x = rest & -rest
            mask = x
            out = ground & ~a
            while out:
                y = out & -out
                if (a ^ x) | y in basis_set:
                    mask |= y
                out ^= y
            reach.append(mask)
            rest ^= x
        for b in fam.masks:
            for mask in reach:
                if not mask & b:
                    raise ExchangeAxiomViolation(
                        mask_elements(a), mask_elements(b), mask_elements(mask & a)[0]
                    )
    return Matroid(n, fam.masks, _validated=True)


def matroid_from_graph(edges: Sequence[tuple[int, int]]) -> Matroid:
    """Graphic matroid of a multigraph; ground set = edges in input order.

    Vertices are positive integers.  Parallel edges are fine; a self-loop
    becomes a matroid loop.  Bases are the maximum spanning forests; no
    edges at all gives the empty matroid.
    """
    if not edges:
        return Matroid(0, (0,), _validated=True)
    verts = set()
    for uv in edges:
        if len(uv) != 2:
            raise InputError(f"edge {uv!r} is not a vertex pair")
        u, v = uv
        if not isinstance(u, int) or not isinstance(v, int) or u < 1 or v < 1:
            raise InputError(f"vertex index out of range in edge {uv!r}")
        verts.add(u)
        verts.add(v)
    n = len(edges)
    if n > MAX_GROUND:
        raise InputError(f"too many edges ({n}) for the bitmask limit {MAX_GROUND}")

    def is_forest(edge_idx: Iterable[int]) -> bool:
        parent = {v: v for v in verts}
        for i in edge_idx:
            u, v = edges[i]
            ru, rv = _find(parent, u), _find(parent, v)
            if ru == rv:
                return False
            parent[ru] = rv
        return True

    r = len(verts) - _component_count(verts, edges)
    bases = []
    for combo in itertools.combinations(range(n), r):
        if is_forest(combo):
            m = 0
            for i in combo:
                m |= 1 << i
            bases.append(m)
    if not bases:
        bases = [0]
    return Matroid(n, tuple(sorted(bases, key=mask_elements)), _validated=True)


def _find(parent: dict, x: int) -> int:
    """Union-find root of x, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _component_count(verts: set[int], edges: Sequence[tuple[int, int]]) -> int:
    """Connected components of the graph on verts (which hold every endpoint)."""
    parent = {v: v for v in verts}
    for u, v in edges:
        parent[_find(parent, u)] = _find(parent, v)
    return len({_find(parent, v) for v in verts})


def matroid_from_matrix(field, rows: Sequence[Sequence]) -> Matroid:
    """Column matroid of a matrix over an exact field.

    ``rows`` is a list of rows of field elements (or ints, coerced).  The
    ground set is the columns 1..n; bases are the column subsets of size
    rank(X) that are linearly independent.
    """
    from .linalg import ExactMatrix

    x = ExactMatrix.from_rows(field, rows)
    n = x.ncols
    if n < 1:
        raise InputError("matrix needs at least one column")
    if n > MAX_GROUND:
        raise InputError(f"too many columns ({n}) for the bitmask limit {MAX_GROUND}")
    r = x.rank()
    bases = []
    for combo in itertools.combinations(range(n), r):
        if x.column_submatrix(combo).rank() == r:
            m = 0
            for i in combo:
                m |= 1 << i
            bases.append(m)
    if not bases:
        bases = [0]
    return Matroid(n, tuple(sorted(bases, key=mask_elements)), _validated=True)


# -- JSON ------------------------------------------------------------------


def matroid_to_json_dict(m: Matroid) -> dict:
    return {"n": m.n, "rank": m.rank, "bases": m.basis_lists()}


def matroid_from_json_dict(data) -> Matroid:
    """Strict parser for the interchange dict {"n":..,"bases":[..]}.

    An optional "rank" field must equal the size of the bases.
    """
    if not isinstance(data, dict):
        raise InputError("matroid JSON must be an object")
    for key in ("n", "bases"):
        if key not in data:
            raise InputError(f"matroid JSON missing field {key!r}")
    n = data["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InputError(f"invalid ground set size {n!r}")
    bases_raw = data["bases"]
    if not isinstance(bases_raw, list):
        raise InputError("bases must be a list of element lists")
    seen = set()
    masks = []
    for b in bases_raw:
        if not isinstance(b, list):
            raise InputError(f"basis {b!r} is not a list")
        if len(set(b)) != len(b):
            raise InputError(f"basis {b!r} repeats an element")
        m = mask_of(b, n)
        if m in seen:
            raise InputError(f"duplicate basis {sorted(b)}")
        seen.add(m)
        masks.append(m)
    matroid = matroid_from_bases(n, masks)
    if "rank" in data and matroid.rank != data["rank"]:
        raise InputError(
            f"declared rank {data['rank']!r} but bases have size {matroid.rank}"
        )
    return matroid
