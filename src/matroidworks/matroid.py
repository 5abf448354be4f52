"""Matroids on ground set {1, ..., n} given by their bases.

Subsets are stored as int bitmasks (element e <-> bit e-1), which keeps every
ground set with n <= 63 cheap to hash and intersect.  The canonical order on a
family of subsets is lexicographic on the sorted element tuples, so ``{1,4}``
sorts before ``{2,3}``; ``SubsetFamily`` is the one place that sorts into it.
A matroid's bases are one such family, ``Matroid.bases``.  Only
``matroid_from_bases`` validates a family; the graph, matrix and minor
constructors build valid families by construction and hand their masks to
one trusted builder.

Up to n = SUBSET_RANK_LIMIT a matroid's rank function is its subset-rank
table, a bytearray holding r(S) = max_B |S & B| for every subset mask S.  It
is built once and cached: by ``matroid_from_bases`` when it validates through
the table, and otherwise on first use.  Ranks, closures, flats, circuits, the
Tutte subset sum and the Ingleton search all read it.  Only larger ground
sets keep the independent sets (the downward closure of the bases), for
greedy ranks, and find their flats by the closure search.
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
# Largest ground set with a subset-rank table: 2^20 bytes, and about n times
# that while the table is checked.
SUBSET_RANK_LIMIT = 20


def mask_of(elements: Iterable[int], n: int) -> int:
    """Bitmask of a subset of {1..n}; validates the element range."""
    m = 0
    for e in elements:
        if not isinstance(e, int) or isinstance(e, bool) or not 1 <= e <= n:
            raise InputError(f"element {e!r} outside ground set 1..{n}")
        m |= 1 << (e - 1)
    return m


# _BYTE_ELEMENTS[k][b]: the elements of byte value b at byte k of a mask.
# Built on the first call, so that importing the package stays cheap.
_BYTE_ELEMENTS: list[list[tuple[int, ...]]] = []


def mask_elements(mask: int) -> tuple[int, ...]:
    """Sorted tuple of the elements in a bitmask 0 <= mask < 2^64."""
    table = _BYTE_ELEMENTS
    if not table:
        low = [tuple(e for e in range(1, 9) if b >> (e - 1) & 1) for b in range(256)]
        table[:] = [[tuple(e + 8 * k for e in t) for t in low] for k in range(8)]
    out = ()
    k = 0
    while mask:
        out += table[k][mask & 255]
        mask >>= 8
        k += 1
    return out


class SubsetFamily:
    """An immutable, deduplicated family of subsets of {1..n} in canonical
    order; n = 0 is the empty ground set, whose one subset is mask 0."""

    __slots__ = ("n", "masks", "_members")

    def __init__(self, n: int, subsets: Iterable[int | Iterable[int]]):
        if not isinstance(n, int) or n < 0:
            raise InputError(f"ground set size must be a non-negative integer, got {n!r}")
        if n > MAX_GROUND:
            raise InputError(f"ground set size {n} exceeds the bitmask limit {MAX_GROUND}")
        seen = set()
        for s in subsets:
            m = s if isinstance(s, int) else mask_of(s, n)
            if m < 0 or m >> n:
                raise InputError(f"subset mask {m} outside ground set 1..{n}")
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

    ``bases`` is the canonical ``SubsetFamily`` of basis masks: ``mask in
    m.bases`` tests a basis and ``m.bases.as_lists()`` lists them.  Construct
    through :func:`matroid_from_bases` (validates the exchange axiom) or the
    other ``matroid_from_*`` helpers.  Derived data (the subset-rank table,
    flats by rank, circuits, and past SUBSET_RANK_LIMIT the independent sets)
    is computed lazily and cached; all operations returning matroids build
    fresh objects.
    """

    __slots__ = ("n", "bases", "rank", "_indep", "_ranks", "_flat_levels", "_circuits")

    def __init__(self, n: int, bases: SubsetFamily, _validated: bool = False):
        if not _validated:
            raise InputError("use matroid_from_bases() to construct matroids")
        self.n = n
        self.bases = bases
        self.rank = bases.masks[0].bit_count()
        self._indep: Optional[frozenset[int]] = None
        self._ranks: Optional[bytearray] = None
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

    def is_basis(self, mask: int) -> bool:
        return mask in self.bases

    def _independent_masks(self) -> frozenset[int]:
        """All independent sets, as the downward closure of the bases; the
        greedy rank's oracle past SUBSET_RANK_LIMIT."""
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

    def _rank_table(self) -> Optional[bytearray]:
        """The subset-rank table, built once; None past SUBSET_RANK_LIMIT."""
        if self._ranks is None and self.n <= SUBSET_RANK_LIMIT:
            self._ranks = subset_rank_table(self.n, self.bases, self.rank)
        return self._ranks

    def _rank_reader(self):
        """r(S) for a subset mask S already checked: a table lookup up to
        SUBSET_RANK_LIMIT, else the size of a greedily grown independent
        subset."""
        ranks = self._rank_table()
        return ranks.__getitem__ if ranks is not None else self._greedy_rank

    def _greedy_rank(self, mask: int) -> int:
        cur = 0
        mm = mask
        indep = self._independent_masks()
        while mm:
            low = mm & -mm
            if (cur | low) in indep:
                cur |= low
            mm &= ~low
        return cur.bit_count()

    def rank_of(self, mask: int) -> int:
        """Rank of a subset mask of the ground set."""
        if mask >> self.n:
            raise InputError(f"subset mask {mask} outside ground set 1..{self.n}")
        return self._rank_reader()(mask)

    def closure(self, mask: int) -> int:
        r = self.rank_of(mask)
        rank_of = self._rank_reader()
        out = mask
        rest = self.ground_mask & ~mask
        while rest:
            low = rest & -rest
            if rank_of(mask | low) == r:
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

        With the subset-rank table, S is a flat of rank r(S) when every
        e outside S has r(S + e) > r(S).  Past the table's limit a closure
        search adds one element at a time, so its k-th level holds exactly
        the flats of rank k.
        """
        if self._flat_levels is None:
            ranks = self._rank_table()
            if ranks is None:
                levels = self._closure_search()
            else:
                levels = _flat_levels(ranks, self.n, self.rank)
            self._flat_levels = tuple(SubsetFamily(self.n, level) for level in levels)
        if rank is None:
            return SubsetFamily(self.n, [f for level in self._flat_levels for f in level])
        if 0 <= rank < len(self._flat_levels):
            return self._flat_levels[rank]
        return SubsetFamily(self.n, ())

    def _closure_search(self) -> list[set[int]]:
        """The flats of each rank, from the closures of f + e over the flats
        f one rank lower."""
        bits = [1 << e for e in range(self.n)]
        current = {self.closure(0)}
        seen = set(current)
        levels = []
        while current:
            levels.append(current)
            current = {self.closure(f | b) for f in current for b in bits if not f & b} - seen
            seen |= current
        return levels

    def circuits(self) -> SubsetFamily:
        """Minimal dependent sets: the C with r(C) < |C| and r(C - e) =
        |C| - 1 for every e in C."""
        if self._circuits is None:
            rank_of = self._rank_reader()
            bits = [1 << e for e in range(self.n)]
            found: list[int] = []
            # a circuit has at most rank + 1 elements
            for size in range(1, self.rank + 2):
                for combo in itertools.combinations(bits, size):
                    m = sum(combo)
                    if rank_of(m) < size and all(rank_of(m ^ b) == size - 1 for b in combo):
                        found.append(m)
            self._circuits = SubsetFamily(self.n, found)
        return self._circuits

    # -- minors and friends ------------------------------------------------

    def delete(self, subset: Iterable[int]) -> "Matroid":
        """M \\ S: the sets B - S of largest size over the bases B."""
        s = mask_of(subset, self.n)
        keep = self.ground_mask & ~s
        new_bases = {b & keep for b in _meeting_most(self.bases, keep)}
        return _relabel_to_prefix(new_bases, keep)

    def contract(self, subset: Iterable[int]) -> "Matroid":
        """M / S: the sets B - S over the bases B that meet S most."""
        s = mask_of(subset, self.n)
        keep = self.ground_mask & ~s
        new_bases = {b & keep for b in _meeting_most(self.bases, s)}
        return _relabel_to_prefix(new_bases, keep)

    def truncate(self) -> "Matroid":
        """The truncation: the sets B - e over the bases B and e in B."""
        if self.rank == 0:
            raise InputError("cannot truncate a rank-0 matroid")
        new_bases = [b & ~(1 << (e - 1)) for b in self.bases for e in mask_elements(b)]
        return _trusted_matroid(self.n, new_bases)


def _meeting_most(bases: SubsetFamily, s: int) -> list[int]:
    """The bases B with |B & s| largest: B & s is then a basis of M | s."""
    r = max((b & s).bit_count() for b in bases)
    return [b for b in bases if (b & s).bit_count() == r]


def _relabel_to_prefix(basis_masks: Iterable[int], keep: int) -> Matroid:
    """Relabel the surviving elements (bits of keep) to 1..k preserving order."""
    kept = mask_elements(keep)
    bit = {e: 1 << i for i, e in enumerate(kept)}
    return _trusted_matroid(
        len(kept), [sum(bit[e] for e in mask_elements(m)) for m in basis_masks]
    )


# -- the subset-rank table --------------------------------------------------
#
# The table is built and checked in "spread" vectors: 2^n bytes read as one
# little-endian int, byte S holding the value at subset mask S.  Shifting
# right by 8 * 2^e moves the value at S + e to S, so one shift and one AND act
# on all 2^n subsets at once.

_PLUS_ONE = bytes(range(1, 256)) + b"\x00"


def _equal_to(k: int) -> bytes:
    """Translation table sending byte k to 1 and every other byte to 0."""
    return bytes(v == k for v in range(256))


def _popcounts(n: int) -> bytearray:
    """|S| for every subset mask S of {1..n}."""
    out = bytearray(1)
    for _ in range(n):
        out += out.translate(_PLUS_ONE)
    return out


def _missing(n: int, e: int) -> int:
    """Spread 0/1 vector of the subsets without bit e."""
    block = b"\x01" * (1 << e) + bytes(1 << e)
    return int.from_bytes(block * (1 << (n - 1 - e)), "little")


def subset_rank_table(n: int, masks: Iterable[int], rank: int) -> bytearray:
    """r(S) = max |S & B| over the masks B, all of size rank, for every
    subset mask S of {1..n}.

    r(S) >= k exactly when S contains a k-set of the downward closure of
    the masks, so level k is the upward closure of those k-sets and r(S)
    is the number of levels that hold S.
    """
    size = 1 << n
    family = bytearray(size)
    for m in masks:
        family[m] = 1
    missing = [_missing(n, e) for e in range(n)]
    down = int.from_bytes(family, "little")
    for e, miss in enumerate(missing):
        down |= (down & ~miss) >> (8 << e)
    popcounts = _popcounts(n)
    total = 0
    for k in range(1, rank + 1):
        up = down & int.from_bytes(popcounts.translate(_equal_to(k)), "little")
        for e, miss in enumerate(missing):
            up |= (up & miss) << (8 << e)
        total += up
    return bytearray(total.to_bytes(size, "little"))


def _rank_keepers(ranks: bytearray, n: int, rank: int):
    """The non-spanning rank levels, as spread 0/1 vectors, and for each
    element e the spread vector of L_e: the non-spanning S without e that
    have r(S + e) = r(S)."""
    levels = [int.from_bytes(ranks.translate(_equal_to(k)), "little") for k in range(rank)]
    keepers = []
    for e in range(n):
        shift = 8 << e
        keep = 0
        for level in levels:
            keep |= level & (level >> shift)
        keepers.append(keep & _missing(n, e))
    return levels, keepers


def _is_rank_function(ranks: bytearray, n: int, rank: int) -> bool:
    """Whether the table of a family is a matroid rank function.

    r(empty) = 0 and r(S) <= r(S + e) <= r(S) + 1 hold by construction, so
    only local submodularity is left (Oxley, Matroid Theory, 1.3): when
    r(S + e) = r(S + f) = r(S), also r(S + e + f) = r(S).  A spanning S
    passes at once, so the test reads S in L_e and L_f and asks that S + e
    be in L_f.
    """
    _, keepers = _rank_keepers(ranks, n, rank)
    for e in range(n):
        shift = 8 << e
        for f in range(e + 1, n):
            if keepers[e] & keepers[f] & ~(keepers[f] >> shift):
                return False
    return True


def _flat_levels(ranks: bytearray, n: int, rank: int) -> list[list[int]]:
    """The flats of each rank: the S with no e outside keeping r(S + e) =
    r(S).  The ground set is the one spanning flat."""
    levels, keepers = _rank_keepers(ranks, n, rank)
    loose = 0
    for keep in keepers:
        loose |= keep
    size = 1 << n
    out = [
        list(itertools.compress(range(size), (level & ~loose).to_bytes(size, "little")))
        for level in levels
    ]
    out.append([size - 1])
    return out


def _table_route(n: int, num_bases: int, rank: int) -> bool:
    """Whether validation checks the subset-rank table (cost about 2^n * n)
    rather than scanning pairs of bases (cost about |B|^2 * r)."""
    return n <= SUBSET_RANK_LIMIT and (1 << n) * n <= num_bases * num_bases * rank


# -- constructors ----------------------------------------------------------


def _trusted_matroid(n: int, basis_masks: Iterable[int]) -> Matroid:
    """The matroid on {1..n} whose bases are known to be the masks given:
    the door for every constructor that builds a valid family by
    construction.  The masks may repeat and come in any order."""
    return Matroid(n, SubsetFamily(n, basis_masks), _validated=True)


def matroid_from_bases(n: int, bases: Iterable[Iterable[int] | int]) -> Matroid:
    """Validate the basis-exchange axiom eagerly and build the matroid.

    Raises EmptyFamily, UnequalBasisSizes, or ExchangeAxiomViolation (with a
    witnessing triple) when the family is not the basis family of a matroid.

    Where the subset-rank table costs no more than the pairwise scan
    (``_table_route``), the family is accepted when r(S) = max_B |S & B| is
    a matroid rank function, whose bases are then exactly the family, and
    the table is kept on the matroid.  Otherwise, and for a family the
    table rejects, the pairwise scan decides, so the witness is the first
    failing (A, B, x) in family order on either route.
    """
    if not isinstance(n, int) or n < 1:
        raise InputError(f"ground set size must be a positive integer, got {n!r}")
    fam = SubsetFamily(n, bases)
    if len(fam) == 0:
        raise EmptyFamily("a matroid needs at least one basis")
    sizes = {m.bit_count() for m in fam}
    if len(sizes) != 1:
        raise UnequalBasisSizes(f"bases of different sizes: {sorted(sizes)}")
    rank = sizes.pop()
    if _table_route(n, len(fam), rank):
        ranks = subset_rank_table(n, fam.masks, rank)
        if _is_rank_function(ranks, n, rank):
            m = Matroid(n, fam, _validated=True)
            m._ranks = ranks
            return m
    _check_exchange(fam)
    return Matroid(n, fam, _validated=True)


def _check_exchange(fam: SubsetFamily) -> None:
    """Raise ExchangeAxiomViolation at the first (A, B, x) in family order
    with no y in B - A making A - x + y a basis."""
    basis_set = fam._members
    ground = (1 << fam.n) - 1
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


def matroid_from_graph(edges: Sequence[tuple[int, int]]) -> Matroid:
    """Graphic matroid of a multigraph; ground set = edges in input order.

    Vertices are positive integers.  Parallel edges are fine; a self-loop
    becomes a matroid loop.  Bases are the maximum spanning forests; no
    edges at all gives the empty matroid.
    """
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

    return _independent_r_subsets(n, len(verts) - _component_count(verts, edges), is_forest)


def _independent_r_subsets(n: int, r: int, independent) -> Matroid:
    """The matroid whose bases are the r-subsets of 0..n-1 (edges or
    columns) that pass ``independent``; r is the rank, so some r-subset
    does, and for r = 0 the empty one."""
    combos = itertools.combinations(range(n), r)
    return _trusted_matroid(n, [sum(1 << i for i in c) for c in combos if independent(c)])


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
    return _independent_r_subsets(n, r, lambda combo: x.column_submatrix(combo).rank() == r)


# -- JSON ------------------------------------------------------------------


def matroid_to_json_dict(m: Matroid) -> dict:
    return {"n": m.n, "rank": m.rank, "bases": m.bases.as_lists()}


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
