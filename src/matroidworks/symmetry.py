"""Permutations, matroid isomorphism, and automorphism groups.

The isomorphism search is plain backtracking over element images, pruned by
the per-element basis-degree invariant and by checking every r-subset of the
assigned prefix as soon as it is complete.  Whether each such subset is a
basis of the first matroid is settled once per search, before the walk, so
a node builds only the image masks and asks the second matroid's is_basis.
The automorphism group comes from a stabilizer chain: one search per orbit
point, never the whole group.  Ground sets are kept small (the guard is
n <= 12), and the current budget's search_nodes (errors.budget) caps the
images tried in one isomorphism test, or in all the searches of one
automorphism group.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from .errors import InputError, SearchBudgetExceeded, current_budget
from .matroid import Matroid, mask_elements, mask_of

SEARCH_MAX_GROUND = 12


class Permutation:
    """Bijection of {1..n}; images[i-1] is the image of i."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        images = tuple(images)
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise InputError(f"{images!r} is not a permutation of 1..{n}")
        self.images = images

    @property
    def n(self) -> int:
        return len(self.images)

    def apply(self, e: int) -> int:
        if not 1 <= e <= self.n:
            raise InputError(f"element {e!r} outside 1..{self.n}")
        return self.images[e - 1]

    def is_identity(self) -> bool:
        return all(img == i + 1 for i, img in enumerate(self.images))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its smallest element."""
        seen = set()
        out = []
        for start in range(1, self.n + 1):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            cur = self.apply(start)
            while cur != start:
                cyc.append(cur)
                seen.add(cur)
                cur = self.apply(cur)
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        cyc = self.cycles()
        if not cyc:
            return "Permutation(id)"
        return "Permutation(" + "".join(
            "(" + " ".join(map(str, c)) + ")" for c in cyc
        ) + ")"


class PermutationGroup:
    """Subgroup of S_n given by generators and its order."""

    __slots__ = ("n", "generators", "order")

    def __init__(self, n: int, generators: Sequence[Permutation], order: int):
        for g in generators:
            if g.n != n:
                raise InputError("generator size mismatch")
        self.n = n
        self.generators = tuple(g for g in generators if not g.is_identity())
        self.order = order

    def __repr__(self):
        return f"PermutationGroup(n={self.n}, order={self.order}, gens={list(self.generators)})"


def _basis_degrees(m: Matroid) -> list[int]:
    deg = [0] * (m.n + 1)
    for b in m.bases:
        for e in mask_elements(b):
            deg[e] += 1
    return deg


def _search_isomorphisms(m1: Matroid, m2: Matroid):
    """Backtracking core.  Returns None when the basis counts or degree
    sequences differ, else (find, candidates): find(i, firsts) gives the
    images of the first isomorphism that fixes 1..i-1 and sends i into
    firsts, or None; candidates[e] lists the images of matching degree.
    Each image tried is one node, counted across every find of one search;
    more than the budget's search_nodes raises."""
    limit = current_budget().search_nodes
    n, r = m1.n, m1.rank
    if n > SEARCH_MAX_GROUND:
        raise SearchBudgetExceeded(
            f"ground set size {n} exceeds the search guard {SEARCH_MAX_GROUND}"
        )
    if (n, r, len(m1.bases)) != (m2.n, m2.rank, len(m2.bases)):
        return None
    deg1, deg2 = _basis_degrees(m1), _basis_degrees(m2)
    if sorted(deg1[1:]) != sorted(deg2[1:]):
        return None
    candidates = [[]] + [
        [y for y in range(1, n + 1) if deg2[y] == deg1[e]] for e in range(1, n + 1)
    ] + [[]]
    # per depth e, for each r-subset of 1..e whose largest element is e: its
    # other elements, and whether it is a basis of m1
    settled = [[]] + [
        [
            (c[:-1], m1.is_basis(mask_of(c, n)))
            for c in itertools.combinations(range(1, e + 1), r)
            if e in c
        ]
        for e in range(1, n + 1)
    ]
    is_basis2 = m2.is_basis
    image_bit = [0] * (n + 1)  # 1 << (image - 1) per assigned element
    used = [False] * (n + 1)
    nodes = 0

    def consistent(e: int) -> bool:
        for others, basis in settled[e]:
            img = image_bit[e]
            for x in others:
                img |= image_bit[x]
            if is_basis2(img) != basis:
                return False
        return True

    def dfs(e: int, ys: Sequence[int]) -> bool:
        nonlocal nodes
        if e > n:
            return True
        for y in ys:
            if used[y]:
                continue
            nodes += 1
            if nodes > limit:
                raise SearchBudgetExceeded(f"isomorphism search exceeded {limit} nodes")
            image_bit[e] = 1 << (y - 1)
            used[y] = True
            if consistent(e) and dfs(e + 1, candidates[e + 1]):
                return True
            used[y] = False
        return False

    def find(i: int, firsts: Sequence[int]) -> Optional[tuple]:
        for e in range(1, n + 1):
            image_bit[e] = 1 << (e - 1) if e < i else 0
            used[e] = e < i
        if dfs(i, firsts):
            return tuple(b.bit_length() for b in image_bit[1:])
        return None

    return find, candidates


def _orbit(point: int, generators: Sequence[tuple]) -> set:
    orbit = {point}
    frontier = [point]
    while frontier:
        x = frontier.pop()
        for g in generators:
            y = g[x - 1]
            if y not in orbit:
                orbit.add(y)
                frontier.append(y)
    return orbit


def is_isomorphic(m1: Matroid, m2: Matroid) -> Optional[Permutation]:
    """A witnessing permutation (bases map to bases), or None."""
    search = _search_isomorphisms(m1, m2)
    if search is None:
        return None
    find, candidates = search
    found = find(1, candidates[1])
    return None if found is None else Permutation(found)


def automorphism_group(m: Matroid) -> PermutationGroup:
    """Full automorphism group by a stabilizer chain.  For i = n down to 1
    the generators found so far fix 1..i-1; each point y > i of i's degree
    outside the orbit of i gets one search for an automorphism that fixes
    1..i-1 and sends i to y.  A hit joins the generators; a miss rules out
    the orbit of y.  The order is the product of the orbit lengths."""
    find, candidates = _search_isomorphisms(m, m)
    generators: list[tuple] = []
    order = 1
    for i in range(m.n, 0, -1):
        orbit, excluded = {i}, set()
        for y in candidates[i]:
            if y <= i or y in orbit or y in excluded:
                continue
            images = find(i, (y,))
            if images is None:
                excluded |= _orbit(y, generators)
            else:
                generators.append(images)
                orbit = _orbit(i, generators)
        order *= len(orbit)
    return PermutationGroup(m.n, [Permutation(g) for g in generators], order)
