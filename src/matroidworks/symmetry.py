"""Permutations, matroid isomorphism, and automorphism groups.

The isomorphism search is plain backtracking over element images, pruned by
the per-element basis-degree invariant and by checking every r-subset of the
assigned prefix as soon as it is complete.  Whether each such subset is a
basis of the first matroid is settled once per search, before the walk, so
a node builds only the image masks and asks the second matroid's is_basis.
Ground sets are kept small (the guard is n <= 12), and the current budget's
search_nodes (errors.budget) caps the images tried in one search.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional, Sequence

from .errors import InputError, MatroidworksError, SearchBudgetExceeded, current_budget
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


def _closure(n: int, generators: Iterable[tuple]) -> frozenset:
    gens = [g for g in generators]
    idn = tuple(range(1, n + 1))
    seen = {idn}
    frontier = [idn]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = tuple(g[cur[i] - 1] for i in range(n))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return frozenset(seen)


class PermutationGroup:
    """Generated subgroup of S_n; the order comes from closing the generators."""

    __slots__ = ("n", "generators", "_elements")

    def __init__(self, n: int, generators: Sequence[Permutation]):
        for g in generators:
            if g.n != n:
                raise InputError("generator size mismatch")
        self.n = n
        self.generators = tuple(g for g in generators if not g.is_identity())
        self._elements = None

    def elements(self) -> frozenset:
        if self._elements is None:
            self._elements = _closure(self.n, [g.images for g in self.generators])
        return self._elements

    @property
    def order(self) -> int:
        return len(self.elements())

    def __contains__(self, p: Permutation) -> bool:
        return p.images in self.elements()

    def __repr__(self):
        return f"PermutationGroup(n={self.n}, order={self.order}, gens={list(self.generators)})"


def _basis_degrees(m: Matroid) -> list[int]:
    deg = [0] * (m.n + 1)
    for b in m.bases:
        for e in mask_elements(b):
            deg[e] += 1
    return deg


def _search_isomorphisms(
    m1: Matroid,
    m2: Matroid,
    find_all: bool,
):
    """Backtracking core; returns the image tuples found.  Each image tried
    is one node; more than the budget's search_nodes raises."""
    limit = current_budget().search_nodes
    n, r = m1.n, m1.rank
    if n > SEARCH_MAX_GROUND:
        raise SearchBudgetExceeded(
            f"ground set size {n} exceeds the search guard {SEARCH_MAX_GROUND}"
        )
    if (n, r, len(m1.bases)) != (m2.n, m2.rank, len(m2.bases)):
        return
    deg1, deg2 = _basis_degrees(m1), _basis_degrees(m2)
    if sorted(deg1[1:]) != sorted(deg2[1:]):
        return
    candidates = {
        e: [y for y in range(1, n + 1) if deg2[y] == deg1[e]] for e in range(1, n + 1)
    }
    # per depth e, for each r-subset of 1..e whose largest element is e: its
    # other elements, and whether it is a basis of m1
    settled = {
        e: [
            (c[:-1], m1.is_basis(mask_of(c, n)))
            for c in itertools.combinations(range(1, e + 1), r)
            if e in c
        ]
        for e in range(1, n + 1)
    }
    is_basis2 = m2.is_basis
    image_bit = [0] * (n + 1)  # 1 << (image - 1) per assigned element
    used = [False] * (n + 1)
    nodes = 0
    results = []

    def consistent(e: int) -> bool:
        for others, basis in settled[e]:
            img = image_bit[e]
            for x in others:
                img |= image_bit[x]
            if is_basis2(img) != basis:
                return False
        return True

    def dfs(e: int) -> bool:
        nonlocal nodes
        if e > n:
            results.append(tuple(b.bit_length() for b in image_bit[1:]))
            return not find_all
        for y in candidates[e]:
            if used[y]:
                continue
            nodes += 1
            if nodes > limit:
                raise SearchBudgetExceeded(f"isomorphism search exceeded {limit} nodes")
            image_bit[e] = 1 << (y - 1)
            used[y] = True
            if consistent(e) and dfs(e + 1):
                return True
            used[y] = False
        return False

    dfs(1)
    return results


def is_isomorphic(m1: Matroid, m2: Matroid) -> Optional[Permutation]:
    """A witnessing permutation (bases map to bases), or None."""
    found = _search_isomorphisms(m1, m2, False)
    if found:
        return Permutation(found[0])
    return None


def automorphism_group(m: Matroid) -> PermutationGroup:
    """Full automorphism group, returned through a small generating set."""
    all_images = _search_isomorphisms(m, m, True)
    perms = sorted(all_images)
    target = len(perms)
    generators: list[tuple] = []
    have = _closure(m.n, generators)
    for img in perms:
        if img not in have:
            generators.append(img)
            have = _closure(m.n, generators)
            if len(have) == target:
                break
    group = PermutationGroup(m.n, [Permutation(g) for g in generators])
    if group.order != target:
        raise MatroidworksError(
            f"generators span {group.order} permutations, expected {target}"
        )
    return group
