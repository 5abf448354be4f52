"""Named matroids used throughout: projective-plane examples, Vamos, uniforms.

The arithmetic examples (Fano / non-Fano) are built from the 0/1 matrix whose
column j is the binary expansion of j, read over F_2 and Q respectively; the
configuration examples carry their standard non-basis lists.  Construction
always goes through the validating constructors, so each catalog entry is
checked against the exchange axiom at build time.
"""

from __future__ import annotations

import itertools
import re

from .errors import InputError
from .fields import prime_field, rationals
from .matroid import Matroid, matroid_from_bases, matroid_from_graph, matroid_from_matrix

_BINARY_COLUMNS = [[(j >> i) & 1 for j in range(1, 8)] for i in range(3)]


def fano() -> Matroid:
    """The seven points of the projective plane over F_2; 28 bases."""
    return matroid_from_matrix(prime_field(2), _BINARY_COLUMNS)


def non_fano() -> Matroid:
    """The same seven 0/1 columns read over Q; one Fano line opens up (29 bases)."""
    return matroid_from_matrix(rationals(), _BINARY_COLUMNS)


def _all_but(n: int, r: int, non_bases) -> Matroid:
    """The matroid whose bases are every r-subset of {1..n} not in non_bases."""
    skip = {frozenset(s) for s in non_bases}
    bases = [s for s in itertools.combinations(range(1, n + 1), r) if frozenset(s) not in skip]
    return matroid_from_bases(n, bases)


def vamos() -> Matroid:
    """Rank 4 on 8 elements; 65 bases.

    Ground set paired as {1,2} {3,4} {5,6} {7,8}; the unions of two pairs are
    circuit hyperplanes except {5,6,7,8}, which stays a basis.
    """
    return _all_but(8, 4, [(1, 2, 3, 4), (1, 2, 5, 6), (1, 2, 7, 8), (3, 4, 5, 6), (3, 4, 7, 8)])


def moebius_kantor() -> Matroid:
    """Rank 3 on 8 elements with the cyclic line list {i, i+1, i+3} mod 8."""
    return _all_but(8, 3, [(i, i % 8 + 1, (i + 2) % 8 + 1) for i in range(1, 9)])


def pappus() -> Matroid:
    """Rank 3 on 9 elements: the nine lines of the Pappus configuration."""
    lines = [
        (1, 2, 3), (4, 5, 6), (7, 8, 9), (1, 5, 7), (2, 4, 7),
        (1, 6, 8), (3, 4, 8), (2, 6, 9), (3, 5, 9),
    ]
    return _all_but(9, 3, lines)


def uniform(r: int, n: int) -> Matroid:
    if not 0 <= r <= n:
        raise InputError(f"uniform matroid needs 0 <= r <= n, got ({r}, {n})")
    if n < 1:
        raise InputError("ground set must be nonempty")
    bases = list(itertools.combinations(range(1, n + 1), r))
    return matroid_from_bases(n, bases)


def graphic_k4() -> Matroid:
    """Cycle matroid of the complete graph K4; edges in lexicographic order."""
    edges = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    return matroid_from_graph(edges)


_UNIFORM_RE = re.compile(r"^uniform\((\d+),\s*(\d+)\)$")

_NAMED = {
    "fano": fano,
    "non_fano": non_fano,
    "vamos": vamos,
    "moebius_kantor": moebius_kantor,
    "pappus": pappus,
    "k4": graphic_k4,
}


def catalog_names() -> list[str]:
    return sorted(_NAMED) + ["uniform(r,n)"]


def catalog(name: str) -> Matroid:
    """Look up a named matroid; uniform takes the form ``uniform(r,n)``."""
    key = name.strip().lower()
    if key in _NAMED:
        return _NAMED[key]()
    m = _UNIFORM_RE.match(key)
    if m:
        return uniform(int(m.group(1)), int(m.group(2)))
    raise InputError(
        f"unknown catalog name {name!r}; available: {', '.join(catalog_names())}"
    )
