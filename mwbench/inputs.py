"""Benchmark inputs: basis lists built in plain Python, relabeled by seed.

Nothing here imports matroidworks, so building the inputs times no library
code.  Every input is written as a matroid JSON file ({"n", "rank",
"bases"}) and handed to ``mw`` with ``--file``; the program never sees a
catalog name, only the relabeled bases.
"""

from __future__ import annotations

import itertools
import json
import os
import random

# Rank-3 configurations given by their lines (3-point dependent sets).
_PAPPUS_LINES = [
    (1, 2, 3), (4, 5, 6), (7, 8, 9), (1, 5, 7), (2, 4, 7),
    (1, 6, 8), (3, 4, 8), (2, 6, 9), (3, 5, 9),
]
_MOEBIUS_KANTOR_LINES = [
    (i, (i % 8) + 1, ((i + 2) % 8) + 1) for i in range(1, 9)
]
_DESARGUES_LINES = [
    (1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 8), (2, 6, 9),
    (4, 6, 10), (3, 5, 8), (3, 7, 9), (5, 7, 10), (8, 9, 10),
]
# Vamos: unions of two of the pairs {1,2} {3,4} {5,6} {7,8}, except {5,6,7,8}.
_VAMOS_NON_BASES = [
    (1, 2, 3, 4), (1, 2, 5, 6), (1, 2, 7, 8), (3, 4, 5, 6), (3, 4, 7, 8),
]


def _avoiding(n: int, r: int, dependent) -> list[tuple[int, ...]]:
    bad = {frozenset(s) for s in dependent}
    return [
        s for s in itertools.combinations(range(1, n + 1), r)
        if frozenset(s) not in bad
    ]


def _det3(a, b, c) -> int:
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


def _binary_plane(modulus: int) -> list[tuple[int, ...]]:
    """Bases of the seven 0/1 columns j = 1..7 (binary expansion of j).

    Read mod 2 this is the Fano plane; read over Q (``modulus`` 0) the line
    {3, 5, 6} opens up and it is the non-Fano plane.
    """
    cols = {j: tuple((j >> i) & 1 for i in range(3)) for j in range(1, 8)}
    out = []
    for s in itertools.combinations(range(1, 8), 3):
        d = _det3(*(cols[j] for j in s))
        if (d % modulus if modulus else d) != 0:
            out.append(s)
    return out


def _spanning_trees(vertices: int) -> list[tuple[int, ...]]:
    """Bases of the cycle matroid of K_v; edges (i, j), i < j, lexicographic."""
    edges = list(itertools.combinations(range(1, vertices + 1), 2))
    out = []
    for s in itertools.combinations(range(len(edges)), vertices - 1):
        parent = list(range(vertices + 1))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        acyclic = True
        for k in s:
            u, v = (find(x) for x in edges[k])
            if u == v:
                acyclic = False
                break
            parent[u] = v
        if acyclic:
            out.append(tuple(k + 1 for k in s))
    return out


def _uniform(r: int, n: int) -> list[tuple[int, ...]]:
    return list(itertools.combinations(range(1, n + 1), r))


# name -> (n, function returning the basis list on 1..n)
BASIS_LISTS = {
    "fano": (7, lambda: _binary_plane(2)),
    "non_fano": (7, lambda: _binary_plane(0)),
    "k4": (6, lambda: _spanning_trees(4)),
    "k5": (10, lambda: _spanning_trees(5)),
    "vamos": (8, lambda: _avoiding(8, 4, _VAMOS_NON_BASES)),
    "pappus": (9, lambda: _avoiding(9, 3, _PAPPUS_LINES)),
    "moebius_kantor": (8, lambda: _avoiding(8, 3, _MOEBIUS_KANTOR_LINES)),
    "desargues": (10, lambda: _avoiding(10, 3, _DESARGUES_LINES)),
}
for _r, _n in [(3, 6), (3, 7), (4, 7), (4, 8), (5, 10), (6, 12)]:
    BASIS_LISTS[f"uniform({_r},{_n})"] = (_n, lambda r=_r, n=_n: _uniform(r, n))


def relabeling(name: str, n: int, seed: int | None) -> list[int]:
    """perm[e - 1] is the new label of element e; fixed by (seed, name).

    Seed None keeps the standard labels above.
    """
    perm = list(range(1, n + 1))
    if seed is not None:
        random.Random(f"{seed}:{name}").shuffle(perm)
    return perm


def matroid_json(name: str, seed: int | None) -> dict:
    n, build = BASIS_LISTS[name]
    perm = relabeling(name, n, seed)
    bases = sorted(sorted(perm[e - 1] for e in b) for b in build())
    return {"n": n, "rank": len(bases[0]), "bases": bases}


def write_inputs(names, seed: int | None, directory: str) -> dict[str, str]:
    """Write one relabeled JSON file per input name; returns name -> path."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for name in names:
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(matroid_json(name, seed), fh)
        paths[name] = path
    return paths
