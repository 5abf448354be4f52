"""Core matroid behaviour against brute-force oracles.

Every derived notion (rank, closure, flats, circuits, minors) is recomputed
here from the basis family by direct subset enumeration, so agreement is a
real cross-check rather than a restatement of the implementation.
"""

import itertools
import random

import pytest

from matroidworks.catalog import (
    catalog,
    catalog_names,
    fano,
    graphic_k4,
    moebius_kantor,
    non_fano,
    pappus,
    uniform,
    vamos,
)
from matroidworks.errors import (
    EmptyFamily,
    ExchangeAxiomViolation,
    InputError,
    UnequalBasisSizes,
)
from matroidworks.fields import prime_field, rationals
from matroidworks.matroid import (
    SUBSET_RANK_LIMIT,
    Matroid,
    SubsetFamily,
    _table_route,
    mask_elements,
    mask_of,
    matroid_from_bases,
    matroid_from_graph,
    matroid_from_json_dict,
    matroid_from_matrix,
    matroid_to_json_dict,
)
from test_invariants import relabeled
from test_realization import desargues


def battery():
    ms = [
        uniform(0, 1),
        uniform(1, 1),
        uniform(1, 3),
        uniform(2, 4),
        uniform(3, 5),
        uniform(4, 4),
        graphic_k4(),
        fano(),
        non_fano(),
        moebius_kantor(),
        vamos(),
    ]
    return ms


def all_subsets(n):
    return range(1 << n)


def rank_oracle(m, s):
    return max((s & b).bit_count() for b in m.bases)


def closure_oracle(m, s):
    r = rank_oracle(m, s)
    out = s
    for e in range(m.n):
        bit = 1 << e
        if not s & bit and rank_oracle(m, s | bit) == r:
            out |= bit
    return out


def is_independent(m, s):
    """Membership in the library's downward closure of the bases."""
    return s in m._independent_masks()


def independent_oracle(m, s):
    return any(b & s == s for b in m.bases)


def exchange_axiom_holds(n, bases):
    for b1 in bases:
        for b2 in bases:
            out = b1 & ~b2
            while out:
                x = out & -out
                inn = b2 & ~b1
                ok = False
                while inn:
                    y = inn & -inn
                    if (b1 & ~x) | y in bases:
                        ok = True
                        break
                    inn &= ~y
                if not ok:
                    return False
                out &= ~x
    return True


def fresh_inputs():
    """Matroids built without validation, so that no subset-rank table
    exists before the first query: loops and parallel edges, K4, and a
    matrix over F_3 with a zero column."""
    looped = matroid_from_graph([(1, 1), (1, 2), (1, 2), (2, 3), (1, 3), (3, 4), (4, 4)])
    k4 = matroid_from_graph([(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    cols = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 2, 0), (0, 0, 1), (1, 1, 1), (0, 0, 0)]
    matrix = matroid_from_matrix(prime_field(3), [[c[i] for c in cols] for i in range(3)])
    return [looped, k4, matrix]


def test_rank_closure_independence_exhaustive():
    # rank_of and closure read the subset-rank table, built on first use,
    # before and after the flats; the independent sets are never formed,
    # and the greedy rank of larger ground sets is checked on the same inputs
    for m in battery() + fresh_inputs():
        for flats_first in (False, True):
            bare = Matroid(m.n, m.bases, _validated=True)
            if flats_first:
                bare.flats()
            for s in all_subsets(m.n):
                assert bare.rank_of(s) == rank_oracle(m, s)
                assert bare.closure(s) == closure_oracle(m, s)
                assert bare.is_basis(s) == (rank_oracle(m, s) == s.bit_count() == m.rank)
            bare.circuits()
            assert bare._indep is None
        for s in all_subsets(m.n):
            assert bare._greedy_rank(s) == rank_oracle(m, s)
            assert is_independent(bare, s) == independent_oracle(m, s)


def test_no_independent_sets_up_to_the_table_limit():
    # each query alone on a fresh matroid at the limit; one element more
    # and ranks are greedy
    wide = uniform(2, SUBSET_RANK_LIMIT)
    for query in (
        lambda x: x.rank_of(1),
        lambda x: x.closure(1),
        lambda x: x.flats(),
        lambda x: x.flats(1),
        lambda x: x.circuits(),
    ):
        bare = Matroid(wide.n, wide.bases, _validated=True)
        query(bare)
        assert bare._ranks is not None and bare._indep is None
    past = uniform(2, SUBSET_RANK_LIMIT + 1)
    assert past.rank_of(7) == 2
    assert past._ranks is None and past._indep is not None


def test_masks_outside_the_ground_set_are_rejected():
    # a table matroid, a graph matroid (no table until the first query) and
    # a ground set past the table limit, whose greedy rank never ended on -1
    past = matroid_from_bases(SUBSET_RANK_LIMIT + 1, [[1, 2], [1, 3], [2, 3]])
    for m in (uniform(2, 4), graphic_k4(), past):
        for mask in (-1, -(1 << m.n), 1 << m.n, (1 << m.n) + 1, 1 << 70):
            for query in (m.rank_of, m.closure):
                with pytest.raises(InputError, match=f"subset mask {mask} outside"):
                    query(mask)
        assert m.rank_of(m.ground_mask) == m.rank
        assert m.closure(m.ground_mask) == m.ground_mask


def test_flats_are_exactly_closure_fixed_points():
    for m in battery():
        expect = sorted(
            {s for s in all_subsets(m.n) if closure_oracle(m, s) == s},
            key=mask_elements,
        )
        assert list(m.flats()) == expect
        for r in range(m.rank + 1):
            level = [f for f in expect if rank_oracle(m, f) == r]
            assert list(m.flats(r)) == level


def test_flats_by_rank():
    # the levels of the closure search are the rank levels
    names = [name for name in catalog_names() if name != "uniform(r,n)"]
    for m in [catalog(name) for name in names] + [uniform(5, 10)]:
        every = m.flats()
        for k in range(m.rank + 1):
            assert list(m.flats(k)) == [f for f in every if m.rank_of(f) == k]
        assert sum(len(m.flats(k)) for k in range(m.rank + 1)) == len(every)
        assert len(m.flats(-1)) == 0
        assert len(m.flats(m.rank + 1)) == 0


def larger_inputs():
    k5 = matroid_from_graph(list(itertools.combinations(range(1, 6), 2)))
    return [uniform(6, 12), desargues(), relabeled(k5, random.Random(5))]


def closure_search_levels(m):
    """The flats of each rank by the closure search: the closures of f + e
    over the flats f one rank lower, with ranks by basis scan."""
    rk = [rank_oracle(m, s) for s in all_subsets(m.n)]

    def closure(s):
        for e in range(m.n):
            if rk[s | 1 << e] == rk[s]:
                s |= 1 << e
        return s

    current = {closure(0)}
    seen = set(current)
    levels = []
    while current:
        levels.append(sorted(current, key=mask_elements))
        current = {closure(f | 1 << e) for f in current for e in range(m.n)} - seen
        seen |= current
    return levels


def circuits_by_scan(m):
    """Dependent sets by increasing size, kept when no kept set is inside."""
    found = []
    for size in range(1, m.n + 1):
        for combo in itertools.combinations(range(m.n), size):
            s = sum(1 << e for e in combo)
            if not independent_oracle(m, s) and not any(c & s == c for c in found):
                found.append(s)
    return sorted(found, key=mask_elements)


def test_flats_and_circuits_of_larger_inputs():
    for m in larger_inputs():
        assert m._ranks is not None  # kept from validation
        levels = closure_search_levels(m)
        assert [list(m.flats(k)) for k in range(m.rank + 1)] == levels
        assert list(m.circuits()) == circuits_by_scan(m)


def test_closure_search_matches_table_flats():
    # the closure search is the flats of ground sets past SUBSET_RANK_LIMIT
    for m in battery() + larger_inputs():
        levels = m._closure_search()
        assert [sorted(level, key=mask_elements) for level in levels] == [
            list(m.flats(k)) for k in range(m.rank + 1)
        ]
    big = matroid_from_bases(SUBSET_RANK_LIMIT + 1, [[1, 2], [1, 3], [2, 3]])
    assert big._rank_table() is None
    loops = mask_of(range(4, SUBSET_RANK_LIMIT + 2), big.n)
    assert set(big.flats()) == {f | loops for f in (0, 1, 2, 4, 7)}
    assert set(big.flats(1)) == {1 | loops, 2 | loops, 4 | loops}


def minimal_dependent_sets(m, max_size):
    """The dependent sets of at most max_size elements whose every subset
    one smaller is independent, by membership in the downward closure of
    the bases."""
    indep = m._independent_masks()
    found = []
    for size in range(1, max_size + 1):
        for combo in itertools.combinations(range(m.n), size):
            s = sum(1 << e for e in combo)
            if s not in indep and all(s & ~(1 << e) in indep for e in combo):
                found.append(s)
    return sorted(found, key=mask_elements)


def circuit_inputs():
    k5 = matroid_from_graph(list(itertools.combinations(range(1, 6), 2)))
    ms = [catalog(name) for name in catalog_names() if name != "uniform(r,n)"]
    ms += [uniform(r, n) for n in range(1, 10) for r in range(n + 1)]
    fresh = fresh_inputs()
    ms += [k5] + fresh
    rng = random.Random(11)
    return ms + [relabeled(m, rng) for m in (vamos(), pappus(), fresh[0], uniform(3, 7))]


def test_circuits_are_minimal_dependent_sets():
    for m in battery():
        dependent = [
            s for s in all_subsets(m.n) if s and not independent_oracle(m, s)
        ]
        minimal = [
            c
            for c in dependent
            if all(not (d & c == d and d != c) for d in dependent)
        ]
        assert set(m.circuits()) == set(minimal)

    for m in circuit_inputs():
        circuits = list(m.circuits())
        assert m._indep is None
        assert circuits == minimal_dependent_sets(m, m.n)

    # past the table limit, where circuits read the greedy rank: loops,
    # parallel classes and a triangle on 21 edges; a circuit has at most
    # rank + 1 elements
    edges = [(1, 1), (4, 4)] + [(1, 2)] * 7 + [(2, 3)] * 6 + [(1, 3)] * 6
    big = matroid_from_graph(edges)
    assert big.n == SUBSET_RANK_LIMIT + 1 and big._rank_table() is None
    assert list(big.circuits()) == minimal_dependent_sets(big, big.rank + 1)


def test_cryptomorphism_round_trips():
    # bases -> circuits -> independent sets -> maximal = bases again,
    # and bases -> rank function -> sets of full rank and basis size
    for m in battery():
        circuits = list(m.circuits())
        indep = [
            s
            for s in all_subsets(m.n)
            if all(c & s != c for c in circuits)
        ]
        top = max(s.bit_count() for s in indep)
        rebuilt = sorted(
            (s for s in indep if s.bit_count() == top), key=mask_elements
        )
        assert rebuilt == list(m.bases)
        via_rank = sorted(
            (
                s
                for s in all_subsets(m.n)
                if s.bit_count() == m.rank and rank_oracle(m, s) == m.rank
            ),
            key=mask_elements,
        )
        assert via_rank == list(m.bases)


def trusted_constructions():
    """Graphs, matrices and minors, which skip validation: loops and
    parallel edges, K4, a matrix over F_3 with a zero column, K5, fano,
    non_fano, and each one-element deletion and contraction and the
    truncation of the catalog matroids."""
    k5 = matroid_from_graph(list(itertools.combinations(range(1, 6), 2)))
    out = fresh_inputs() + [k5, fano(), non_fano()]
    for name in catalog_names():
        if name != "uniform(r,n)":
            m = catalog(name)
            out += [m.delete([e]) for e in range(1, m.n + 1)]
            out += [m.contract([e]) for e in range(1, m.n + 1)]
            out.append(m.truncate())
    return out


def test_exchange_axiom_on_battery_and_random_matrices():
    # a trusted construction must build exactly the family, in the same
    # order, that validating its own masks builds
    for m in battery() + trusted_constructions():
        assert exchange_axiom_holds(m.n, set(m.bases))
        assert m == matroid_from_bases(m.n, m.bases.masks)
    rng = random.Random(411)
    for _ in range(40):
        p = rng.choice([2, 3, 5])
        f = prime_field(p)
        r = rng.randint(1, 3)
        n = rng.randint(r, 6)
        rows = [[f.coerce(rng.randrange(p)) for _ in range(n)] for _ in range(r)]
        try:
            m = matroid_from_matrix(f, rows)
        except EmptyFamily:
            continue
        assert exchange_axiom_holds(m.n, set(m.bases))
        assert m == matroid_from_bases(m.n, m.bases.masks)
        for s in all_subsets(m.n):
            assert m.rank_of(s) == rank_oracle(m, s)


def test_matrix_matroid_rank_equals_matrix_rank():
    f = prime_field(2)
    cols = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [1, 1, 1]]
    m = matroid_from_matrix(f, [[c[i] for c in cols] for i in range(3)])
    assert m.rank == 3
    # {1,4,2} has a dependency over F_2: col1 + col2 = col4
    assert not is_independent(m, mask_of([1, 2, 4], 5))
    assert is_independent(m, mask_of([1, 2, 3], 5))


def test_construction_rejections():
    with pytest.raises(UnequalBasisSizes):
        matroid_from_bases(4, [[1, 2], [1, 2, 3]])
    with pytest.raises(ExchangeAxiomViolation):
        matroid_from_bases(4, [[1, 2], [3, 4]])
    with pytest.raises(EmptyFamily):
        matroid_from_bases(3, [])
    with pytest.raises(InputError):
        matroid_from_bases(3, [[0, 1]])
    with pytest.raises(InputError):
        matroid_from_bases(3, [[1, 4]])
    with pytest.raises(InputError):
        Matroid(3, ((1 << 1) | 1,))
    with pytest.raises(InputError):
        matroid_from_bases(64, [[1]])
    # the empty ground set is a SubsetFamily but never a validated input
    for n in (0, -1, "3"):
        message = f"ground set size must be a positive integer, got {n!r}"
        with pytest.raises(InputError, match=message):
            matroid_from_bases(n, [0])
    assert SubsetFamily(0, [0, 0]).masks == (0,)
    with pytest.raises(InputError, match="non-negative"):
        SubsetFamily(-1, [])
    # an int mask is checked before it is listed; the listing of -1 never ended
    with pytest.raises(InputError, match="mask -1 outside"):
        matroid_from_bases(3, [-1])
    with pytest.raises(InputError, match="mask 8 outside"):
        SubsetFamily(3, [8])


def test_loops_and_rank_zero():
    m = matroid_from_bases(4, [[1, 3]])
    assert m.loops() == (2, 4)
    z = matroid_from_bases(3, [0])
    assert z.rank == 0
    assert z.loops() == (1, 2, 3)
    assert list(z.flats()) == [z.ground_mask]


def test_delete_against_oracle():
    for m in [uniform(2, 4), fano(), graphic_k4(), vamos()]:
        for size in (1, 2):
            for combo in itertools.combinations(range(1, m.n + 1), size):
                s = mask_of(combo, m.n)
                got = m.delete(combo)
                keep = [
                    e for e in range(1, m.n + 1) if not s & (1 << (e - 1))
                ]
                relab = {e: i + 1 for i, e in enumerate(keep)}
                r = rank_oracle(m, m.ground_mask & ~s)
                expect = sorted(
                    {
                        mask_of(
                            [relab[e] for e in mask_elements(t)], len(keep)
                        )
                        for t in all_subsets(m.n)
                        if t & s == 0
                        and t.bit_count() == r
                        and independent_oracle(m, t)
                    },
                    key=mask_elements,
                )
                assert got.n == len(keep)
                assert list(got.bases) == expect


def test_contract_against_rank_oracle():
    # rank function of M/S is r(X u S) - r(S) on the surviving elements
    for m in [uniform(3, 5), fano(), graphic_k4()]:
        for combo in itertools.combinations(range(1, m.n + 1), 2):
            s = mask_of(combo, m.n)
            got = m.contract(combo)
            keep = [e for e in range(1, m.n + 1) if not s & (1 << (e - 1))]
            rs = rank_oracle(m, s)
            for t in all_subsets(len(keep)):
                back = mask_of(
                    [keep[i] for i in range(len(keep)) if t & (1 << i)], m.n
                )
                assert got.rank_of(t) == rank_oracle(m, back | s) - rs


def test_minors_to_empty_ground_set():
    m = uniform(2, 3)
    e = m.delete([1, 2, 3])
    assert e.n == 0 and e.rank == 0 and e.bases.masks == (0,)
    assert m.contract([1, 2, 3]) == e
    assert matroid_from_graph([]) == e
    for m in battery():
        everything = range(1, m.n + 1)
        assert m.delete(everything) == e and m.contract(everything) == e


def test_truncate():
    for m in [uniform(3, 5), fano(), vamos()]:
        t = m.truncate()
        assert t.rank == m.rank - 1
        expect = sorted(
            (
                s
                for s in all_subsets(m.n)
                if s.bit_count() == m.rank - 1 and independent_oracle(m, s)
            ),
            key=mask_elements,
        )
        assert list(t.bases) == expect
    with pytest.raises(InputError):
        matroid_from_bases(2, [0]).truncate()


def relabeled_minor(bases, keep):
    """Bases on the elements of keep, renumbered 1..|keep| in order."""
    kept = mask_elements(keep)
    relab = {e: i + 1 for i, e in enumerate(kept)}
    k = len(kept)
    fam = SubsetFamily(k, [[relab[e] for e in mask_elements(b)] for b in bases])
    return Matroid(k, fam, _validated=True)


def delete_by_independent_sets(m, s):
    """M \\ S as the independent sets of M avoiding S of size r(E - S)."""
    keep = m.ground_mask & ~s
    r = rank_oracle(m, keep)
    indep = m._independent_masks()
    return relabeled_minor([t for t in indep if t & s == 0 and t.bit_count() == r], keep)


def contract_by_independent_sets(m, s):
    """M / S as B - S over the bases B that contain one fixed maximal
    independent subset T of S (the lexicographically first)."""
    indep = m._independent_masks()
    t = 0
    for e in range(m.n):
        if s >> e & 1 and (t | 1 << e) in indep:
            t |= 1 << e
    keep = m.ground_mask & ~s
    return relabeled_minor([b & keep for b in m.bases if b & s == t], keep)


def truncate_by_independent_sets(m):
    indep = m._independent_masks()
    return relabeled_minor([t for t in indep if t.bit_count() == m.rank - 1], m.ground_mask)


def minor_battery():
    looped = matroid_from_graph([(1, 1), (1, 2), (2, 3), (1, 3), (3, 3), (3, 4)])
    ms = [catalog(name) for name in catalog_names() if name != "uniform(r,n)"]
    ms += [uniform(r, n) for n in range(1, 7) for r in range(n + 1)]
    return ms + [looped]


def test_minors_from_bases_match_independent_sets():
    # delete and contract read the bases meeting a set most, truncate drops
    # one element of each basis; the oracle enumerates independent sets
    pairs = 0
    for m in minor_battery():
        for s in range(1, 1 << m.n):
            if s == m.ground_mask:
                continue
            combo = mask_elements(s)
            assert m.delete(combo) == delete_by_independent_sets(m, s)
            assert m.contract(combo) == contract_by_independent_sets(m, s)
            pairs += 1
        if m.rank > 0:
            assert m.truncate() == truncate_by_independent_sets(m)
    assert pairs > 2000


def count_spanning_forests(nv, edges):
    best = -1
    forests = set()
    for k in range(len(edges) + 1):
        for combo in itertools.combinations(range(len(edges)), k):
            verts = {}

            def find(x):
                while verts.get(x, x) != x:
                    verts[x] = verts.get(verts[x], verts[x])
                    x = verts[x]
                return x

            ok = True
            for i in combo:
                a, b = edges[i]
                ra, rb = find(a), find(b)
                if ra == rb:
                    ok = False
                    break
                verts[ra] = rb
            if ok:
                if k > best:
                    best = k
                    forests = set()
                if k == best:
                    forests.add(combo)
    return best, forests


def test_graph_matroids():
    edges = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    m = matroid_from_graph(edges)
    assert m.n == 6 and m.rank == 3
    best, forests = count_spanning_forests(4, edges)
    assert best == 3
    expect = sorted(
        (mask_of([i + 1 for i in c], 6) for c in forests), key=mask_elements
    )
    assert list(m.bases) == expect

    # self-loop becomes a matroid loop, parallel edges become parallel elements
    g = matroid_from_graph([(1, 1), (1, 2), (1, 2)])
    assert g.loops() == (1,)
    assert g.rank == 1
    assert g.rank_of(mask_of([2, 3], 3)) == 1

    e = matroid_from_graph([])
    assert e.n == 0 and e.rank == 0


def test_json_round_trip_and_rejections():
    for m in battery():
        if m.n == 0:
            continue
        d = matroid_to_json_dict(m)
        assert matroid_from_json_dict(d) == m
    # "rank" is optional, but checked against the bases when present
    assert matroid_from_json_dict({"n": 3, "bases": [[1]]}) == matroid_from_bases(3, [[1]])
    with pytest.raises(InputError):
        matroid_from_json_dict({"n": 3, "rank": 1})
    with pytest.raises(InputError):
        matroid_from_json_dict({"n": 3, "rank": 1, "bases": [[1], [1]]})
    with pytest.raises(InputError):
        matroid_from_json_dict({"n": 3, "rank": 2, "bases": [[1]]})
    with pytest.raises(InputError):
        matroid_from_json_dict({"n": 2, "rank": 1, "bases": [[3]]})
    with pytest.raises(InputError):
        matroid_from_json_dict({"n": 0, "rank": 0, "bases": [[]]})


def pairwise_exchange_witness(masks):
    """First (A, B, x) in family order with no y in B - A making A - x + y a
    basis, found by the direct pairwise scan; None when the axiom holds."""
    basis_set = set(masks)
    for a in masks:
        for b in masks:
            for x in mask_elements(a & ~b):
                xbit = 1 << (x - 1)
                if not any(
                    (a & ~xbit) | (1 << (y - 1)) in basis_set
                    for y in mask_elements(b & ~a)
                ):
                    return mask_elements(a), mask_elements(b), x
    return None


def perturbed(m, rng):
    """The bases of m relabeled, then with one basis fewer and with one extra
    rank-sized set: mostly invalid, sometimes not."""
    perm = list(range(m.n))
    rng.shuffle(perm)
    valid = [sum(1 << perm[e - 1] for e in mask_elements(b)) for b in m.bases]
    extra = sum(1 << e for e in rng.sample(range(m.n), m.rank))
    return [valid, valid[:-1] or valid, valid + [extra]]


def embedded(m, n, rng):
    """The bases of m on rng-chosen elements of a ground set of size n."""
    spots = rng.sample(range(n), m.n)
    return [sum(1 << spots[e - 1] for e in mask_elements(b)) for b in m.bases]


def check_against_pairwise_scan(families):
    """Validation accepts exactly what the pairwise scan accepts and raises
    its witness otherwise; returns the set of outcomes seen."""
    outcomes = set()
    for n, masks in families:
        fam = SubsetFamily(n, masks)
        expect = pairwise_exchange_witness(fam.masks)
        if expect is None:
            assert matroid_from_bases(n, masks).bases == fam
        else:
            with pytest.raises(ExchangeAxiomViolation) as err:
                matroid_from_bases(n, masks)
            assert err.value.witness == expect
        outcomes.add(expect is None)
    return outcomes


def route(n, masks):
    sizes = {m.bit_count() for m in masks}
    return _table_route(n, len(set(masks)), sizes.pop())


def test_exchange_validation_on_both_routes():
    rng = random.Random(12)
    k5 = matroid_from_graph(list(itertools.combinations(range(1, 6), 2)))
    binary = [
        matroid_from_matrix(
            prime_field(2), [[rng.randrange(2) for _ in range(n)] for _ in range(4)]
        )
        for n in (9, 10, 10, 11)
    ]
    table = []
    for m in [pappus(), desargues(), k5, uniform(4, 9), uniform(3, 10)] + binary:
        table += [(m.n, masks) for masks in perturbed(m, rng)]
    for _ in range(60):
        n = rng.randint(9, 12)
        k = rng.randint(3, n - 3)
        ksets = [sum(1 << e for e in c) for c in itertools.combinations(range(n), k)]
        least = int(((1 << n) * n / k) ** 0.5) + 1
        table.append((n, rng.sample(ksets, rng.randint(least, min(len(ksets), 3 * least)))))
    scan = []
    for _ in range(60):
        n = rng.randint(16, 20)
        k = rng.randint(1, 4)
        scan.append((n, [sum(1 << e for e in rng.sample(range(n), k)) for _ in range(rng.randint(1, 12))]))
    for m in [uniform(2, 4), uniform(1, 5), uniform(3, 5), uniform(2, 5)]:
        for n in (16, 20):
            valid = embedded(m, n, rng)
            extra = sum(1 << e for e in rng.sample(range(n), m.rank))
            scan += [(n, valid), (n, valid[:-1] or valid), (n, valid + [extra])]
    table = [(n, masks) for n, masks in table if route(n, masks)]
    assert len(table) > 80
    assert not any(route(n, masks) for n, masks in scan)
    assert check_against_pairwise_scan(table) == {True, False}
    assert check_against_pairwise_scan(scan) == {True, False}


def test_exchange_validation_matches_pairwise_scan():
    rng = random.Random(11)
    families = []
    for m in battery() + [pappus(), uniform(3, 7)]:
        if m.n == 0 or m.rank == 0:
            continue
        perm = list(range(m.n))
        rng.shuffle(perm)
        valid = [
            sum(1 << perm[e - 1] for e in mask_elements(b)) for b in m.bases
        ]
        families.append((m.n, valid))
        # one basis fewer or one extra k-set: mostly invalid, sometimes not
        families.append((m.n, valid[:-1] or valid))
        extra = sum(1 << e for e in rng.sample(range(m.n), m.rank))
        families.append((m.n, valid + [extra]))
    for _ in range(300):
        # k = 1 and k = n - 1 families always satisfy the axiom
        n = rng.randint(4, 7)
        k = rng.randint(2, n - 2)
        ksets = [sum(1 << e for e in c) for c in itertools.combinations(range(n), k)]
        families.append((n, rng.sample(ksets, rng.randint(1, len(ksets)))))
    assert check_against_pairwise_scan(families) == {True, False}


def bit_loop_elements(mask):
    """The bit-at-a-time listing that mask_elements replaced: the reference."""
    out = []
    e = 1
    while mask:
        if mask & 1:
            out.append(e)
        mask >>= 1
        e += 1
    return tuple(out)


def test_mask_elements_matches_the_bit_loop():
    rng = random.Random(23)
    masks = list(range(1 << 12))
    masks += [rng.getrandbits(rng.randint(1, 63)) for _ in range(5000)]
    masks += [sum(1 << e for e in rng.sample(range(63), rng.randint(0, 8))) for _ in range(5000)]
    masks += [0, 1 << 62, (1 << 63) - 1, (1 << 64) - 1]
    for mask in masks:
        assert mask_elements(mask) == bit_loop_elements(mask)


def test_subset_family_canonical_order():
    fam = SubsetFamily(3, [[3], [1, 2], [1], [1, 2, 3]])
    assert fam.as_lists() == [[1], [1, 2], [1, 2, 3], [3]]
    assert mask_of([2], 3) not in fam
    assert mask_of([3], 3) in fam
    for s in range(1 << 3):
        assert (s in fam) == (s in fam.masks)


def test_catalog_shapes():
    assert len(fano().bases) == 28
    assert len(non_fano().bases) == 29
    assert len(vamos().bases) == 65
    assert len(pappus().bases) == 75
    assert len(moebius_kantor().bases) == 48
    assert graphic_k4().rank == 3
    assert uniform(2, 4).bases.masks == tuple(
        mask_of(c, 4) for c in itertools.combinations(range(1, 5), 2)
    )


def test_builder_guards():
    for edges in ([(1,)], [(0, 1)]):
        with pytest.raises(InputError):
            matroid_from_graph(edges)
    with pytest.raises(InputError):
        matroid_from_matrix(rationals(), [[]])
    for r, n in ((3, 2), (0, 0)):
        with pytest.raises(InputError):
            uniform(r, n)
