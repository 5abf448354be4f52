"""Automorphism groups and isomorphism search."""

import itertools
import math
import random

import pytest
from helpers import apply_mask, compose, group_elements, permutation_from_cycles

from matroidworks.catalog import (
    fano,
    graphic_k4,
    moebius_kantor,
    non_fano,
    pappus,
    uniform,
    vamos,
)
from matroidworks.errors import InputError, SearchBudgetExceeded, budget
from matroidworks.matroid import mask_elements, matroid_from_bases, matroid_from_graph
from matroidworks.symmetry import (
    SEARCH_MAX_GROUND,
    Permutation,
    automorphism_group,
    is_isomorphic,
)


def rank2_example():
    """Rank 2 on four elements; the only non-basis pair is {3,4}."""
    bases = [c for c in itertools.combinations(range(1, 5), 2) if c != (3, 4)]
    return matroid_from_bases(4, bases)


def brute_force_automorphisms(m):
    found = []
    basis_set = set(m.bases)
    for images in itertools.permutations(range(1, m.n + 1)):
        p = Permutation(images)
        if {apply_mask(p, b) for b in m.bases} == basis_set:
            found.append(images)
    return found


def test_rank2_example_group_order_exhaustive():
    m = rank2_example()
    brute = brute_force_automorphisms(m)
    assert len(brute) == 4
    g = automorphism_group(m)
    assert g.order == 4
    assert sorted(group_elements(g)) == sorted(brute)


def test_fano_group_order():
    assert automorphism_group(fano()).order == 168


def test_k4_group_order_matches_brute_force():
    m = graphic_k4()
    brute = brute_force_automorphisms(m)
    g = automorphism_group(m)
    assert g.order == len(brute)
    assert group_elements(g) == set(brute)


def test_uniform_group_is_symmetric_group():
    m = uniform(2, 4)
    g = automorphism_group(m)
    assert g.order == 24
    assert group_elements(g) == set(brute_force_automorphisms(m))


@pytest.mark.parametrize(
    "r,n",
    sorted(
        {(r, n) for n in range(1, SEARCH_MAX_GROUND + 1) for r in (0, 1, n // 2, n - 1, n)}
    ),
)
def test_uniform_chain_order_is_n_factorial(r, n):
    # the stabilizer chain finds one automorphism per orbit point, so even
    # U(6,12), with 479,001,600 automorphisms, takes 77 search nodes
    with budget(search_nodes=n * (n + 1) // 2):
        assert automorphism_group(uniform(r, n)).order == math.factorial(n)


def test_every_group_element_preserves_bases():
    for m in [rank2_example(), graphic_k4(), uniform(2, 4)]:
        g = automorphism_group(m)
        basis_set = set(m.bases)
        for images in group_elements(g):
            p = Permutation(images)
            assert {apply_mask(p, b) for b in m.bases} == basis_set


def test_every_generator_preserves_bases():
    pool = [rank2_example(), graphic_k4(), fano(), non_fano(), vamos(), pappus()]
    pool += [moebius_kantor(), desargues(), graphic_k5(), uniform(5, 10)]
    for m in pool:
        basis_set = set(m.bases)
        for p in automorphism_group(m).generators:
            assert {apply_mask(p, b) for b in m.bases} == basis_set


def relabel(m, p):
    return matroid_from_bases(m.n, [apply_mask(p, b) for b in m.bases])


def test_isomorphism_reflexive_symmetric_on_relabelings():
    rng = random.Random(64)
    pool = [rank2_example(), graphic_k4(), uniform(2, 5), fano(), vamos()]
    for m in pool:
        assert is_isomorphic(m, m) is not None
        images = list(range(1, m.n + 1))
        rng.shuffle(images)
        p = Permutation(images)
        m2 = relabel(m, p)
        w = is_isomorphic(m, m2)
        assert w is not None
        # the witness really maps the basis family onto the target's
        assert sorted(
            (apply_mask(w, b) for b in m.bases), key=mask_elements
        ) == list(m2.bases)
        back = is_isomorphic(m2, m)
        assert back is not None


def brute_force_isomorphisms(m1, m2):
    """Every bijection mapping the bases of m1 onto those of m2: all n!
    permutations, tried on the non-basis r-sets, whose images must be the
    non-basis r-sets of m2."""
    n, r = m1.n, m1.rank
    if (n, r) != (m2.n, m2.rank):
        return set()

    def non_bases(m):
        bases = {frozenset(mask_elements(b)) for b in m.bases}
        return set(map(frozenset, itertools.combinations(range(1, n + 1), r))) - bases

    dep1, dep2 = non_bases(m1), non_bases(m2)
    if len(dep1) != len(dep2):
        return set()
    return {
        images
        for images in itertools.permutations(range(1, n + 1))
        if all(frozenset(images[e - 1] for e in d) in dep2 for d in dep1)
    }


def line_configuration(n, lines):
    """The rank-3 matroid on 1..n whose only dependent 3-sets are the lines."""
    lines = {frozenset(line) for line in lines}
    return matroid_from_bases(
        n, [c for c in itertools.combinations(range(1, n + 1), 3) if frozenset(c) not in lines]
    )


def random_line_configuration(rng, n):
    """Seeded lines on 1..n, any two meeting in at most one point."""
    lines = []
    for c in rng.sample(list(itertools.combinations(range(1, n + 1), 3)), 12):
        if all(len(set(c) & set(line)) <= 1 for line in lines):
            lines.append(c)
    return line_configuration(n, lines[: rng.randint(1, len(lines))])


def sorted_basis_degrees(m):
    return sorted(sum(1 for b in m.bases if b >> (e - 1) & 1) for e in range(1, m.n + 1))


def test_search_matches_brute_force_on_relabelings_and_line_configurations():
    rng = random.Random(18)
    catalog_pool = [fano(), non_fano(), graphic_k4(), uniform(2, 5), uniform(3, 7)]
    lines_pool = [random_line_configuration(rng, 7) for _ in range(6)]
    for m in catalog_pool + lines_pool:
        images = list(range(1, m.n + 1))
        rng.shuffle(images)
        m2 = relabel(m, Permutation(images))
        assert group_elements(automorphism_group(m2)) == brute_force_isomorphisms(m2, m2)
        witness = is_isomorphic(m, m2)
        assert witness is not None
        assert witness.images in brute_force_isomorphisms(m, m2)
    verdicts = set()
    for a, b in itertools.combinations(lines_pool, 2):
        brute = brute_force_isomorphisms(a, b)
        witness = is_isomorphic(a, b)
        assert (witness is None) == (not brute)
        assert witness is None or witness.images in brute
        verdicts.add(witness is None)
    assert verdicts == {True, False}


def test_subset_check_separates_equal_degree_configurations():
    # four lines on eight points each time: three of the first four meet
    # pairwise (a triangle), while the second four meet in a cycle; basis
    # counts and basis-degree sequences agree, so the subset check decides
    triangle = line_configuration(8, [(1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 7, 8)])
    cycle = line_configuration(8, [(1, 2, 3), (1, 4, 5), (2, 6, 7), (4, 6, 8)])
    assert len(triangle.bases) == len(cycle.bases)
    assert sorted_basis_degrees(triangle) == sorted_basis_degrees(cycle)
    assert brute_force_isomorphisms(triangle, cycle) == set()
    assert is_isomorphic(triangle, cycle) is None
    assert is_isomorphic(cycle, triangle) is None


def desargues():
    return line_configuration(10, [
        (1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 8), (2, 6, 9),
        (4, 6, 10), (3, 5, 8), (3, 7, 9), (5, 7, 10), (8, 9, 10),
    ])


def graphic_k5():
    return matroid_from_graph(list(itertools.combinations(range(1, 6), 2)))


@pytest.mark.parametrize(
    "build,order",
    [(vamos, 64), (pappus, 108), (moebius_kantor, 48), (desargues, 120), (graphic_k5, 120)],
)
def test_known_orders_under_seeded_relabelings(build, order):
    rng = random.Random(f"aut:{build.__name__}")
    m = build()
    for _ in range(3):
        images = list(range(1, m.n + 1))
        rng.shuffle(images)
        assert automorphism_group(relabel(m, Permutation(images))).order == order


def test_rank_zero_group_is_symmetric_group():
    m = matroid_from_bases(3, [[]])
    g = automorphism_group(m)
    assert g.order == 6
    assert group_elements(g) == set(itertools.permutations(range(1, 4)))
    assert is_isomorphic(m, m) is not None


def test_non_isomorphic_pairs():
    assert is_isomorphic(fano(), non_fano()) is None
    assert is_isomorphic(uniform(2, 4), uniform(3, 4)) is None
    assert is_isomorphic(uniform(2, 4), rank2_example()) is None


def test_ground_set_guard():
    big = uniform(1, SEARCH_MAX_GROUND + 1)
    with pytest.raises(SearchBudgetExceeded):
        automorphism_group(big)
    with pytest.raises(SearchBudgetExceeded):
        is_isomorphic(big, big)


def test_node_budget():
    with budget(search_nodes=5), pytest.raises(SearchBudgetExceeded):
        automorphism_group(pappus())
    with budget(search_nodes=5), pytest.raises(SearchBudgetExceeded):
        is_isomorphic(pappus(), pappus())
    assert automorphism_group(pappus()).order == 108


@pytest.mark.parametrize("build,nodes", [(fano, 38), (pappus, 278)])
def test_chain_node_count(build, nodes):
    # one budget for every search of one call: the chain on fano tries 38
    # images in all, on pappus 278, at the standard labels
    with budget(search_nodes=nodes - 1), pytest.raises(SearchBudgetExceeded):
        automorphism_group(build())
    with budget(search_nodes=nodes):
        automorphism_group(build())


def test_permutation_algebra():
    p = permutation_from_cycles(4, [(1, 2, 3)])
    q = permutation_from_cycles(4, [(3, 4)])
    assert p.apply(1) == 2 and p.apply(3) == 1
    comp = compose(p, q)
    # (p after q): 3 -> 4 -> 4
    assert comp.apply(3) == p.apply(q.apply(3))
    assert apply_mask(p, 0b0111) == 0b0111
    # no wrap-around through negative indexing, no IndexError past n
    for e in (0, -1, 5):
        with pytest.raises(InputError, match=f"element {e} outside 1..4"):
            p.apply(e)
