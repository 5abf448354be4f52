"""Automorphism groups and isomorphism search."""

import itertools
import random

import pytest
from helpers import apply_mask, compose, permutation_from_cycles

from matroidworks.catalog import fano, graphic_k4, non_fano, pappus, uniform, vamos
from matroidworks.errors import SearchBudgetExceeded, budget
from matroidworks.matroid import mask_elements, matroid_from_bases
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
    assert sorted(p for p in g.elements()) == sorted(brute)


def test_fano_group_order():
    assert automorphism_group(fano()).order == 168


def test_k4_group_order_matches_brute_force():
    m = graphic_k4()
    assert automorphism_group(m).order == len(brute_force_automorphisms(m))


def test_uniform_group_is_symmetric_group():
    m = uniform(2, 4)
    assert automorphism_group(m).order == 24


def test_every_group_element_preserves_bases():
    for m in [rank2_example(), graphic_k4(), uniform(2, 4)]:
        g = automorphism_group(m)
        basis_set = set(m.bases)
        for images in g.elements():
            p = Permutation(images)
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


def test_permutation_algebra():
    p = permutation_from_cycles(4, [(1, 2, 3)])
    q = permutation_from_cycles(4, [(3, 4)])
    assert p.apply(1) == 2 and p.apply(3) == 1
    comp = compose(p, q)
    # (p after q): 3 -> 4 -> 4
    assert comp.apply(3) == p.apply(q.apply(3))
    assert apply_mask(p, 0b0111) == 0b0111
