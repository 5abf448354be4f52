"""Realization spaces, realizability decisions, finite-field search.

Frozen presentations (free variables, ideal generators, inequations) were
derived by running the pipeline and cross-checking the verdicts against
the classical facts: Fano iff characteristic two, Moebius-Kantor iff the
field contains a primitive sixth root of unity, Pappus everywhere, Vamos
nowhere.
"""

import dataclasses
import itertools
import random

import pytest

from matroidworks.catalog import (
    catalog,
    fano,
    graphic_k4,
    moebius_kantor,
    non_fano,
    pappus,
    uniform,
    vamos,
)
from matroidworks.errors import (
    DegreeBudgetExceeded,
    InputError,
    LoopPresent,
    SearchBudgetExceeded,
    budget,
)
from matroidworks.cli import PROFILE_CHARACTERISTICS, main
from matroidworks.fields import (
    factor_prime_power,
    field_of_characteristic,
    field_of_order,
)
from matroidworks.linalg import MinorOracle
from matroidworks.matroid import (
    mask_elements,
    mask_of,
    matroid_from_bases,
    matroid_from_matrix,
)
from matroidworks.polynomials import PolynomialRing, poly_str
from matroidworks import groebner, realization
from matroidworks.realization import (
    UNDECIDED,
    RealizationSpace,
    SpaceVerdict,
    _free_indices,
    _search_points,
    build_parameterized_matrix,
    choose_basis,
    find_realization,
    is_realizable,
    is_realizable_over_q,
    realizability_table,
    realization_space,
    realization_spaces,
)


def test_undecided_sentinel_refuses_bool():
    with pytest.raises(TypeError):
        bool(UNDECIDED)
    assert repr(UNDECIDED) == "UNDECIDED"


def test_fano_profile():
    m = fano()
    for p in (0, 3, 5, 7, 11, 13):
        assert is_realizable(m, p) is False
    assert is_realizable(m, 2) is True


def test_fano_char2_space_is_rigid():
    space = realization_space(fano(), 2)
    assert space.verdict is SpaceVerdict.NONEMPTY
    assert space.num_free_variables == 0
    assert space.ideal_generators == ()


def test_non_fano_profile():
    m = non_fano()
    assert is_realizable(m, 0) is True
    assert is_realizable(m, 3) is True
    assert is_realizable(m, 5) is True
    assert is_realizable(m, 2) is False


def test_vamos_nowhere():
    m = vamos()
    for p in (0, 2, 3, 5, 7, 11, 13):
        assert is_realizable(m, p) is False


def test_k4_rigid_over_any_characteristic():
    m = graphic_k4()
    for p in (0, 2):
        space = realization_space(m, p)
        assert space.verdict is SpaceVerdict.NONEMPTY
        assert space.num_free_variables == 0
        assert space.ideal_generators == ()


def test_pappus_char0_presentation():
    space = realization_space(pappus(), 0)
    assert space.verdict is SpaceVerdict.NONEMPTY
    assert space.basis == (1, 2, 6)
    assert space.free_variables == ("x_{2,2}", "x_{2,4}")
    assert space.ideal_generators == ()
    assert len(space.inequations) == 7


def test_moebius_kantor_char0_presentation():
    space = realization_space(moebius_kantor(), 0)
    assert space.verdict is SpaceVerdict.NONEMPTY
    assert space.num_free_variables == 1
    gens = [poly_str(g) for g in space.ideal_generators]
    var = space.free_variables[0]
    assert gens == [f"{var}^2 - {var} + 1"]
    ineqs = sorted(poly_str(u) for u in space.inequations)
    assert ineqs == [var, f"{var} - 1"]


def test_moebius_kantor_table():
    table = realizability_table(moebius_kantor(), 13)
    assert set(table) == {2, 3, 4, 5, 7, 8, 9, 11, 13}
    assert {q for q, ok in table.items() if ok} == {3, 4, 7, 9, 13}


def test_uniform_small_everywhere():
    m = uniform(2, 4)
    for p in (0, 2, 3):
        assert is_realizable(m, p) is True
    # the projective line over F_q has q + 1 points, so F_2 is one short
    assert is_realizable_over_q(m, 2) is False
    assert is_realizable_over_q(m, 3) is True
    assert is_realizable_over_q(m, 4) is True


def test_verdict_independent_of_basis_choice():
    rng = random.Random(20)
    for m, expected in ((fano(), SpaceVerdict.EMPTY), (non_fano(), SpaceVerdict.NONEMPTY)):
        bases = [mask_elements(b) for b in m.bases]
        picks = rng.sample(bases, 4)
        default = choose_basis(m)
        if default not in picks:
            picks.append(default)
        for b in picks:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(realization, "choose_basis", lambda _, b=b: b)
                space = realization_space(m, 0)
            assert space.basis == b
            assert space.verdict is expected


def test_simplify_off_agrees_on_verdicts():
    for m, p, expected in (
        (fano(), 0, SpaceVerdict.EMPTY),
        (fano(), 2, SpaceVerdict.NONEMPTY),
        (graphic_k4(), 0, SpaceVerdict.NONEMPTY),
    ):
        raw = realization_space(m, p, simplify=False)
        assert raw.verdict is expected
        assert raw.substitutions == ()


def spy_on_rabinowitsch(monkeypatch):
    """The inequations whose Rabinowitsch run inside saturate raised
    DegreeBudgetExceeded, filled in as saturate runs."""
    tripped = []
    inner = groebner._saturate_by_one

    def spy(gens, u):
        try:
            return inner(gens, u)
        except DegreeBudgetExceeded:
            tripped.append(u)
            raise

    monkeypatch.setattr(groebner, "_saturate_by_one", spy)
    return tripped


@pytest.mark.parametrize(
    "m,simplify,limit", [(moebius_kantor(), True, 1), (vamos(), False, 5)],
    ids=["moebius_kantor", "vamos-no-simplify"],
)
def test_budget_trips_inside_saturation(monkeypatch, m, simplify, limit):
    # the limit lets simplification and the basis of the ideal finish, so
    # the budget runs out in a Rabinowitsch run; the verdict is Undecided
    # and the presentation is the one the unlimited run reports
    tripped = spy_on_rabinowitsch(monkeypatch)
    with budget(pair_reductions=limit):
        space = realization_space(m, 0, simplify)
    assert tripped
    assert space.verdict is SpaceVerdict.UNDECIDED
    full = realization_space(m, 0, simplify)
    assert full.verdict is not SpaceVerdict.UNDECIDED
    assert space == dataclasses.replace(full, verdict=SpaceVerdict.UNDECIDED)


def det3(rows, cols):
    """The 3 x 3 minor on the given columns, by cofactor expansion."""
    (a, b, c), (d, e, f), (g, h, i) = ([row[j] for j in cols] for row in rows)
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


@pytest.mark.parametrize("limit", [0, 2])
def test_budget_trips_inside_simplification(monkeypatch, limit):
    # a trip in the simplification loop keeps the raw minors: no
    # substitutions, the monic nonzero non-basis minors sorted once each,
    # and every basis minor in column order, constants and repeats included
    m = pappus()
    tripped = spy_on_rabinowitsch(monkeypatch)
    with budget(pair_reductions=limit):
        space = realization_space(m, 0)
    assert not tripped
    assert space.verdict is SpaceVerdict.UNDECIDED
    assert space.substitutions == ()
    basis_cols = {tuple(e - 1 for e in mask_elements(b)) for b in m.bases}
    minors = {
        cols: det3(space.matrix, cols) for cols in itertools.combinations(range(9), 3)
    }
    assert space.inequations == tuple(
        minors[cols] for cols in sorted(minors) if cols in basis_cols
    )
    assert space.ideal_generators == tuple(
        groebner.sorted_unique(
            p.monic()
            for cols, p in minors.items()
            if cols not in basis_cols and not p.is_zero()
        )
    )
    assert (len(space.ideal_generators), len(space.inequations)) == (6, 75)
    assert sum(u.is_constant() for u in space.inequations) == 17
    assert len({poly_str(u) for u in space.inequations}) == 48


def test_find_realization_round_trip():
    for m, q in ((pappus(), 11), (fano(), 2), (graphic_k4(), 5)):
        real = find_realization(m, q)
        assert real is not None
        rows = real.rows
        assert len(rows) == m.rank
        assert all(len(row) == m.n for row in rows)
        assert matroid_from_matrix(real.field, rows) == m


# the first realization each search finds, pinned before find_realization
# returned the ExactMatrix itself
REALIZATION_ROWS = [
    ("pappus", 11, [
        [1, 0, 1, 1, 1, 0, 1, 1, 0],
        [0, 1, 1, 2, 2, 0, 3, 0, 1],
        [0, 0, 0, 1, 8, 1, 1, 10, 8],
    ]),
    ("uniform(3,7)", 8, [
        [(1, 0, 0), (0, 0, 0), (0, 0, 0), (1, 0, 0), (1, 0, 0), (1, 0, 0), (1, 0, 0)],
        [(0, 0, 0), (1, 0, 0), (0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)],
        [(0, 0, 0), (0, 0, 0), (1, 0, 0), (1, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 0)],
    ]),
    ("uniform(3,7)", 9, [
        [(1, 0), (0, 0), (0, 0), (1, 0), (1, 0), (1, 0), (1, 0)],
        [(0, 0), (1, 0), (0, 0), (1, 0), (2, 0), (0, 1), (1, 1)],
        [(0, 0), (0, 0), (1, 0), (1, 0), (0, 1), (2, 0), (2, 2)],
    ]),
    ("uniform(0,3)", 2, []),
]


@pytest.mark.parametrize(
    "name,q,rows", REALIZATION_ROWS, ids=[f"{n}-F{q}" for n, q, _ in REALIZATION_ROWS]
)
def test_find_realization_rows(name, q, rows):
    real = find_realization(catalog(name), q)
    assert real.field == field_of_order(q)
    assert [list(row) for row in real.rows] == rows


def test_find_realization_none_when_empty():
    assert find_realization(fano(), 3) is None
    assert is_realizable_over_q(fano(), 3) is False


def test_search_budget_exceeded():
    # the first witness over F_11 is the seventh value tried
    with budget(search_nodes=6), pytest.raises(SearchBudgetExceeded):
        is_realizable_over_q(pappus(), 11)
    with budget(search_nodes=7):
        assert is_realizable_over_q(pappus(), 11) is True


def test_parameterized_matrix_needs_a_basis():
    with pytest.raises(InputError):
        build_parameterized_matrix(fano(), (1, 2, 3))  # a line of the plane


def test_loops_rejected():
    m = matroid_from_bases(3, [[1, 2]])
    assert m.loops()
    with pytest.raises(LoopPresent):
        realization_space(m, 0)


def test_rank_zero_and_full_rank():
    free = uniform(3, 3)
    space = realization_space(free, 0)
    assert space.verdict is SpaceVerdict.NONEMPTY
    assert find_realization(free, 2) is not None
    zero = uniform(1, 1).delete([1])
    assert realization_space(zero, 0).verdict is SpaceVerdict.NONEMPTY
    # rank 0 has nothing to verify: the realization is the 0 x 3 matrix
    found = find_realization(uniform(0, 3), 2)
    assert found is not None
    assert (found.nrows, found.ncols) == (0, 3)


def test_json_dict_shape():
    space = realization_space(moebius_kantor(), 0)
    d = space.to_json_dict()
    assert d["characteristic"] == 0
    assert d["verdict"] == "NonEmpty"
    assert len(d["free_variables"]) == 1
    assert len(d["matrix"]) == space.matroid.rank
    assert all(len(row) == space.matroid.n for row in d["matrix"])
    for sub in d["substitutions"]:
        assert set(sub) == {"variable", "numerator", "denominator"}


# -- point search against full enumeration ----------------------------------

_DESARGUES_LINES = [
    (1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 8), (2, 6, 9),
    (4, 6, 10), (3, 5, 8), (3, 7, 9), (5, 7, 10), (8, 9, 10),
]


def desargues():
    lines = {frozenset(line) for line in _DESARGUES_LINES}
    triples = itertools.combinations(range(1, 11), 3)
    return matroid_from_bases(10, [b for b in triples if frozenset(b) not in lines])


def brute_force_points(space, q):
    """Every assignment in itertools.product order, first variable
    outermost, kept when every generator vanishes and no inequation does."""
    fq = field_of_order(q)
    free = _free_indices(space)
    points = []
    for combo in itertools.product(list(fq.iter_elements()), repeat=len(free)):
        values = dict(zip(free, combo))
        if all(
            fq.is_zero(g.evaluate(values, fq)) for g in space.ideal_generators
        ) and not any(fq.is_zero(u.evaluate(values, fq)) for u in space.inequations):
            points.append(values)
    return points


def matrix_at(space, values, fq):
    """The realization matrix at a point: substitutions undone, then evaluated."""
    values = dict(values)
    for sub in reversed(space.substitutions):
        values[sub.var] = fq.div(
            sub.numerator.evaluate(values, fq), sub.denominator.evaluate(values, fq)
        )
    return [[entry.evaluate(values, fq) for entry in row] for row in space.matrix]


def searched(space, q):
    return [tuple(values.items()) for _, values in _search_points(space, q)]


SEARCH_ORACLE_MATROIDS = {
    "fano": fano,
    "non_fano": non_fano,
    "pappus": pappus,
    "moebius_kantor": moebius_kantor,
    "desargues": desargues,
    "uniform(3,6)": lambda: uniform(3, 6),
    "uniform(3,7)": lambda: uniform(3, 7),
}


@pytest.mark.parametrize("name", SEARCH_ORACLE_MATROIDS)
def test_search_points_match_full_enumeration(name):
    m = SEARCH_ORACLE_MATROIDS[name]()
    spaces = {}
    checked = 0
    for q in (2, 3, 4, 5, 7, 8):
        p, _ = factor_prime_power(q)
        if p not in spaces:
            spaces[p] = realization_space(m, p)
        space = spaces[p]
        if q ** space.num_free_variables > 50_000:
            continue
        checked += 1
        expected = brute_force_points(space, q)
        assert searched(space, q) == [tuple(v.items()) for v in expected]
        real = find_realization(m, q)
        if expected:
            assert [list(row) for row in real.rows] == matrix_at(space, expected[0], real.field)
        else:
            assert real is None
    assert checked >= 4


def test_search_checks_constant_constraints():
    space = realization_space(pappus(), 2)
    ring = space.ring
    assert searched(space, 4)
    for change in (
        {"inequations": space.inequations + (ring.zero(),)},
        {"ideal_generators": space.ideal_generators + (ring.one(),)},
        {"inequations": space.inequations + (ring.one(),)},
        {"ideal_generators": space.ideal_generators + (ring.zero(),)},
    ):
        altered = dataclasses.replace(space, **change)
        assert searched(altered, 4) == [
            tuple(v.items()) for v in brute_force_points(altered, 4)
        ]


@pytest.mark.parametrize("n", [5, 6, 7])
def test_uniform_rank3_table_matches_arc_bound(n):
    # U(3,n) is realizable over F_q exactly when PG(2,q) has an n-arc; the
    # largest arc has q + 1 points for odd q and q + 2 for even q.  At
    # q = 13 and n = 7 there are 13^6 assignments, far above the default
    # node budget, but the first-witness walk stops after a few nodes.
    table = realizability_table(uniform(3, n), 13)
    assert table == {q: n <= q + 1 + (q % 2 == 0) for q in table}
    assert sorted(table) == [2, 3, 4, 5, 7, 8, 9, 11, 13]


def count_chart_choices(monkeypatch):
    """The matroids passed to choose_basis, filled in as it runs."""
    chosen = []
    original = realization.choose_basis

    def counting(m):
        chosen.append(m)
        return original(m)

    monkeypatch.setattr(realization, "choose_basis", counting)
    return chosen


SWEEP_MATROIDS = [
    "fano", "non_fano", "vamos", "moebius_kantor", "pappus", "k4", "uniform(3,6)",
]


def count_minors(monkeypatch):
    """The columns of each top-level MinorOracle.det call, filled in as it runs."""
    taken = []
    original = MinorOracle.det

    def counting(self, cols):
        taken.append(tuple(cols))
        return original(self, cols)

    monkeypatch.setattr(MinorOracle, "det", counting)
    return taken


def test_sweeps_choose_one_chart_and_take_each_minor_once(monkeypatch, capsys):
    # realizable-q and realization --profile each sweep every characteristic
    # they need from one chart and one determinant per maximal minor
    chosen = count_chart_choices(monkeypatch)
    taken = count_minors(monkeypatch)
    for name in SWEEP_MATROIDS:
        m = catalog(name)
        minors = list(itertools.combinations(range(m.n), m.rank))
        chosen.clear()
        taken.clear()
        table = realizability_table(m, 13)
        assert (chosen, sorted(taken)) == ([m], minors)
        chosen.clear()
        taken.clear()
        assert main(["realization", "--profile", "--name", name]) == 0
        capsys.readouterr()
        assert (chosen, sorted(taken)) == ([m], minors)
        assert table == {q: is_realizable_over_q(m, q) for q in table}
        assert list(table) == [2, 3, 4, 5, 7, 8, 9, 11, 13]


CATALOG = {
    "fano": fano,
    "non_fano": non_fano,
    "vamos": vamos,
    "moebius_kantor": moebius_kantor,
    "pappus": pappus,
    "k4": graphic_k4,
}


@pytest.mark.parametrize("name", CATALOG)
def test_empty_presentations_have_no_points(name):
    """An Empty verdict's stored presentation has no F_p point either.

    When an inequation lies in the ideal the space keeps the inequations
    it had before that reduction; dropping them all would leave a
    presentation with points (non_fano in characteristic 2 has (1, 1, 1)).
    """
    m = CATALOG[name]()
    for p in (2, 3, 5, 7):
        space = realization_space(m, p)
        if space.verdict is SpaceVerdict.EMPTY and p ** space.num_free_variables <= 10_000:
            assert brute_force_points(space, p) == []


# -- the sweep against minors taken in each field -----------------------------


def reference_space(m, characteristic, simplify):
    """The space of one characteristic with no reduction mod p: the chart's
    grid is built in that characteristic's field and its minors are taken
    there by their own MinorOracle; the rest is the pipeline's body."""
    field = field_of_characteristic(characteristic)
    basis = choose_basis(m)
    b_elems, c_elems, plan = realization._matrix_skeleton(m, mask_of(basis, m.n))
    cells = [
        (i, j) for i in range(len(b_elems)) for j in range(len(c_elems))
        if plan[i][j] == "var"
    ]
    ring = PolynomialRing(field, [f"x_{{{i + 1},{j + 1}}}" for i, j in cells])
    grid = []
    for i in range(len(b_elems)):
        row = []
        for e in range(1, m.n + 1):
            if e in b_elems:
                row.append(ring.one() if b_elems.index(e) == i else ring.zero())
                continue
            j = c_elems.index(e)
            tag = plan[i][j]
            if tag == "var":
                row.append(ring.var(cells.index((i, j))))
            else:
                row.append(ring.one() if tag == "one" else ring.zero())
        grid.append(tuple(row))
    gens, ineqs = [], []
    if m.rank > 0:
        oracle = MinorOracle(grid)
        for cols in itertools.combinations(range(m.n), m.rank):
            minor = oracle.det(cols)
            if m.is_basis(sum(1 << c for c in cols)):
                ineqs.append(minor)
            elif not minor.is_zero():
                gens.append(minor.monic())
    gens = groebner.sorted_unique(gens)
    subs = ()
    try:
        if simplify:
            gens, ineqs, subs, empty = realization._simplify(ring, gens, ineqs)
        else:
            reduced = groebner.reduce_inequations(ineqs, ())
            empty = reduced is None
            ineqs = ineqs if empty else reduced
        ideal = groebner.Ideal(ring, gens)
        if empty or groebner.has_unit(groebner.saturate(ideal, list(ineqs)).gens):
            verdict = SpaceVerdict.EMPTY
        else:
            verdict = SpaceVerdict.NONEMPTY
    except DegreeBudgetExceeded:
        verdict = SpaceVerdict.UNDECIDED
    return RealizationSpace(
        m, characteristic, basis, ring, tuple(grid), tuple(gens), tuple(ineqs),
        tuple(subs), verdict,
    )


def assert_same_space(space, expected):
    assert space.to_json_dict() == expected.to_json_dict()
    assert space == expected


@pytest.mark.parametrize("simplify", [True, False], ids=["simplify", "no-simplify"])
@pytest.mark.parametrize("name", SWEEP_MATROIDS)
def test_sweep_matches_minors_taken_in_each_field(name, simplify):
    m = catalog(name)
    spaces = realization_spaces(m, PROFILE_CHARACTERISTICS, simplify)
    assert [s.characteristic for s in spaces] == list(PROFILE_CHARACTERISTICS)
    for space in spaces:
        assert_same_space(space, reference_space(m, space.characteristic, simplify))


def test_empty_sweep_chooses_no_chart(monkeypatch):
    chosen = count_chart_choices(monkeypatch)
    looped = matroid_from_bases(3, [[1, 2]])
    assert realization_spaces(looped, ()) == ()
    assert realizability_table(looped, 1) == {}
    assert chosen == []
    with pytest.raises(LoopPresent):
        realization_spaces(looped, (0, 2))
    with pytest.raises(LoopPresent):
        realizability_table(looped, 2)


@pytest.mark.parametrize("limit", [0, 2, 5])
def test_budget_trips_leave_the_sweep_alone(limit):
    # a budget caps each Groebner run, so every characteristic of the sweep
    # gets the spaces, Undecided or not, that it gets on its own
    m = pappus()
    with budget(pair_reductions=limit):
        swept = realization_spaces(m, PROFILE_CHARACTERISTICS)
        alone = [realization_space(m, c) for c in PROFILE_CHARACTERISTICS]
        for space, expected in zip(swept, alone):
            assert_same_space(space, expected)
            assert_same_space(space, reference_space(m, space.characteristic, True))
    assert (limit < 5) == all(s.verdict is SpaceVerdict.UNDECIDED for s in swept)


def test_trip_in_one_characteristic_keeps_the_others(monkeypatch):
    m = pappus()
    full = realization_spaces(m, PROFILE_CHARACTERISTICS)
    inner = realization._simplify

    def tripping(ring, gens, ineqs):
        if ring.field.characteristic == 3:
            raise DegreeBudgetExceeded("tripped in characteristic 3")
        return inner(ring, gens, ineqs)

    monkeypatch.setattr(realization, "_simplify", tripping)
    swept = realization_spaces(m, PROFILE_CHARACTERISTICS)
    for space, expected in zip(swept, full):
        if space.characteristic == 3:
            # the raw minors: no substitutions, every basis minor kept
            assert space.verdict is SpaceVerdict.UNDECIDED
            assert space.substitutions == ()
            assert len(space.inequations) == 75
            assert_same_space(space, reference_space(m, 3, True))
        else:
            assert_same_space(space, expected)
