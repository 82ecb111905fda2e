"""The pruned RGHW search against exhaustive candidate enumeration.

The search skips lead groups by the footprint bound, tries only realized
leads, visits groups best bound first and stops scoring a group once the
maximum reaches its bound.  None of that may change the maximum: these
tests compare it with a walk over every admissible candidate set and check
that the witness attains it.  The search runs on the calling thread for
every `threads` value.  On product point sets the footprint bound's own
witness answers in place of the walk; the tests of the walk call it
directly, and those of the witness check it against the walk and the
Cartesian formula.
"""

import functools
import random
from itertools import product
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from evalcodes import (
    DEFAULT_BUDGET,
    GREVLEX,
    GRLEX,
    LEX,
    BudgetExceededError,
    PointSet,
    Polynomial,
    PrimeField,
    RghwProblem,
    cartesian_problem,
    cartesian_rghw_formula,
    gaussian_binomial,
    normal_form,
    relative_footprint,
    rghw_degree,
    toric_problem,
)
from evalcodes import codes, weights
from evalcodes.cli import load_problem, resolve_problem
from evalcodes.field import reduce_rows, rref_mod
from evalcodes.groebner import _root_product
from evalcodes.weights import _bound_tree, _narrow, _product_witness
from evalcodes.weights import _search_max_zeros

from oracles import (
    _footprint_survivors,
    brute_max_candidate_zeros,
    brute_relative_footprint,
    brute_variety_count,
    monic_rows,
    monic_walk_search,
    outer_narrow,
    pp_rank,
    reference_bound_tree,
)

SETTINGS = settings(
    derandomize=True,
    database=None,
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def searched(problem, r, budget=DEFAULT_BUDGET):
    """(max zeros, witness rows as lists) of the candidate walk."""
    zeros, rows = _search_max_zeros(problem, r, budget)
    return zeros, [[int(v) for v in row] for row in rows]


def check_witness(problem, r, zeros, rows):
    """The witness is an admissible set with exactly `zeros` common zeros."""
    polys = [problem.poly_from_coefficients(row) for row in rows]
    assert len(polys) == r
    assert brute_variety_count(problem.points, polys) == zeros
    leads = [f.lead_monomial(problem.order) for f in polys]
    assert len(set(leads)) == r
    assert all(int(f.lead_coeff(problem.order)) == 1 for f in polys)
    l2 = problem._basis2.tolist()
    assert pp_rank(rows + l2, problem.q) == r + problem.k2


@st.composite
def small_problems(draw, nonzero_l2=False):
    """Random X in GF(q)^s, L1 spanned by monomials, L2 in echelon form.

    r, up to 3, is drawn first, and X and the monomials of L1 number at
    least r + 1 where q and s allow, so that walks three levels deep over a
    nonzero L2 are drawn: there a row taken at the middle level can lie in
    span(L2, chosen).  L2 leaves room for r members.
    """
    q = draw(st.sampled_from((2, 3, 5)))
    s = draw(st.integers(1, 2))
    r = draw(st.integers(1, 3))
    field = PrimeField(q)
    grid = list(product(range(q), repeat=s))
    points = draw(
        st.lists(
            st.sampled_from(grid),
            min_size=min(len(grid), r + 1),
            max_size=min(len(grid), 8),
            unique=True,
        )
    )
    monos = [m for m in product(range(4), repeat=s) if sum(m) <= 3]
    chosen = draw(
        st.lists(
            st.sampled_from(monos),
            min_size=min(len(monos), r + 1),
            max_size=6,
            unique=True,
        )
    )
    pts = PointSet(field, points)
    try:
        problem = RghwProblem(pts, [Polynomial.monomial(field, m) for m in chosen])
    except ValueError:
        assume(False)
    k1 = problem.k1
    assume(k1 >= 2)
    r = min(r, k1 - 1 if nonzero_l2 else k1)
    assume(gaussian_binomial(k1, r, q) <= 1500)
    k2 = draw(st.sampled_from((0, k1 - r, draw(st.integers(0, k1 - r)))))
    if nonzero_l2:
        k2 = max(k2, 1)
    pivots = sorted(draw(st.permutations(range(k1)))[:k2])
    rows = []
    for p in pivots:
        row = [0] * k1
        row[p] = 1
        for j in range(p + 1, k1):
            if j not in pivots:
                row[j] = draw(st.integers(0, q - 1))
        rows.append(row)
    space2 = [problem.poly_from_coefficients(row) for row in rows]
    problem = RghwProblem(pts, problem.space1, space2, gb=problem.gb)
    return problem, r


# All of GF(2)^2, L1 = span(1, t1, t2, t1 t2) and L2 = span(t1).  At r = 3
# the walk takes t1, which lies in L2, at the middle level: a case that the
# draws above reach only now and then.
GF2_GRID = (
    RghwProblem(
        PointSet(PrimeField(2), list(product(range(2), repeat=2))),
        [Polynomial.monomial(PrimeField(2), m) for m in product(range(2), repeat=2)],
        [Polynomial.monomial(PrimeField(2), (1, 0))],
    ),
    3,
)


@SETTINGS
@example(GF2_GRID)
@given(small_problems())
def test_pruned_search_matches_exhaustive_walk(case):
    problem, r = case
    zeros, rows = searched(problem, r)
    assert zeros == brute_max_candidate_zeros(problem, r)
    check_witness(problem, r, zeros, rows)
    assert rghw_degree(problem, r, threads=1) == problem.num_points - zeros


@SETTINGS
@given(small_problems())
def test_pruned_search_with_many_chunks_per_group(case):
    # Tables of at most three words and batches of at most four split
    # every lead group into prefixes of one to three candidates, so the
    # stop inside a group and the prefix order come into play.  The
    # witness may change with the prefix size on ties; the maximum may not.
    problem, r = case
    with mock.patch.multiple(codes, _CHUNK=3, _BATCH=4):
        zeros, rows = searched(problem, r)
    assert zeros == brute_max_candidate_zeros(problem, r)
    check_witness(problem, r, zeros, rows)


@SETTINGS
@given(
    small_problems(nonzero_l2=True),
    st.sampled_from(((3, 4), (codes._CHUNK, codes._BATCH))),
)
def test_table_kernel_matches_reference_walk(case, sizes):
    # The reference scores whole coefficient rows times E and the residue
    # matrix.  The maximum is the same; an r = 1 witness is bit-identical,
    # the first maximum in odometer order of its lead group, whatever the
    # prefix size.  For r >= 2 a prefix is visited best first, ties in
    # odometer order, so the witness may differ on ties.
    problem, r = case
    chunk, batch = sizes
    with mock.patch.multiple(codes, _CHUNK=chunk, _BATCH=batch):
        zeros, rows = searched(problem, r)
    ref_zeros, ref_rows = monic_walk_search(problem, r, DEFAULT_BUDGET)
    assert zeros == ref_zeros
    check_witness(problem, r, zeros, rows)
    if r == 1:
        assert rows == [[int(v) for v in row] for row in ref_rows]
        lead = rows[0].index(1)
        l2 = problem._basis2.tolist()
        q, k1 = problem.q, problem.k1
        for row in monic_rows(q, k1, lead, 0, q ** (k1 - lead - 1)).tolist():
            word = [sum(c * e for c, e in zip(row, col)) % q for col in problem._E.T]
            if word.count(0) == zeros and pp_rank(l2 + [row], q) == problem.k2 + 1:
                assert row == rows[0]
                break


@SETTINGS
@given(small_problems())
def test_relative_footprint_matches_monomial_footprints(case):
    problem, r = case
    assert relative_footprint(problem, r) == brute_relative_footprint(problem, r)


def test_unrealized_leads_instance():
    # Only the leads at positions 0 and 1 are realized by L1 \ L2.  A walk
    # that also tries the other positions at level 0, or visits lead 1
    # first, scores tens of millions of candidates with no admissible one
    # among them; the pruned search needs under 10^5.
    problem = cartesian_problem(PrimeField(5), [[0, 1, 2], [0, 1, 2]], 3, 2)
    assert (problem.k1, problem.k2) == (8, 6)
    assert problem._realized == 2
    zeros, rows = searched(problem, 2, budget=200_000)
    assert problem.num_points - zeros == cartesian_rghw_formula((3, 3), 3, 2, 2)
    check_witness(problem, 2, zeros, rows)


def test_sharp_gap_scores_every_group_above_the_maximum():
    # RFP_1 = 4 < M_1 = 8: the best bound is 12 zeros, the maximum is 8, so
    # no group is certified early and every group with bound > 8 is scored
    # in full.  The budget that covers exactly those groups must suffice,
    # and one candidate less must be refused.
    data = resolve_problem(load_problem("torus-f5-sharp-gap"))
    problem = RghwProblem(data.points, data.space1, data.space2, data.order)
    zeros, rows = searched(problem, 1)
    assert zeros == 8 == brute_max_candidate_zeros(problem, 1)
    check_witness(problem, 1, zeros, rows)
    assert relative_footprint(problem, 1) == 4
    needed = sum(
        problem.q ** (problem.k1 - 1 - i)
        for i in range(problem._realized)
        if _footprint_survivors(problem, [i]) > zeros
    )
    assert rghw_degree(problem, 1, budget=needed, threads=1) == 8
    # Whole groups are whole prefixes, so the refused charge is `needed`.
    with pytest.raises(BudgetExceededError) as info:
        rghw_degree(problem, 1, budget=needed - 1, threads=1)
    assert info.value.needed == needed


def test_sharp_gap_deeper_walks_charge_and_answer():
    # The walk narrows residues and surviving columns at two and three
    # levels.  Budget 10^5 refuses r = 2 and r = 3 at these charges; at 10^6
    # r = 3 walks about 582k candidates to M_3 = 12, which validation checks
    # by degree_with_F, and skips the oracle's 2,558,556 subcodes.
    data = resolve_problem(load_problem("torus-f5-sharp-gap"))
    problem = RghwProblem(data.points, data.space1, data.space2, data.order)
    for r, needed in ((2, 100225), (3, 100075)):
        with pytest.raises(BudgetExceededError) as info:
            rghw_degree(problem, r, budget=10**5)
        assert info.value.needed == needed
    assert weights._oracle_skipped(problem, 3, 10**6) == 2558556
    error = AssertionError("the oracle was replayed")
    with mock.patch.object(weights, "rghw_definition_oracle", side_effect=error):
        assert rghw_degree(problem, 3, budget=10**6, validate=True) == 12


TORUS_F5_S4 = {
    "schema": 1,
    "q": 5,
    "s": 4,
    "points": {"family": "torus"},
    "L1": {"squarefree_degree": 2},
}


@functools.lru_cache(maxsize=None)
def walked_problem(name):
    source = load_problem(name) if name != "torus-f5-s4" else TORUS_F5_S4
    data = resolve_problem(source)
    return RghwProblem(data.points, data.space1, data.space2, data.order)


@pytest.mark.parametrize(
    "name, r, value, rows, needed",
    [
        ("five-points-f3", 1, 1, [[0, 1, 0, 2, 0]], 27),
        ("five-points-f3", 2, 2, [[1, 0, 0, 0, 0], [0, 1, 0, 1, 0]], 108),
        ("hypersimplex-f3-s4", 1, 8, [[0, 0, 1, 1]], 4),
        ("hypersimplex-f3-s4", 2, 12, [[0, 1, 0, 1], [0, 0, 1, 1]], 18),
        (
            "hypersimplex-f3-s4",
            3,
            14,
            [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]],
            90,
        ),
        ("torus-f5-sharp-gap", 1, 8, [[1, 0, 0, 1, 0, 3]], 3875),
        (
            "torus-f5-sharp-gap",
            2,
            11,
            [[0, 1, 0, 1, 0, 3], [0, 0, 1, 1, 3, 1]],
            243575,
        ),
        (
            "torus-f5-sharp-gap",
            3,
            12,
            [[1, 1, 0, 0, 0, 0], [0, 1, 2, 1, 2, 0], [0, 0, 0, 1, 2, 0]],
            582100,
        ),
        ("torus-f5-s4", 1, 144, [[0, 1, 1, 1, 1, 0]], 781),
        ("torus-f5-s4", 2, 192, [[0, 1, 1, 1, 1, 0], [0, 0, 0, 1, 1, 0]], 185033),
    ],
)
def test_walk_answers_are_pinned(name, r, value, rows, needed):
    # The walk's maximum, witness rows and total charge at every level, as
    # recorded: candidates are taken best first with ties in odometer order,
    # so a change to the visit order or the stops shows here.  `needed` is
    # the smallest budget that answers; one less is refused at `needed`.
    problem = walked_problem(name)
    zeros, found = searched(problem, r, budget=needed)
    assert (problem.num_points - zeros, found) == (value, rows)
    assert rghw_degree(problem, r, budget=needed) == value
    with pytest.raises(BudgetExceededError) as info:
        _search_max_zeros(problem, r, needed - 1)
    assert info.value.needed == needed


@pytest.mark.parametrize(
    "name, values",
    [
        ("five-points-f3", [1, 2]),
        ("hypersimplex-f3-s4", [8, 12]),
        ("torus-f5-sharp-gap", [8]),
    ],
)
def test_search_makes_no_thread_pool(name, values):
    # With tables of at most three words every group has many prefixes; at
    # threads=2 the search still walks them on the calling thread.
    data = resolve_problem(load_problem(name))
    problem = RghwProblem(data.points, data.space1, data.space2, data.order)
    error = AssertionError("the search started a thread")
    with mock.patch.multiple(codes, _CHUNK=3, _BATCH=4), mock.patch(
        "threading.Thread", side_effect=error
    ):
        assert [rghw_degree(problem, r, threads=2) for r in data.r_values] == values


def check_tree(problem, r):
    """Every group of the bound tree, its leaves counted one parent at a
    time, equals the reference that counts each lead tuple alone."""
    groups = _bound_tree(problem, r)
    reference = reference_bound_tree(problem, r)
    stack = [()]
    while stack:
        js = stack.pop()
        assert groups(js) == reference(js)
        if len(js) < r - 1:
            stack.extend(js + (j,) for _, j in groups(js))


@SETTINGS
@given(small_problems())
def test_leaf_bounds_match_one_count_per_tuple(case):
    check_tree(*case)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_leaf_bounds_match_one_count_per_tuple_on_a_grid(r):
    # A 4 x 5 grid of GF(7)^2 with L1 = degree <= 5 and L2 = degree <= 1:
    # 15 realized leads, so 455 leaves for r = 3 under 91 parents.
    subsets = [[0, 2, 3, 6], [0, 1, 2, 4, 5]]
    problem = cartesian_problem(PrimeField(7), subsets, 5, 1)
    check_tree(problem, r)


@st.composite
def cartesian_cases(draw):
    """Nested Cartesian codes on random subsets, in a random order, small
    enough for the candidate walk."""
    q = draw(st.sampled_from((2, 3, 5, 7)))
    s = draw(st.integers(1, 3))
    sizes = sorted(draw(st.lists(st.integers(1, min(q, 4)), min_size=s, max_size=s)))
    top = sum(n - 1 for n in sizes)
    assume(top >= 1)
    subsets = [sorted(draw(st.permutations(range(q)))[:n]) for n in sizes]
    order = draw(st.sampled_from((LEX, GRLEX, GREVLEX)))
    d1 = draw(st.integers(1, top))
    d2 = draw(st.integers(-1, d1 - 1))
    problem = cartesian_problem(PrimeField(q), subsets, d1, d2, order)
    assume(q ** problem.k1 <= 10**8)
    r = min(draw(st.sampled_from((1, 2, 3))), problem.k1 - problem.k2)
    return problem, sizes, d1, d2, r


# In lex the leads of this grid give RFP_3 = 6 < M_3 = 7.
LEX_GAP = (
    cartesian_problem(PrimeField(3), [[0, 1], [0, 1], [0, 1, 2]], 2, 1, LEX),
    [2, 2, 3],
    2,
    1,
    3,
)


@settings(SETTINGS, max_examples=100)
@example(LEX_GAP)
@given(cartesian_cases())
def test_product_witness_certifies_cartesian_problems(case):
    problem, sizes, d1, d2, r = case
    value = cartesian_rghw_formula(sizes, d1, d2, r)
    zeros, _ = searched(problem, r)
    assert rghw_degree(problem, r) == value == problem.num_points - zeros
    # The witness exists exactly when the footprint bound is sharp.  It is
    # sharp here in grlex and grevlex; in lex it can fall short of M_r.
    witness = _product_witness(problem, r)
    sharp = relative_footprint(problem, r) == value
    assert (witness is not None) == sharp
    assert sharp or problem.order is LEX
    if sharp:
        assert witness[0] == zeros
        check_witness(problem, r, zeros, [[int(v) for v in row] for row in witness[1]])
        # The witness answers without the walk, so nothing is charged.
        assert rghw_degree(problem, r, budget=1) == value
    else:
        with pytest.raises(BudgetExceededError):
            rghw_degree(problem, r, budget=1)


@pytest.mark.parametrize(
    "name, why",
    [
        ("torus-f5-sharp-gap", "RFP_1 = 4 < M_1 = 8"),
        ("hypersimplex-f3-s4", "L1 = squarefree degree exactly 1"),
        ("five-points-f3", "not a product set"),
    ],
)
def test_without_a_witness_the_search_walks_unseeded(name, why):
    data = resolve_problem(load_problem(name))
    problem = RghwProblem(data.points, data.space1, data.space2, data.order)
    walk = mock.Mock(wraps=_search_max_zeros)
    for r in data.r_values:
        assert _product_witness(problem, r) is None, why
        with mock.patch.object(weights, "_search_max_zeros", walk):
            value = rghw_degree(problem, r)
        assert walk.call_args.args == (problem, r, DEFAULT_BUDGET)
        assert value == problem.num_points - searched(problem, r)[0]


# The Cartesian cases of the rghw-search benchmark: q, sizes, d1, d2, r.
BENCH_CARTESIAN = [
    (5, (4, 4), 3, -1, 1),
    (5, (4, 4), 3, 1, 1),
    (5, (4, 4, 4), 2, 1, 1),
    (7, (6, 6), 2, -1, 2),
    (11, (10, 10), 2, -1, 1),
]
DATA = Path(__file__).parent / "data"


def _never_evaluated(*args):
    raise AssertionError("evaluate_space called on the witness route")


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("case", BENCH_CARTESIAN)
def test_witness_route_never_builds_the_evaluation_matrix(monkeypatch, case, seed):
    # The witness certifies M_r = RFP_r from the bound tree, L1 coordinates
    # and the witness's own evaluation, so E (L1's evaluation matrix) is
    # never built.
    q, sizes, d1, d2, r = case
    rng = random.Random(seed)
    subsets = [sorted(rng.sample(range(q), n)) for n in sizes]
    monkeypatch.setattr(weights, "evaluate_space", _never_evaluated)
    problem = cartesian_problem(PrimeField(q), subsets, d1, d2)
    value = cartesian_rghw_formula(sizes, d1, d2, r)
    assert relative_footprint(problem, r) == value
    assert rghw_degree(problem, r) == value
    assert problem._code1 is None


def test_witness_route_on_the_grid_never_builds_the_evaluation_matrix(monkeypatch):
    monkeypatch.setattr(weights, "evaluate_space", _never_evaluated)
    data = resolve_problem(load_problem(str(DATA / "cartesian-f7-7x7-d6.json")))
    problem = RghwProblem(data.points, data.space1, data.space2, data.order)
    values = [7, 13, 14, 19, 20]
    assert [relative_footprint(problem, r) for r in data.r_values] == values
    assert [rghw_degree(problem, r) for r in data.r_values] == values
    assert problem._code1 is None


@pytest.mark.parametrize("name", ["torus-f5-sharp-gap", "five-points-f3"])
def test_walk_route_builds_the_evaluation_matrix_once(monkeypatch, name):
    data = resolve_problem(load_problem(name))
    built = mock.Mock(wraps=codes.evaluate_space)
    monkeypatch.setattr(weights, "evaluate_space", built)
    problem = RghwProblem(data.points, data.space1, data.space2, data.order)
    assert problem._code1 is None and built.call_count == 0
    for r in data.r_values:
        rghw_degree(problem, r, validate=True)
    e_matrix = problem._E
    assert problem._E is e_matrix
    assert built.call_count == 1
    code1, code2 = problem.codes()
    assert code1 is problem._code1 and code1.rows is e_matrix
    assert np.array_equal(e_matrix, codes.evaluate_space(problem.space1, problem.points).rows)
    assert np.array_equal(code2.rows, (problem._basis2 @ e_matrix) % problem.q)


@st.composite
def torus_cases(draw):
    """Nested squarefree problems on tori, in a random order."""
    q = draw(st.sampled_from((3, 5, 7)))
    s = draw(st.integers(1, 3))
    d1 = draw(st.integers(1, s))
    degrees2 = draw(st.lists(st.integers(0, d1 - 1), max_size=2, unique=True))
    order = draw(st.sampled_from((LEX, GRLEX, GREVLEX)))
    problem = toric_problem(PrimeField(q), s, d1, degrees2 or None, order)
    r = min(draw(st.sampled_from((1, 2, 3))), problem.k1 - problem.k2)
    return problem, r


def test_product_structure_is_worked_out_once_per_point_set(monkeypatch):
    # vanishing_ideal and the witness of every r read the one
    # PointSet.product_factors, worked out on its first read and kept.
    worked = mock.Mock(wraps=PointSet.product_factors.func)
    cached = functools.cached_property(worked)
    cached.__set_name__(PointSet, "product_factors")
    monkeypatch.setattr(PointSet, "product_factors", cached)
    field = PrimeField(5)
    grid = PointSet(field, product([0, 1, 3], [0, 2, 3, 4]))
    scattered = PointSet(field, [[0, 0], [1, 0], [0, 1], [1, 1], [0, 4]])
    for points, witnessed in ((grid, True), (scattered, False)):
        space1 = [Polynomial.monomial(field, m) for m in [(0, 0), (1, 0), (0, 1), (1, 1)]]
        problem = RghwProblem(points, space1)
        for r in (1, 2, 3):
            assert (_product_witness(problem, r) is not None) == witnessed
            rghw_degree(problem, r)
        assert worked.call_args_list == [mock.call(points)]
        worked.reset_mock()
    assert grid.product_factors == [[0, 1, 3], [0, 2, 3, 4]]
    assert scattered.product_factors is None


@settings(SETTINGS, max_examples=80)
@given(st.one_of(cartesian_cases().map(lambda c: (c[0], c[-1])), torus_cases()))
def test_witness_members_are_their_own_normal_forms(case):
    # Every term of a member F_j divides its lead, a standard monomial, and
    # the footprint of a product set is a box, so the witness reads F_j's
    # L1 coordinates without dividing it by the vanishing ideal first.
    problem, r = case
    members = []

    def build(field, roots):
        members.append(_root_product(field, roots))
        return members[-1]

    with mock.patch.object(weights, "_root_product", build):
        _product_witness(problem, r)
    assert members
    for f in members:
        assert normal_form(f, problem.gb) == f


@pytest.mark.parametrize("q", [2, 3, 5, 31])
def test_narrow_matches_the_outer_product_update(q):
    # _narrow's reduce_rows step against the outer-product pivot update, on
    # residue maps modulo random subspaces V and on arbitrary matrices, for
    # rows outside V and rows inside it (None).
    rng = np.random.default_rng(q)
    for k in range(1, 7):
        for _ in range(20):
            rows = rng.integers(0, q, (int(rng.integers(0, k + 1)), k))
            basis, pivots = rref_mod(rows, q)
            proj = reduce_rows(np.eye(k, dtype=np.int64), basis, pivots, q)
            inside = (rng.integers(0, q, len(basis)) @ basis) % q
            for matrix in (proj, rng.integers(0, q, (k, k))):
                for row in (rng.integers(0, q, k), inside):
                    got = _narrow(matrix, row, q)
                    want = outer_narrow(matrix, row, q)
                    assert (got is None) == (want is None)
                    assert got is None or np.array_equal(got, want)
            assert _narrow(proj, inside, q) is None
