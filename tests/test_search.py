"""The pruned RGHW search against exhaustive candidate enumeration.

The search skips lead groups by the footprint bound, tries only realized
leads, visits groups best bound first and stops scoring a group once the
maximum reaches its bound.  None of that may change the maximum: these
tests compare it with a walk over every admissible candidate set and check
that the witness attains it.  The search runs on the calling thread for
every `threads` value.
"""

from itertools import product
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from evalcodes import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    PointSet,
    Polynomial,
    PrimeField,
    RghwProblem,
    cartesian_problem,
    cartesian_rghw_formula,
    gaussian_binomial,
    relative_footprint,
    rghw_degree,
)
from evalcodes import codes
from evalcodes.cli import load_problem, resolve_problem
from evalcodes.weights import (
    _footprint_survivors,
    _realized_positions,
    _search_max_zeros,
)

from oracles import (
    brute_max_candidate_zeros,
    brute_relative_footprint,
    brute_variety_count,
    pp_rank,
)

SETTINGS = settings(
    derandomize=True,
    database=None,
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def searched(problem, r, budget=DEFAULT_BUDGET):
    """(max zeros, witness rows as lists) of the search."""
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
    l2 = [problem.space1.coordinates(b) for b in problem.space2.basis]
    assert pp_rank(rows + l2, problem.q) == r + problem.k2


@st.composite
def small_problems(draw):
    """Random X in GF(q)^s, L1 spanned by monomials, L2 in echelon form."""
    q = draw(st.sampled_from((2, 3, 5)))
    s = draw(st.integers(1, 2))
    field = PrimeField(q)
    grid = list(product(range(q), repeat=s))
    points = draw(
        st.lists(
            st.sampled_from(grid), min_size=2, max_size=min(len(grid), 8), unique=True
        )
    )
    monos = [m for m in product(range(3), repeat=s) if sum(m) <= 3]
    chosen = draw(st.lists(st.sampled_from(monos), min_size=2, max_size=6, unique=True))
    pts = PointSet(field, points)
    try:
        problem = RghwProblem(pts, [Polynomial.monomial(field, m) for m in chosen])
    except ValueError:
        assume(False)
    k1 = problem.k1
    assume(k1 >= 2)
    k2 = draw(st.sampled_from((0, k1 - 2, draw(st.integers(0, k1 - 1)))))
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
    r = draw(st.integers(1, min(2, k1 - k2)))
    assume(gaussian_binomial(k1, r, q) <= 1500)
    return problem, r


@SETTINGS
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
    # Three-row chunks split every lead group, so the stop inside a group
    # and the chunk order come into play.  The witness may change with the
    # chunk size on ties; the maximum may not.
    problem, r = case
    with mock.patch.object(codes, "_CHUNK", 3):
        zeros, rows = searched(problem, r)
    assert zeros == brute_max_candidate_zeros(problem, r)
    check_witness(problem, r, zeros, rows)


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
    assert _realized_positions(problem) == [0, 1]
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
        for i in _realized_positions(problem)
        if _footprint_survivors(problem, [i]) > zeros
    )
    assert rghw_degree(problem, 1, budget=needed, threads=1) == 8
    with pytest.raises(BudgetExceededError):
        rghw_degree(problem, 1, budget=needed - 1, threads=1)


@pytest.mark.parametrize(
    "name, values",
    [
        ("five-points-f3", [1, 2]),
        ("hypersimplex-f3-s4", [8, 12]),
        ("torus-f5-sharp-gap", [8]),
    ],
)
def test_search_makes_no_thread_pool(name, values):
    # With three-row chunks every group has many chunks; at threads=2 the
    # search still walks them on the calling thread.
    data = resolve_problem(load_problem(name))
    problem = RghwProblem(data.points, data.space1, data.space2, data.order)
    error = AssertionError("the search made a thread pool")
    with mock.patch.object(codes, "_CHUNK", 3), mock.patch.object(
        codes, "ThreadPoolExecutor", side_effect=error
    ):
        assert [rghw_degree(problem, r, threads=2) for r in data.r_values] == values
