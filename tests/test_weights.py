import random
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from evalcodes import (
    DEFAULT_BUDGET,
    GREVLEX,
    GRLEX,
    LEX,
    BudgetExceededError,
    EvaluationCode,
    HypersimplexSpec,
    PointSet,
    Polynomial,
    PrimeField,
    RghwProblem,
    echelonize,
    gaussian_binomial,
    ghw,
    relative_footprint,
    rghw_definition_oracle,
    rghw_degree,
    toric_code,
    toric_problem,
    torus_points,
    vanishing_ideal,
    weight_distribution,
)
from evalcodes import evaluate_space, standardize, weights
from evalcodes.cli import load_problem, resolve_problem
from evalcodes.field import rank_mod, reduce_rows, rref_mod

from oracles import (
    brute_lead_sweep,
    brute_min_support_subcode,
    brute_subspace_count,
    enumerate_candidates,
    lead_set_difference,
    loop_definition_oracle,
)

SEED = 20260823
F3 = PrimeField(3)
F5 = PrimeField(5)

FIVE_POINTS = [[0, 0], [1, 0], [0, 1], [1, 1], [0, -1]]


def monomials_upto(field, nvars, degree):
    return [
        Polynomial.monomial(field, m)
        for m in product(range(degree + 1), repeat=nvars)
        if sum(m) <= degree
    ]


def five_point_problem():
    return RghwProblem(
        PointSet(F3, FIVE_POINTS),
        monomials_upto(F3, 2, 2),
        monomials_upto(F3, 2, 1),
    )


def torus_gap_problem():
    polys1 = [
        Polynomial.constant(F5, 2, 1),
        Polynomial.monomial(F5, (3, 0)),
        Polynomial.monomial(F5, (1, 2)),
        Polynomial.monomial(F5, (0, 3)),
        Polynomial.monomial(F5, (1, 1)),
        Polynomial.monomial(F5, (2, 0)),
    ]
    polys2 = [Polynomial.monomial(F5, (1, 2)), Polynomial.monomial(F5, (1, 1))]
    return RghwProblem(torus_points(F5, 2), polys1, polys2)


class TestGaussianBinomial:
    def test_formula_values(self):
        assert gaussian_binomial(2, 1, 3) == 4
        assert gaussian_binomial(3, 1, 2) == 7
        assert gaussian_binomial(3, 2, 3) == 13
        assert gaussian_binomial(4, 2, 3) == 130
        assert gaussian_binomial(3, 0, 5) == 1
        assert gaussian_binomial(3, 3, 5) == 1

    def test_matches_brute_subspace_count(self):
        for n, r, q in [(2, 1, 3), (3, 1, 2), (3, 2, 3), (3, 2, 2)]:
            assert gaussian_binomial(n, r, q) == brute_subspace_count(n, r, q)

    def test_symmetry(self):
        for q in (2, 3, 5):
            for n in range(1, 5):
                for r in range(n + 1):
                    assert gaussian_binomial(n, r, q) == gaussian_binomial(
                        n, n - r, q
                    )


class TestProblemConstruction:
    def test_dimensions(self):
        problem = five_point_problem()
        assert problem.k1 == 5
        assert problem.k2 == 3
        assert problem.num_points == 5

    def test_rejects_equal_spaces(self):
        with pytest.raises(ValueError):
            RghwProblem(
                PointSet(F3, FIVE_POINTS),
                monomials_upto(F3, 2, 1),
                monomials_upto(F3, 2, 1),
            )

    def test_rejects_non_subspace(self):
        with pytest.raises(ValueError):
            RghwProblem(
                PointSet(F3, FIVE_POINTS),
                [Polynomial.monomial(F3, (1, 0))],
                [Polynomial.monomial(F3, (0, 1))],
            )

    def test_rejects_zero_first_space(self):
        with pytest.raises(ValueError):
            RghwProblem(PointSet(F3, FIVE_POINTS), [], None)

    def test_standardization_is_applied(self):
        # t1^2 and t1 evaluate identically on the five points, so the
        # first space collapses before any search happens.
        problem = RghwProblem(
            PointSet(F3, FIVE_POINTS),
            [Polynomial.monomial(F3, (2, 0)), Polynomial.monomial(F3, (1, 0))],
            None,
        )
        assert problem.k1 == 1


@st.composite
def nested_problems(draw):
    """Random X in GF(q)^s, L1 spanned by random polynomials, in a random
    order, and (problem, L2 as given): L2 spanned by random combinations of
    L1's basis, some dependent, each plus a member of I(X) so that it is not
    reduced, given as a list or as a PolySpace echelonized in any order."""
    q = draw(st.sampled_from((2, 3, 5, 7)))
    s = draw(st.integers(1, 3))
    field = PrimeField(q)
    order = draw(st.sampled_from((LEX, GRLEX, GREVLEX)))
    coordinate = st.integers(0, q - 1)
    points = draw(
        st.lists(st.tuples(*[coordinate] * s), min_size=2, max_size=15, unique=True)
    )
    monos = list(product(range(3), repeat=s))
    generators = [
        Polynomial(field, s, terms)
        for terms in draw(
            st.lists(st.dictionaries(st.sampled_from(monos), coordinate), max_size=8)
        )
    ]
    pts = PointSet(field, points)
    try:
        first = RghwProblem(pts, generators, order=order)
    except ValueError:
        assume(False)
    k1 = first.k1
    assume(k1 >= 2)
    combo = st.lists(coordinate, min_size=k1, max_size=k1)
    k2 = draw(st.integers(1, k1 - 1))
    combos = draw(st.lists(combo, min_size=k2, max_size=k2))
    space2 = [first.poly_from_coefficients(c) for c in combos]
    space2 += [a + b for a, b in zip(space2, space2[1:2])]
    for i, g in enumerate(space2):
        mono = draw(st.sampled_from(monos))
        vanishing = draw(st.sampled_from(first.gb.generators))
        space2[i] = g + vanishing.term_mul(mono, draw(coordinate))
    if draw(st.booleans()):
        other = draw(st.sampled_from((LEX, GRLEX, GREVLEX)))
        space2 = echelonize(space2, other, field=field, nvars=s)
    return RghwProblem(pts, first.space1, space2, order, gb=first.gb), space2


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(nested_problems())
def test_l2_is_held_by_its_l1_coordinates(case):
    # L2 enters once, as L1 coordinates: one rref_mod of its generators'
    # normal forms on L1's basis.  Those rows, as polynomials, are the
    # reduced echelon basis `standardize` gives, since L1's basis is reduced
    # echelon and such a basis is unique; each pivot is the L1 position of
    # an L2 lead.  _proj, row i e_i modulo L2, is a projection whose kernel
    # (x @ _proj = 0) is exactly L2's coordinate span, and C2 is read off E.
    problem, space2 = case
    q, k1 = problem.q, problem.k1
    standard = standardize(space2, problem.gb)
    basis2 = [problem.poly_from_coefficients(row) for row in problem._basis2]
    assert basis2 == standard.basis
    coords = [problem.space1.coordinates(b) for b in standard.basis]
    coords = np.array(coords, dtype=np.int64).reshape(-1, k1)
    reduced, pivots = rref_mod(coords, q)
    assert np.array_equal(problem._basis2, reduced)
    assert np.array_equal(coords, reduced)
    leads = problem.space1.leads()
    assert pivots == [leads.index(m) for m in standard.leads()]
    proj = problem._proj
    eye = np.eye(k1, dtype=np.int64)
    assert np.array_equal(proj, reduce_rows(eye, reduced, pivots, q))
    assert np.array_equal((proj @ proj) % q, proj)
    assert not ((coords @ proj) % q).any()
    assert rank_mod(proj, q) == k1 - problem.k2
    assert problem.k2 == standard.dim == len(pivots)
    code2 = evaluate_space(standard, problem.points)
    assert np.array_equal(problem.codes()[1].rows, code2.rows)


def test_basis_in_another_order_refused():
    # The problem would standardize and search in the basis's order while
    # reporting its own, and ghw would rebuild it with that stale order.
    data = resolve_problem(load_problem("five-points-f3"))
    for order, other in [(GREVLEX, LEX), (LEX, GRLEX), (GRLEX, GREVLEX)]:
        gb = vanishing_ideal(data.points, other)
        message = f"gb is in {other.name}, but order is {order.name}"
        with pytest.raises(ValueError, match=message):
            RghwProblem(data.points, data.space1, data.space2, order, gb=gb)
        problem = RghwProblem(data.points, data.space1, data.space2, other, gb=gb)
        assert problem.order is other
        assert f"order={other.name}" in repr(problem)


def test_basis_of_other_points_refused():
    # I(X) has exactly |X| standard monomials.  The basis of four of the
    # five points has four, so it is refused at construction with both
    # sizes named; E, which would catch it, is no longer built there.
    data = resolve_problem(load_problem("five-points-f3"))
    fewer = PointSet(data.field, data.points.points[:4])
    gb = vanishing_ideal(fewer, data.order)
    message = "gb has 4 standard monomials, but X has 5 points"
    with pytest.raises(ValueError, match=message):
        RghwProblem(data.points, data.space1, data.space2, data.order, gb=gb)
    # The basis of all five points is accepted.
    gb = vanishing_ideal(data.points, data.order)
    RghwProblem(data.points, data.space1, data.space2, data.order, gb=gb)


class TestCandidates:
    def test_five_point_candidate_count(self):
        problem = five_point_problem()
        count = sum(1 for _ in enumerate_candidates(problem, 1))
        assert count == (3**5 - 3**3) // (3 - 1)

    def test_candidates_are_monic_with_decreasing_distinct_leads(self):
        problem = five_point_problem()
        for cand in enumerate_candidates(problem, 2):
            leads = [f.lead_monomial(problem.order) for f in cand.polys]
            assert leads == list(cand.leads)
            assert len(set(leads)) == len(leads)
            for f in cand.polys:
                assert int(f.lead_coeff(problem.order)) == 1
            ranked = problem.order.sorted(leads, reverse=True)
            assert list(leads) == ranked

    def test_one_dimensional_gap(self):
        problem = RghwProblem(
            PointSet(F3, FIVE_POINTS),
            monomials_upto(F3, 2, 1),
            [Polynomial.constant(F3, 2, 1)],
        )
        cands = list(enumerate_candidates(problem, 2))
        for cand in cands:
            assert len(cand.polys) == 2

    def test_trivial_constant_space(self):
        problem = RghwProblem(
            PointSet(F3, FIVE_POINTS), [Polynomial.constant(F3, 2, 1)], None
        )
        cands = list(enumerate_candidates(problem, 1))
        assert len(cands) == 1
        assert cands[0].polys[0] == Polynomial.constant(F3, 2, 1)


class TestDefinitionOracle:
    def test_matches_plain_python_sweep(self):
        rng = random.Random(SEED)
        checked = 0
        while checked < 12:
            q = rng.choice((2, 3))
            k1 = rng.randint(1, 3)
            n = rng.randint(k1, 6)
            rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k1)]
            if rank_mod(rows, q) < k1:
                continue
            k2 = rng.randint(0, k1 - 1)
            sub = None
            if k2:
                combos = [
                    [rng.randrange(q) for _ in range(k1)] for _ in range(k2)
                ]
                sub_rows = [
                    [
                        sum(c * rows[i][j] for i, c in enumerate(combo)) % q
                        for j in range(n)
                    ]
                    for combo in combos
                ]
                if rank_mod(sub_rows, q) != k2:
                    continue
                sub = EvaluationCode(PrimeField(q), sub_rows)
            for r in range(1, k1 - k2 + 1):
                got = rghw_definition_oracle(EvaluationCode(PrimeField(q), rows), sub, r)
                want = brute_min_support_subcode(
                    rows, sub.rows.tolist() if sub else [], q, r
                )
                assert got == want
            checked += 1

    def test_minimum_distance_collapse(self):
        code = toric_code(HypersimplexSpec(F3, 3, 1))
        d = weight_distribution(code).minimum_distance
        assert rghw_definition_oracle(code, None, 1) == d

    def test_rejects_non_subcode(self):
        code1 = EvaluationCode(F3, [[1, 0, 0], [0, 1, 0]])
        code2 = EvaluationCode(F3, [[0, 0, 1]])
        with pytest.raises(ValueError):
            rghw_definition_oracle(code1, code2, 1)

    def test_budget_refusal(self):
        code = EvaluationCode(F5, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        with pytest.raises(BudgetExceededError):
            rghw_definition_oracle(code, None, 1, budget=2)


def fixture_codes(name):
    """(C1, C2, r values) of a shipped fixture."""
    resolved = resolve_problem(load_problem(name), None)
    problem = RghwProblem(
        resolved.points, resolved.space1, resolved.space2, resolved.order
    )
    return (*problem.codes(), resolved.r_values)


def unitriangular_rows(draw, q, k, n):
    """A random sparse k x n matrix over GF(q) of rank k: upper unitriangular
    on k randomly placed columns, about half zeros elsewhere.  Sparse rows
    give small supports, so C2 often holds the best subcodes' words."""
    entries = st.one_of(st.just(0), st.integers(0, q - 1))
    rows = [[draw(entries) for _ in range(n)] for _ in range(k)]
    cols = draw(st.permutations(range(n)))[:k]
    for i in range(k):
        for j in range(i + 1):
            rows[i][cols[j]] = int(i == j)
    return rows


@st.composite
def nested_codes(draw):
    """(C1, C2) over GF(q), q in {2, 3, 5, 7}: C1 of full rank k1 <= 5 and
    C2 spanned by k2 < k1 independent combinations of its rows."""
    q = draw(st.sampled_from((2, 3, 5, 7)))
    field = PrimeField(q)
    k1 = draw(st.integers(1, 5))
    code1 = EvaluationCode(
        field, unitriangular_rows(draw, q, k1, draw(st.integers(k1, 8)))
    )
    k2 = draw(st.integers(0, k1 - 1))
    combos = np.array(unitriangular_rows(draw, q, k2, k1), dtype=np.int64)
    code2 = EvaluationCode(field, (combos @ code1.rows) % q) if k2 else None
    return code1, code2


def oracle_outcome(oracle, code1, code2, r, budget):
    try:
        return oracle(code1, code2, r, budget)
    except BudgetExceededError:
        return "refused"


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(nested_codes(), st.sampled_from((None, 1, 2, 3)))
def test_batched_oracle_matches_loop_reference(codes, step):
    # Subcode counts above the budget are refused by both, before any work.
    # A step of 1, 2 or 3 fills per batch ends patterns on short batches.
    code1, code2 = codes
    k2 = code2.k if code2 else 0
    for r in range(1, code1.k - k2 + 1):
        want = oracle_outcome(loop_definition_oracle, code1, code2, r, 3000)
        batch = step * r * code1.n if step else weights._BATCH
        with mock.patch.object(weights, "_BATCH", batch):
            got = oracle_outcome(rghw_definition_oracle, code1, code2, r, 3000)
        assert got == want


@pytest.mark.parametrize(
    "name", ["five-points-f3", "hypersimplex-f3-s4", "torus-f5-sharp-gap"]
)
def test_batched_oracle_matches_loop_reference_on_fixtures(name):
    code1, code2, r_values = fixture_codes(name)
    for r in r_values:
        want = loop_definition_oracle(code1, code2, r, DEFAULT_BUDGET)
        assert rghw_definition_oracle(code1, code2, r) == want


@pytest.mark.parametrize("name", ["five-points-f3", "hypersimplex-f3-s4", None])
def test_batched_oracle_across_batch_boundaries(name):
    # One fill per batch, and two fills per batch, which divides no q^f of
    # these odd q: every pattern then ends on a short batch.  In the code
    # without a name the only words of weight 2 are multiples of g0 + 2 g1,
    # the last fill of its pattern, alone in the short batch.
    if name:
        code1, code2, _ = fixture_codes(name)
    else:
        code1, code2 = EvaluationCode(F3, [[1, 1, 1, 1, 0], [0, 1, 1, 1, 1]]), None
    k2 = code2.k if code2 else 0
    for r in range(1, code1.k - k2 + 1):
        want = loop_definition_oracle(code1, code2, r, DEFAULT_BUDGET)
        for batch in (1, 2 * r * code1.n):
            with mock.patch.object(weights, "_BATCH", batch):
                assert rghw_definition_oracle(code1, code2, r) == want


class TestRghwDegree:
    def test_five_point_values(self):
        problem = five_point_problem()
        assert rghw_degree(problem, 1) == 1
        assert rghw_degree(problem, 2) == 2

    def test_five_point_values_survive_validation(self):
        problem = five_point_problem()
        assert rghw_degree(problem, 1, validate=True) == 1
        assert rghw_degree(problem, 2, validate=True) == 2

    def test_torus_gap_values(self):
        problem = torus_gap_problem()
        assert rghw_degree(problem, 1, validate=True) == 8
        assert relative_footprint(problem, 1) == 4

    def test_result_independent_of_order(self):
        for order in (LEX, GREVLEX):
            problem = RghwProblem(
                PointSet(F3, FIVE_POINTS),
                monomials_upto(F3, 2, 2),
                monomials_upto(F3, 2, 1),
                order,
            )
            assert rghw_degree(problem, 1) == 1
            assert rghw_degree(problem, 2) == 2

    def test_space_echelonized_in_another_order(self):
        # Regression: a PolySpace echelonized in lex kept its lex leads in a
        # grevlex problem, so the footprint bound pruned the wrong groups
        # and M_1 came out 3.  The same generators as a list gave 2.
        points = PointSet(F5, [(1, 3), (3, 4), (2, 2), (3, 1), (0, 0), (0, 2)])
        l1 = [
            Polynomial(F5, 2, {(0, 2): -1}),
            Polynomial(F5, 2, {(1, 0): -2, (0, 1): 2}),
            Polynomial(F5, 2, {(2, 1): 1}),
        ]
        problem = RghwProblem(points, echelonize(l1, LEX), None, GREVLEX)
        code1, _ = problem.codes()
        assert rghw_definition_oracle(code1, None, 1) == 2
        assert rghw_degree(problem, 1) == 2
        assert problem.space1 == RghwProblem(points, l1, None, GREVLEX).space1

    def test_distinct_lead_selection_alone_is_not_sound(self):
        # Regression: with X, L1, L2 below, restricting the search to
        # subsets with distinct leads outside the lead set of L2 would
        # return 2; the true second relative weight is 3.  Candidate
        # subsets must instead avoid the whole space L2 in span.
        points = PointSet(F3, [[0, 0], [1, 1], [1, 0], [0, 1]])
        t1t2 = Polynomial.monomial(F3, (1, 1))
        t1 = Polynomial.monomial(F3, (1, 0))
        t2 = Polynomial.monomial(F3, (0, 1))
        one = Polynomial.constant(F3, 2, 1)
        l1 = [t1t2, t1 + t2, one]
        l2 = [t1t2.scale(2) + t1.scale(2) + t2.scale(2) + one]
        problem = RghwProblem(points, l1, l2)
        code1, code2 = problem.codes()
        want = rghw_definition_oracle(code1, code2, 2)
        assert want == 3
        assert rghw_degree(problem, 2) == 3
        assert rghw_degree(problem, 2, validate=True) == 3

    def test_matches_definition_oracle_on_random_problems(self):
        rng = random.Random(SEED + 1)
        checked = 0
        while checked < 10:
            q = rng.choice((3, 5))
            field = PrimeField(q)
            nvars = rng.randint(1, 2)
            pool = list(product(range(q), repeat=nvars))
            rng.shuffle(pool)
            pts = PointSet(field, pool[: rng.randint(2, min(6, len(pool)))])
            monos = monomials_upto(field, nvars, 2)
            rng.shuffle(monos)
            space1 = echelonize(
                monos[: rng.randint(2, 4)], GREVLEX, field=field, nvars=nvars
            )
            try:
                problem = RghwProblem(pts, space1, None)
            except ValueError:
                continue
            if problem.k1 < 2 or q**problem.k1 > 3**6:
                continue
            code1, _ = problem.codes()
            for r in (1, min(2, problem.k1)):
                assert rghw_degree(problem, r) == rghw_definition_oracle(
                    code1, None, r
                )
            checked += 1

    def test_monotone_in_r_and_bounded_by_footprint(self):
        problem = five_point_problem()
        values = [rghw_degree(problem, r) for r in (1, 2)]
        assert values == sorted(values)
        for r in (1, 2):
            assert relative_footprint(problem, r) <= values[r - 1]

    def test_thread_count_does_not_change_results(self):
        problem = torus_gap_problem()
        base = rghw_degree(problem, 1, threads=1)
        for threads in (2, 3, 5):
            assert rghw_degree(problem, 1, threads=threads) == base

    def test_thread_count_below_one_refused(self):
        # The search runs on one thread, but threads < 1 is still an error.
        problem = five_point_problem()
        for threads in (0, -2):
            for search in (rghw_degree, ghw):
                with pytest.raises(ValueError, match="threads must be at least 1"):
                    search(problem, 1, threads=threads)

    def test_budget_refusal(self):
        # Charges land on prefix boundaries: r = 1 needs 27 candidates and
        # r = 2 needs 108, and a refusal reports the charge that passed.
        problem = five_point_problem()
        with pytest.raises(BudgetExceededError) as info:
            rghw_degree(problem, 1, budget=5)
        assert (info.value.needed, info.value.budget) == (27, 5)
        for r, needed in ((1, 27), (2, 108)):
            assert rghw_degree(problem, r, budget=needed) == r
            with pytest.raises(BudgetExceededError) as info:
                rghw_degree(problem, r, budget=needed - 1)
            assert info.value.needed == needed

    def test_r_out_of_range(self):
        problem = five_point_problem()
        with pytest.raises(ValueError):
            rghw_degree(problem, 0)
        with pytest.raises(ValueError):
            rghw_degree(problem, 3)

    def test_relative_footprint_refuses_the_r_the_search_refuses(self):
        # All three leads t1, t2, 1 are realized by L1 \ L2 (t1 + t2 lies
        # outside L2), but r is at most k1 - k2 = 2 for RFP_r as for M_r.
        t1 = Polynomial(F3, 2, {(1, 0): 1})
        t2 = Polynomial(F3, 2, {(0, 1): 1})
        one = Polynomial(F3, 2, {(0, 0): 1})
        grid = PointSet(F3, product(range(3), repeat=2))
        problem = RghwProblem(grid, [t1, t2, one], [t1])
        assert len(lead_set_difference(problem)) == 3
        for r in (1, 2):
            assert relative_footprint(problem, r) <= rghw_degree(problem, r)
        for r in (3, 0):
            with pytest.raises(ValueError, match="dim L1 - dim L2 = 2"):
                rghw_degree(problem, r)
            with pytest.raises(ValueError, match="dim L1 - dim L2 = 2"):
                relative_footprint(problem, r)


class TestGhw:
    def test_toric_values(self):
        assert ghw(toric_problem(F3, 4, 1), 1, validate=True) == 8
        assert ghw(toric_problem(F3, 4, 2), 1) == 4

    def test_constant_space(self):
        problem = RghwProblem(
            PointSet(F3, FIVE_POINTS), [Polynomial.constant(F3, 2, 1)], None
        )
        assert ghw(problem, 1) == 5

    def test_equals_first_weight_of_enumeration(self):
        problem = toric_problem(F3, 3, 1)
        code1, _ = problem.codes()
        d = weight_distribution(code1).minimum_distance
        assert ghw(problem, 1) == d

    def test_ignores_second_space(self):
        relative = torus_gap_problem()
        absolute = RghwProblem(
            torus_points(F5, 2), relative.space1.basis, None
        )
        assert ghw(relative, 1) == rghw_degree(absolute, 1)


class TestLeadSetDifference:
    def test_lex_shadowing(self):
        problem = RghwProblem(
            PointSet(F3, [[0, 0], [1, 0], [0, 1], [2, 2]]),
            [Polynomial.monomial(F3, (1, 0)), Polynomial.monomial(F3, (0, 1))],
            [Polynomial.monomial(F3, (0, 1))],
            LEX,
        )
        assert lead_set_difference(problem) == [(1, 0)]

    def test_zero_second_space_gives_all_leads(self):
        problem = RghwProblem(
            PointSet(F3, FIVE_POINTS), monomials_upto(F3, 2, 1), None
        )
        assert set(lead_set_difference(problem)) == {(1, 0), (0, 1), (0, 0)}

    def test_matches_brute_sweep(self):
        for build in (five_point_problem, torus_gap_problem):
            problem = build()
            assert set(lead_set_difference(problem)) == brute_lead_sweep(problem)

    def test_matches_brute_sweep_random(self):
        # lead_set_difference reads the first `_realized` basis leads.
        rng = random.Random(SEED + 2)
        checked = 0
        while checked < 30:
            q = rng.choice((2, 3, 5))
            field = PrimeField(q)
            order = rng.choice((LEX, GRLEX, GREVLEX))
            pool = list(product(range(q), repeat=2))
            rng.shuffle(pool)
            pts = PointSet(field, pool[: rng.randint(3, min(7, len(pool)))])
            monos = monomials_upto(field, 2, 2)
            rng.shuffle(monos)
            try:
                first = RghwProblem(pts, monos[: rng.randint(2, 6)], None, order)
            except ValueError:
                continue
            k1 = first.k1
            if q**k1 > 5**5:
                continue
            combos = [
                [rng.randrange(q) for _ in range(k1)]
                for _ in range(rng.randint(0, k1 - 1))
            ]
            space2 = [first.poly_from_coefficients(c) for c in combos]
            problem = RghwProblem(pts, first.space1, space2, order, gb=first.gb)
            assert set(lead_set_difference(problem)) == brute_lead_sweep(problem)
            checked += 1


class TestRelativeFootprint:
    def test_constant_space_full_footprint(self):
        problem = RghwProblem(
            PointSet(F3, FIVE_POINTS), [Polynomial.constant(F3, 2, 1)], None
        )
        assert relative_footprint(problem, 1) == 5

    def test_lower_bounds_the_weight(self):
        problem = five_point_problem()
        for r in (1, 2):
            assert relative_footprint(problem, r) <= rghw_degree(problem, r)

    def test_squarefree_bound_is_sharp_for_r_one(self):
        # For nested squarefree spaces the footprint bound meets the
        # relative weight at r = 1.
        field = F3
        s = 2
        monos1 = [
            Polynomial.monomial(field, m)
            for m in product(range(2), repeat=s)
        ]
        monos2 = [
            Polynomial.monomial(field, m)
            for m in product(range(2), repeat=s)
            if sum(m) <= 1
        ]
        problem = RghwProblem(torus_points(field, s), monos1, monos2)
        assert relative_footprint(problem, 1) == rghw_degree(problem, 1)


class TestInt64Limit:
    """Scoring sums k1 products of residues: k1 * (q - 1)^2 < 2^63."""

    @staticmethod
    def line_problem(q, degree):
        field = PrimeField(q)
        points = PointSet(field, [(x,) for x in range(6)])
        space = [Polynomial.monomial(field, (e,)) for e in range(degree + 1)]
        return RghwProblem(points, space)

    def test_just_below_the_limit(self):
        # 2 * (q - 1)^2 < 2^63 for q = 2^31 - 1.  The group of t1 + c holds
        # q candidates, but t1 already meets its footprint bound of one
        # zero, so the search stops after one chunk.
        problem = self.line_problem(2147483647, 1)
        assert problem.k1 == 2
        assert rghw_degree(problem, 1) == 5

    def test_refused_above_the_limit(self):
        with pytest.raises(ValueError, match=r"2\^63"):
            self.line_problem(2147483659, 1)
        with pytest.raises(ValueError, match=r"2\^63"):
            self.line_problem(2147483647, 2)

    def test_definition_oracle_refuses_before_the_budget(self):
        # One product of residues fits, the sum of two does not.  A run that
        # cannot be computed is refused as such, not as work over budget.
        code = EvaluationCode(PrimeField(3037000493), [[1, 0], [0, 1]])
        with pytest.raises(ValueError, match=r"2\^63"):
            rghw_definition_oracle(code, None, 1, budget=1)
