import random
from itertools import product

import pytest

from evalcodes import (
    GREVLEX,
    LEX,
    BudgetExceededError,
    GeneratorMatrix,
    HypersimplexSpec,
    PointSet,
    Polynomial,
    PrimeField,
    RghwProblem,
    echelonize,
    gaussian_binomial,
    ghw,
    lead_set_difference,
    relative_footprint,
    rghw_definition_oracle,
    rghw_degree,
    toric_code,
    toric_problem,
    torus_points,
    weight_distribution,
)
from evalcodes.field import rank_mod

from oracles import (
    brute_lead_sweep,
    brute_min_support_subcode,
    brute_subspace_count,
    enumerate_candidates,
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


def bare_code(rows, q, n=None):
    field = PrimeField(q)
    matrix = GeneratorMatrix(field, rows, n=n)

    class _Bare:
        pass

    code = _Bare()
    code.matrix = matrix
    code.n = matrix.n
    code.k = matrix.k
    code.field = field
    return code


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
                sub = bare_code(sub_rows, q)
            for r in range(1, k1 - k2 + 1):
                got = rghw_definition_oracle(bare_code(rows, q), sub, r)
                want = brute_min_support_subcode(
                    rows, sub.matrix.tolist() if sub else [], q, r
                )
                assert got == want
            checked += 1

    def test_minimum_distance_collapse(self):
        code = toric_code(HypersimplexSpec(F3, 3, 1))
        d = weight_distribution(code).minimum_distance
        assert rghw_definition_oracle(code, None, 1) == d

    def test_rejects_non_subcode(self):
        code1 = bare_code([[1, 0, 0], [0, 1, 0]], 3)
        code2 = bare_code([[0, 0, 1]], 3)
        with pytest.raises(ValueError):
            rghw_definition_oracle(code1, code2, 1)

    def test_budget_refusal(self):
        code = bare_code([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 5)
        with pytest.raises(BudgetExceededError):
            rghw_definition_oracle(code, None, 1, budget=2)


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
        problem = five_point_problem()
        with pytest.raises(BudgetExceededError) as info:
            rghw_degree(problem, 1, budget=5)
        assert info.value.budget == 5

    def test_r_out_of_range(self):
        problem = five_point_problem()
        with pytest.raises(ValueError):
            rghw_degree(problem, 0)
        with pytest.raises(ValueError):
            rghw_degree(problem, 3)


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
        rng = random.Random(SEED + 2)
        checked = 0
        while checked < 8:
            pool = list(product(range(3), repeat=2))
            rng.shuffle(pool)
            pts = PointSet(F3, pool[: rng.randint(3, 7)])
            monos = monomials_upto(F3, 2, 2)
            rng.shuffle(monos)
            try:
                problem = RghwProblem(
                    pts, monos[:4], [monos[0] + monos[1]], GREVLEX
                )
            except ValueError:
                continue
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
