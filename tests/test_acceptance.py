"""End to end acceptance checks with one [PASS]/[FAIL] line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute; without ``-s`` pytest shows them only for failures.  Each
criterion enforces its own runtime limit where one is part of the contract.
"""

import itertools
import random
import time

import pytest

from evalcodes import (
    HypersimplexSpec,
    PointSet,
    Polynomial,
    PrimeField,
    RghwProblem,
    cartesian_problem,
    cartesian_rghw_formula,
    degree_with_F,
    evaluate_space,
    footprint,
    format_polynomial,
    next_to_minimal,
    relative_footprint,
    rghw_definition_oracle,
    rghw_degree,
    toric_code,
    toric_deg1_weight,
    toric_min_distance_formula,
    torus_points,
    vanishing_ideal,
    variety_in_X,
    weight_distribution,
)

from oracles import evaluate_at

SEED = 20260823


def _run(name, body, limit=None):
    start = time.perf_counter()
    try:
        body()
    except AssertionError as exc:
        print(f"[FAIL] {name}: {exc}")
        raise
    except Exception as exc:
        print(f"[FAIL] {name}: {type(exc).__name__}: {exc}")
        raise
    elapsed = time.perf_counter() - start
    if limit is not None and elapsed >= limit:
        print(f"[FAIL] {name}: took {elapsed:.1f}s, limit {limit}s")
        pytest.fail(f"runtime {elapsed:.1f}s exceeds the {limit}s limit")
    print(f"[PASS] {name} ({elapsed:.2f}s)")


def _random_points(rng, field, s, max_points):
    universe = list(itertools.product(range(field.q), repeat=s))
    m = rng.randint(1, min(max_points, len(universe)))
    return PointSet(field, rng.sample(universe, m))


def _random_polynomial(rng, field, s, max_deg=2):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        mono = tuple(rng.randint(0, max_deg) for _ in range(s))
        terms[mono] = rng.randrange(field.q)
    return Polynomial(field, s, terms)


def test_five_point_ideal_and_relative_weights():
    def body():
        field = PrimeField(3)
        points = PointSet(field, [(0, 0), (1, 0), (0, 1), (1, 1), (0, -1)])
        gb = vanishing_ideal(points)
        generators = {format_polynomial(g) for g in gb.generators}
        assert generators == {"t1^2 - t1", "t2^3 - t2", "t1*t2^2 - t1*t2"}, generators

        def total_degree_space(d):
            return [
                Polynomial.monomial(field, e)
                for e in itertools.product(range(3), repeat=2)
                if sum(e) <= d
            ]

        problem = RghwProblem(
            points, total_degree_space(2), total_degree_space(1), gb=gb
        )
        values = [rghw_degree(problem, r, validate=True) for r in (1, 2)]
        assert values == [1, 2], values

    _run("five-point vanishing ideal and relative weights", body, limit=5.0)


def test_hypersimplex_table_reproduction():
    def body():
        field = PrimeField(3)
        dims, minima, second = [], [], []
        for d in (1, 2, 3, 4):
            code = toric_code(HypersimplexSpec(field, 4, d))
            assert code.n == 16, code.n
            profile = weight_distribution(code)
            brute = profile.minimum_distance
            formula = toric_min_distance_formula(3, 4, d)
            assert brute == formula, (d, brute, formula)
            dims.append(code.k)
            minima.append(brute)
            second.append(next_to_minimal(profile))
        assert dims == [4, 6, 4, 1], dims
        assert minima == [8, 4, 8, 16], minima
        assert second == [10, 6, 10, 16], second

    _run("hypersimplex code table over F3 in four variables", body, limit=30.0)


def test_sharp_footprint_gap_on_torus():
    def body():
        field = PrimeField(5)
        points = torus_points(field, 2)

        def mono(e):
            return Polynomial.monomial(field, e)

        space1 = [
            Polynomial.constant(field, 2, 1),
            mono((3, 0)),
            mono((1, 2)),
            mono((0, 3)),
            mono((1, 1)),
            mono((2, 0)),
        ]
        space2 = [mono((1, 2)), mono((1, 1))]
        problem = RghwProblem(points, space1, space2)
        weight = rghw_degree(problem, 1, validate=True)
        bound = relative_footprint(problem, 1)
        assert weight == 8, weight
        assert bound == 4, bound
        assert bound < weight

    _run("sharp footprint gap on the five-element torus", body, limit=60.0)


def test_search_matches_definition_oracle():
    def body():
        rng = random.Random(SEED)
        checked = 0
        while checked < 24:
            field = PrimeField(rng.choice((3, 5)))
            s = rng.randint(1, 3)
            points = _random_points(rng, field, s, 9)
            polys1 = [
                _random_polynomial(rng, field, s) for _ in range(rng.randint(1, 4))
            ]
            combos = []
            for _ in range(rng.randint(0, 2)):
                f = Polynomial.zero(field, s)
                for p in polys1:
                    f = f + Polynomial.constant(field, s, rng.randrange(field.q)) * p
                if not f.is_zero():
                    combos.append(f)
            try:
                problem = RghwProblem(points, polys1, combos or None)
            except ValueError:
                continue
            if problem.k1 > 4:
                continue
            r = rng.randint(1, min(2, problem.k1 - problem.k2))
            code1, code2 = problem.codes()
            oracle = rghw_definition_oracle(code1, code2, r)
            value = rghw_degree(problem, r)
            assert value == oracle, (problem, r, value, oracle)
            checked += 1
        assert checked >= 20

    _run("degree search equals the definition oracle on 24 problems", body)


def test_zero_count_equals_quotient_degree():
    def body():
        rng = random.Random(SEED + 1)
        for _ in range(100):
            field = PrimeField(rng.choice((2, 3, 5)))
            s = rng.randint(1, 3)
            points = _random_points(rng, field, s, 8)
            gb = vanishing_ideal(points)
            F = []
            while not F:
                F = [
                    f
                    for f in (
                        _random_polynomial(rng, field, s)
                        for _ in range(rng.randint(1, 3))
                    )
                    if not f.is_zero()
                ]
            count = len(variety_in_X(F, points))
            exact, bound = degree_with_F(gb, F)
            assert count == exact, (F, count, exact)
            assert exact <= bound <= len(points), (exact, bound, len(points))
            vanishes_everywhere = all(
                evaluate_at(f, p) == 0 for f in F for p in points
            )
            if not vanishes_everywhere:
                assert count < len(points), (F, count)

    _run("variety size equals quotient degree on 100 random inputs", body)


def test_degree_one_toric_weight_formula():
    def body():
        for q in (3, 5):
            field = PrimeField(q)
            for s in (2, 3, 4):
                code = toric_code(HypersimplexSpec(field, s, 1))
                enumerated = weight_distribution(code).distinct_weights
                predicted = [toric_deg1_weight(q, s, t) for t in range(1, s // 2 + 1)]
                assert enumerated[: s // 2] == predicted, (q, s, enumerated, predicted)

    _run("degree-one toric weight formula matches enumeration", body, limit=120.0)


def test_cartesian_formula_matches_search():
    def body():
        checked = 0
        for q in (3, 5):
            field = PrimeField(q)
            for sizes in ((2, 2), (2, 3), (3, 3)):
                subsets = [list(range(n)) for n in sizes]
                max_degree = sum(n - 1 for n in sizes)
                for d1 in range(1, max_degree + 1):
                    for d2 in range(-1, d1):
                        problem = cartesian_problem(field, subsets, d1, d2)
                        for r in (1, 2):
                            if r > problem.k1 - problem.k2:
                                continue
                            formula = cartesian_rghw_formula(sizes, d1, d2, r)
                            search = rghw_degree(problem, r)
                            assert formula == search, (q, sizes, d1, d2, r)
                            checked += 1
        assert checked >= 100, checked

    _run("cartesian closed formula equals the search on every instance", body)


def test_invariant_suite():
    def body():
        rng = random.Random(SEED + 2)

        problems = []
        field3 = PrimeField(3)
        five = PointSet(field3, [(0, 0), (1, 0), (0, 1), (1, 1), (0, -1)])
        deg2 = [
            Polynomial.monomial(field3, e)
            for e in itertools.product(range(3), repeat=2)
            if sum(e) <= 2
        ]
        deg1 = [m for m in deg2 if all(sum(e) <= 1 for e in m.terms)]
        problems.append(RghwProblem(five, deg2, deg1))
        while len(problems) < 6:
            field = PrimeField(rng.choice((2, 3, 5)))
            s = rng.randint(1, 2)
            points = _random_points(rng, field, s, 8)
            polys = [
                _random_polynomial(rng, field, s) for _ in range(rng.randint(2, 4))
            ]
            try:
                problems.append(RghwProblem(points, polys))
            except ValueError:
                continue

        for problem in problems:
            values = []
            for r in range(1, problem.k1 - problem.k2 + 1):
                weight = rghw_degree(problem, r)
                assert relative_footprint(problem, r) <= weight, (problem, r)
                values.append(weight)
            assert values == sorted(values), (problem, values)

        for _ in range(8):
            field = PrimeField(rng.choice((2, 3, 5)))
            s = rng.randint(1, 3)
            points = _random_points(rng, field, s, 10)
            gb = vanishing_ideal(points)
            assert len(footprint(gb)) == len(points), points

        codes = [toric_code(HypersimplexSpec(PrimeField(3), 3, d)) for d in (1, 2)]
        codes.append(evaluate_space(problems[0].space1, five))
        for code in codes:
            assert weight_distribution(code).total() == code.field.q**code.k

        gap_problem = problems[0]
        single = [rghw_degree(gap_problem, 2, threads=t) for t in (1, 2, 3)]
        assert len(set(single)) == 1, single
        profiles = [weight_distribution(codes[0], threads=t) for t in (1, 2, 3)]
        assert profiles[0] == profiles[1] == profiles[2]

    _run("invariant suite: bounds, monotonicity, degrees, thread safety", body)
