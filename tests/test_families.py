from itertools import product

import pytest

from evalcodes import (
    GREVLEX,
    GRLEX,
    LEX,
    HypersimplexSpec,
    Polynomial,
    PrimeField,
    cartesian_points,
    cartesian_problem,
    cartesian_rghw_formula,
    cartesian_space,
    evaluate_space,
    relative_footprint,
    rghw_degree,
    toric_code,
    toric_deg1_weight,
    toric_min_distance_formula,
    toric_problem,
    torus_points,
    variety_in_X,
    weight_distribution,
)

from oracles import (
    box_monomials,
    brute_max_zero_count,
    linear_form_zero_count,
    reducible_zero_bound,
    squarefree_zero_bound,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


class TestCartesianPointsAndCodes:
    def test_unit_square_degree_one(self):
        pts = cartesian_points(F3, [[0, 1], [0, 1]])
        code = evaluate_space(cartesian_space(F3, (2, 2), 1), pts)
        assert code.n == 4
        assert code.k == 3

    def test_full_field_degree_one(self):
        pts = cartesian_points(F3, [list(range(3))] * 4)
        code = evaluate_space(cartesian_space(F3, (3,) * 4, 1), pts)
        assert code.n == 81
        assert code.k == 5

    def test_full_degree_space_covers_everything(self):
        pts = cartesian_points(F3, [[0, 1], [0, 1, 2]])
        code = evaluate_space(cartesian_space(F3, (2, 3), 1 + 2), pts)
        assert code.k == code.n == 6

    @pytest.mark.parametrize(
        "subsets, d1",
        [
            ([[0, 1], [0, 1, 1]], 1),  # a value repeated in a subset
            ([[0, 1], [0, 1, 3]], 1),  # 3 repeats 0 mod 3
            ([[], [0, 1]], 1),  # an empty subset
            ([[0, 1, 2], [0, 1]], 1),  # decreasing sizes
            ([[0, 1], [0, 1]], -1),  # a negative degree
        ],
    )
    def test_problem_refuses_malformed_input(self, subsets, d1):
        with pytest.raises(ValueError):
            cartesian_problem(F3, subsets, d1)

    def test_point_order_is_lexicographic(self):
        pts = cartesian_points(F3, [[0, 1], [1, 2]])
        assert pts.points == [(0, 1), (0, 2), (1, 1), (1, 2)]

    def test_space_is_the_degree_window_of_the_box(self):
        # Degree -1 is an empty window, hence the zero space.
        for order in (LEX, GRLEX, GREVLEX):
            for degree in range(-1, 6):
                space = cartesian_space(F5, (2, 3, 3), degree, order)
                expected = order.sorted(box_monomials((2, 3, 3), 0, degree))
                assert space.leads() == expected[::-1]
        assert cartesian_space(F5, (2, 3), -1).dim == 0


class TestCartesianFormula:
    def test_window_example(self):
        assert cartesian_rghw_formula((2, 2), 1, 0, 1) == 2

    def test_window_is_descending_lex(self):
        # Box (2, 3): the window 0 < deg <= 1 is (1, 0), (0, 1) in that
        # order, giving 6 - 3 - 1 + 1 and 6 - 1 - 2 + 2; ascending order
        # would put (0, 1) first, at rank 2, and give M_1 = 6 - 1 - 2 + 1.
        values = [cartesian_rghw_formula((2, 3), 1, 0, r) for r in (1, 2)]
        assert values == [3, 5]
        problem = cartesian_problem(F3, [[0, 1], [0, 1, 2]], 1, 0)
        assert values == [rghw_degree(problem, r) for r in (1, 2)]
        with pytest.raises(ValueError, match="between 1 and 2"):
            cartesian_rghw_formula((2, 3), 1, 0, 3)
        # The whole box in descending lex, (1, 2) first and (0, 0) last:
        # each r-th vector has rank t = r, so M_r = 6 - (3 a_1 + a_2), the
        # weights 1..6 of the full code.
        full = [cartesian_rghw_formula((2, 3), 3, -1, r) for r in range(1, 7)]
        assert full == [1, 2, 3, 4, 5, 6]

    def test_box_size_and_max_degree(self):
        # Box (2, 3) holds 6 vectors of degree at most 3: M_6 of the full
        # code is the box size, and d1 = 4 is refused.
        assert cartesian_rghw_formula((2, 3), 3, -1, 6) == 6
        with pytest.raises(ValueError, match="between 1 and 6"):
            cartesian_rghw_formula((2, 3), 3, -1, 7)
        with pytest.raises(ValueError, match="d1 <= 3"):
            cartesian_rghw_formula((2, 3), 4, -1, 1)
        with pytest.raises(ValueError, match="positive"):
            cartesian_rghw_formula((0, 3), 1, -1, 1)

    def test_ghw_collapse_with_empty_second_code(self):
        # d2 = -1 makes the second space zero; the formula then gives the
        # generalized Hamming weights of the Cartesian code itself.
        problem = cartesian_problem(F3, [[0, 1], [0, 1]], 1)
        assert cartesian_rghw_formula((2, 2), 1, -1, 1) == rghw_degree(problem, 1)

    def test_matches_search_on_nested_pair(self):
        problem = cartesian_problem(F3, [[0, 1, 2], [0, 1, 2]], 2, 1)
        assert cartesian_rghw_formula((3, 3), 2, 1, 1) == rghw_degree(problem, 1)

    def test_matches_search_small_sweep(self):
        for subsets in ([[0, 1], [0, 1]], [[0, 1], [0, 1, 2]]):
            sizes = tuple(len(sub) for sub in subsets)
            degrees = [sum(a) for a in product(*(range(d) for d in sizes))]
            for d1 in range(1, max(degrees) + 1):
                for d2 in range(-1, d1):
                    max_r = sum(1 for e in degrees if d2 < e <= d1)
                    for r in range(1, min(2, max_r) + 1):
                        formula = cartesian_rghw_formula(sizes, d1, d2, r)
                        problem = cartesian_problem(F3, subsets, d1, d2)
                        assert formula == rghw_degree(problem, r)
                        assert formula == relative_footprint(problem, r)

    def test_rejects_bad_degrees(self):
        with pytest.raises(ValueError):
            cartesian_rghw_formula((2, 2), 0, 0, 1)
        with pytest.raises(ValueError):
            cartesian_rghw_formula((2, 2), 3, 1, 1)
        with pytest.raises(ValueError):
            cartesian_rghw_formula((3, 2), 1, 0, 1)  # sizes must be sorted


class TestSquarefreeCodes:
    # The squarefree monomials of degree <= d are the Cartesian space of the
    # box (2, ..., 2), standard on the torus of GF(3).
    def test_dimension_counts(self):
        code = evaluate_space(cartesian_space(F3, (2, 2), 2), torus_points(F3, 2))
        assert (code.n, code.k) == (4, 4)
        code = evaluate_space(cartesian_space(F3, (2,) * 3, 1), torus_points(F3, 3))
        assert (code.n, code.k) == (8, 4)

    def test_nested_relative_weight_equals_minimum_distance(self):
        problem = toric_problem(F3, 3, 2, degrees2=[0, 1])
        code1, _ = problem.codes()
        d = weight_distribution(code1).minimum_distance
        assert rghw_degree(problem, 1) == d

    def test_toric_problem_second_space_degrees(self):
        # L2 is spanned by the squarefree monomials of each listed degree;
        # a negative degree is refused.
        assert toric_problem(F3, 3, 2, degrees2=[0, 2]).k2 == 1 + 3
        with pytest.raises(ValueError, match="non-negative"):
            toric_problem(F3, 3, 2, degrees2=[0, -1])

    def test_max_zero_counts_grow_with_degree(self):
        for s in (2, 3):
            prev = None
            for d in range(0, s + 1):
                space = cartesian_space(F3, (2,) * s, d)
                code = evaluate_space(space, torus_points(F3, s))
                rows = code.rows.tolist()
                zeros = brute_max_zero_count(rows, 3)
                if prev is not None:
                    assert zeros > prev
                prev = zeros


class TestToricCodes:
    def test_dimensions(self):
        assert toric_code(HypersimplexSpec(F3, 4, 1)).k == 4
        assert toric_code(HypersimplexSpec(F3, 4, 2)).k == 6
        assert toric_code(HypersimplexSpec(F3, 4, 3)).k == 4
        assert toric_code(HypersimplexSpec(F3, 4, 4)).k == 1

    def test_binary_torus_is_one_point(self):
        for d in (1, 2, 3):
            code = toric_code(HypersimplexSpec(F2, 3, d))
            assert code.n == 1
            assert code.k == 1

    def test_spec_dimension_without_building_the_code(self):
        for field in (F2, F3, F5):
            for s in (1, 2, 3, 4):
                for d in range(1, s + 1):
                    spec = HypersimplexSpec(field, s, d)
                    assert spec.dim == toric_code(spec).k
        assert HypersimplexSpec(F3, 40, 20).dim == 137846528820

    def test_min_distance_formula_examples(self):
        assert toric_min_distance_formula(3, 4, 2) == 4
        assert toric_min_distance_formula(3, 4, 3) == 8
        assert toric_min_distance_formula(2, 3, 1) == 1
        assert toric_min_distance_formula(5, 2, 2) == 16

    def test_min_distance_formula_matches_enumeration(self):
        for q, field in ((2, F2), (3, F3), (5, F5)):
            for s in (1, 2, 3):
                for d in range(1, s + 1):
                    code = toric_code(HypersimplexSpec(field, s, d))
                    enumerated = weight_distribution(code).minimum_distance
                    assert enumerated == toric_min_distance_formula(q, s, d)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            toric_min_distance_formula(3, 4, 0)
        with pytest.raises(ValueError):
            toric_min_distance_formula(3, 4, 5)
        with pytest.raises(ValueError):
            HypersimplexSpec(F3, 4, 5)


class TestZeroBounds:
    def test_squarefree_bound_examples(self):
        assert squarefree_zero_bound(3, 4, 2) == 12
        assert squarefree_zero_bound(3, 2, 1) == 2

    def test_squarefree_bound_attained_by_split_form(self):
        # (t1 + t2) vanishes on 2 of the 4 torus points of (F_3*)^2.
        pts = torus_points(F3, 2)
        f = Polynomial(F3, 2, {(1, 0): 1, (0, 1): 1})
        assert len(variety_in_X([f], pts)) == squarefree_zero_bound(3, 2, 1)

    def test_squarefree_bound_dominates_every_form(self):
        for s in (2, 3, 4):
            for d in range(1, s):
                code = toric_code(HypersimplexSpec(F3, s, d))
                zeros = brute_max_zero_count(code.rows.tolist(), 3)
                assert zeros <= squarefree_zero_bound(3, s, d)
                if 2 * d <= s:
                    assert zeros == squarefree_zero_bound(3, s, d)

    def test_squarefree_bound_guards(self):
        with pytest.raises(ValueError):
            squarefree_zero_bound(2, 4, 2)
        with pytest.raises(ValueError):
            squarefree_zero_bound(3, 4, 4)

    def test_reducible_bound_examples(self):
        assert reducible_zero_bound(3, 4, 2, 1) == 8
        assert reducible_zero_bound(5, 3, 2, 1) == 16

    def test_reducible_bound_attained(self):
        # f = (t1 + t2) t3 has the zeros of t1 + t2 on the torus.
        pts = torus_points(F3, 4)
        f = Polynomial(F3, 4, {(1, 0, 1, 0): 1, (0, 1, 1, 0): 1})
        assert len(variety_in_X([f], pts)) == reducible_zero_bound(3, 4, 2, 1)

    def test_reducible_bound_guards(self):
        with pytest.raises(ValueError):
            reducible_zero_bound(2, 4, 2, 1)
        with pytest.raises(ValueError):
            reducible_zero_bound(3, 4, 2, 2)
        with pytest.raises(ValueError):
            reducible_zero_bound(3, 4, 4, 1)


class TestLinearFormZeroCount:
    def test_examples(self):
        assert linear_form_zero_count(3, 2, 2) == 2
        assert linear_form_zero_count(3, 4, 4) == 6
        assert linear_form_zero_count(3, 4, 2) == 8

    def test_matches_direct_counting(self):
        for q, field in ((3, F3), (5, F5)):
            for s in range(2, 6):
                pts = torus_points(field, s)
                for r in range(2, s + 1):
                    terms = {
                        tuple(1 if i == j else 0 for i in range(s)): 1
                        for j in range(r)
                    }
                    f = Polynomial(field, s, terms)
                    assert len(variety_in_X([f], pts)) == linear_form_zero_count(
                        q, s, r
                    )

    def test_guards(self):
        with pytest.raises(ValueError):
            linear_form_zero_count(2, 3, 2)
        with pytest.raises(ValueError):
            linear_form_zero_count(3, 3, 1)
        with pytest.raises(ValueError):
            linear_form_zero_count(3, 3, 4)


class TestDegreeOneWeights:
    def test_examples(self):
        assert toric_deg1_weight(3, 4, 1) == 8
        assert toric_deg1_weight(3, 4, 2) == 10
        assert toric_deg1_weight(5, 2, 1) == 12

    def test_matches_distinct_weights(self):
        for q, field in ((3, F3), (5, F5)):
            for s in (2, 3, 4):
                code = toric_code(HypersimplexSpec(field, s, 1))
                weights = weight_distribution(code).distinct_weights
                expected = [toric_deg1_weight(q, s, t) for t in range(1, s // 2 + 1)]
                assert weights[: len(expected)] == expected

    def test_guards(self):
        with pytest.raises(ValueError):
            toric_deg1_weight(2, 4, 1)
        with pytest.raises(ValueError):
            toric_deg1_weight(3, 4, 3)
