import random
from itertools import product

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from evalcodes import (
    GREVLEX,
    GRLEX,
    LEX,
    DimensionMismatchError,
    FieldMismatchError,
    GroebnerBasis,
    NotZeroDimensionalError,
    PointSet,
    Polynomial,
    PrimeField,
    ZeroPolynomialError,
    box_degree,
    degree_with_F,
    degree_zero_dim,
    divide,
    emptiness_criteria,
    footprint,
    format_polynomial,
    hilbert_affine,
    initial_ideal,
    monomial_footprint,
    normal_form,
    torus_points,
    vanishing_ideal,
    variety_in_X,
)
from evalcodes.poly import monomial_div, monomial_divides, monomial_lcm

from oracles import brute_variety_count, buchberger

SEED = 20260823
F3 = PrimeField(3)
F5 = PrimeField(5)

FIVE_POINTS = [[0, 0], [1, 0], [0, 1], [1, 1], [0, -1]]


def parse(field, nvars, terms):
    return Polynomial(field, nvars, terms)


def s_polynomial(f, g, order):
    lf, lg = f.lead_monomial(order), g.lead_monomial(order)
    lcm = monomial_lcm(lf, lg)
    a = f.term_mul(monomial_div(lcm, lf), f.field.inv(f.lead_coeff(order)))
    b = g.term_mul(monomial_div(lcm, lg), g.field.inv(g.lead_coeff(order)))
    return a - b


def is_groebner(gens, order):
    """Buchberger criterion: every S-polynomial reduces to zero."""
    for i, f in enumerate(gens):
        for g in gens[i + 1 :]:
            _, rem = divide(s_polynomial(f, g, order), gens, order)
            if not rem.is_zero():
                return False
    return True


def random_point_set(rng, field, nvars, max_points):
    pool = list(product(range(field.q), repeat=nvars))
    rng.shuffle(pool)
    count = rng.randint(1, min(max_points, len(pool)))
    return PointSet(field, pool[:count])


def random_polynomial(rng, field, nvars, max_degree=3, max_terms=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = tuple(rng.randint(0, max_degree) for _ in range(nvars))
        terms[mono] = rng.randrange(field.q)
    return Polynomial(field, nvars, terms)


class TestPointSet:
    def test_canonicalization(self):
        pts = PointSet(F3, [[0, -1], [1, 4]])
        assert pts.points == [(0, 2), (1, 1)]

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            PointSet(F3, [[0, 0], [3, 0]])

    def test_rejects_empty_and_ragged(self):
        with pytest.raises(ValueError):
            PointSet(F3, [])
        with pytest.raises(ValueError):
            PointSet(F3, [[0, 0], [1]])


class TestBuchberger:
    def test_already_reduced_disjoint_leads(self):
        gens = [
            parse(F3, 2, {(1, 0): 1, (0, 0): -1}),
            parse(F3, 2, {(0, 1): 1, (0, 0): -1}),
        ]
        gb = buchberger(gens, LEX)
        assert {format_polynomial(g) for g in gb.generators} == {"t1 - 1", "t2 - 1"}

    def test_torus_ideal_fixed(self):
        gens = [
            parse(F3, 2, {(2, 0): 1, (0, 0): -1}),
            parse(F3, 2, {(0, 2): 1, (0, 0): -1}),
        ]
        gb = buchberger(gens, GREVLEX)
        assert {format_polynomial(g) for g in gb.generators} == {
            "t1^2 - 1",
            "t2^2 - 1",
        }

    def test_five_point_generators_already_groebner(self):
        gens = [
            parse(F3, 2, {(2, 0): 1, (1, 0): -1}),
            parse(F3, 2, {(0, 3): 1, (0, 1): -1}),
            parse(F3, 2, {(1, 2): 1, (1, 1): -1}),
        ]
        assert is_groebner(gens, GREVLEX)
        assert buchberger(gens, GREVLEX).generators == gens

    def test_random_ideals_satisfy_criterion(self):
        rng = random.Random(SEED)
        for field in (F3, F5):
            for _ in range(15):
                gens = [
                    random_polynomial(rng, field, 2)
                    for _ in range(rng.randint(1, 3))
                ]
                gens = [g for g in gens if not g.is_zero()]
                if not gens:
                    continue
                gb = buchberger(gens, GREVLEX)
                assert is_groebner(gb.generators, GREVLEX)
                # The ideal is unchanged: inputs reduce to zero.
                for g in gens:
                    _, rem = divide(g, gb.generators, GREVLEX)
                    assert rem.is_zero()


class TestVanishingIdeal:
    def test_single_point_gives_maximal_ideal(self):
        gb = vanishing_ideal(PointSet(F3, [[0, 0]]), LEX)
        assert {format_polynomial(g) for g in gb.generators} == {"t1", "t2"}

    def test_five_point_generators_verbatim(self):
        gb = vanishing_ideal(PointSet(F3, FIVE_POINTS), GREVLEX)
        assert [format_polynomial(g) for g in gb.generators] == [
            "t1^2 - t1",
            "t2^3 - t2",
            "t1*t2^2 - t1*t2",
        ]

    def test_torus_ideal_binomials(self):
        gb = vanishing_ideal(torus_points(F5, 2), GREVLEX)
        assert {format_polynomial(g) for g in gb.generators} == {
            "t1^4 - 1",
            "t2^4 - 1",
        }

    def test_generators_vanish_and_footprint_matches(self):
        rng = random.Random(SEED + 1)
        for field in (F3, F5):
            for nvars in (1, 2, 3):
                for _ in range(6):
                    pts = random_point_set(rng, field, nvars, 9)
                    gb = vanishing_ideal(pts, GREVLEX)
                    for g in gb.generators:
                        for p in pts:
                            assert int(g.evaluate(p)) == 0
                    assert degree_zero_dim(gb) == len(pts)
                    assert is_groebner(gb.generators, GREVLEX)

    def test_agrees_with_buchberger_on_product_ideal(self):
        # I(X) for a Cartesian X is generated by the univariate vanishing
        # polynomials; the reduced basis must coincide with the direct one.
        gens = [
            parse(F3, 2, {(2, 0): 1, (1, 0): -1}),  # roots {0, 1}
            parse(F3, 2, {(0, 3): 1, (0, 1): -1}),  # roots {0, 1, 2}
        ]
        direct = buchberger(gens, GREVLEX)
        pts = PointSet(F3, [(a, b) for a in (0, 1) for b in (0, 1, 2)])
        assert vanishing_ideal(pts, GREVLEX).generators == direct.generators


@st.composite
def point_sets(draw):
    """X with q in {2, 3, 5, 7, 31}, s <= 3 and |X| <= 40."""
    q = draw(st.sampled_from((2, 3, 5, 7, 31)))
    s = draw(st.integers(1, 3))
    m = draw(st.integers(1, min(40, q**s)))
    ranks = draw(st.randoms(use_true_random=False)).sample(range(q**s), m)
    return PointSet(PrimeField(q), [[r // q**i % q for i in range(s)] for r in ranks])


@pytest.mark.parametrize("order", [LEX, GRLEX, GREVLEX], ids=lambda o: o.name)
@settings(
    derandomize=True,
    database=None,
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(pts=point_sets())
def test_vanishing_ideal_is_the_reduced_basis(order, pts):
    # Monic generators of I(X), a Groebner basis, no tail term in in(I):
    # together the unique reduced basis, whose footprint has |X| elements.
    gb = vanishing_ideal(pts, order)
    leads = gb.leads()
    for g in gb.generators:
        assert g.lead_coeff(order) == 1
        assert all(int(g.evaluate(p)) == 0 for p in pts)
        lead = g.lead_monomial(order)
        for mono in g.terms:
            if mono != lead:
                assert not any(monomial_divides(m, mono) for m in leads)
    assert is_groebner(gb.generators, order)
    fp = monomial_footprint(leads, pts.nvars, order)
    assert len(fp) == len(pts)
    assert gb.standard_monomials == fp.monomials


class TestNormalForm:
    def test_member_reduces_to_zero(self):
        gb = vanishing_ideal(PointSet(F3, FIVE_POINTS), GREVLEX)
        member = gb.generators[0] * gb.generators[2]
        assert normal_form(member, gb).is_zero()

    def test_standard_polynomial_unchanged(self):
        gb = vanishing_ideal(PointSet(F3, FIVE_POINTS), GREVLEX)
        f = parse(F3, 2, {(1, 1): 2, (0, 1): 1})
        assert normal_form(f, gb) == f

    def test_torus_power_collapses_to_one(self):
        gb = vanishing_ideal(torus_points(F5, 2), GREVLEX)
        f = Polynomial.monomial(F5, (4, 0))
        assert normal_form(f, gb) == Polynomial.constant(F5, 2, 1)
        g = Polynomial.monomial(F5, (2, 0))
        assert normal_form(g, gb) == g

    def test_idempotent_and_pointwise_sound(self):
        rng = random.Random(SEED + 2)
        for _ in range(25):
            pts = random_point_set(rng, F3, 2, 8)
            gb = vanishing_ideal(pts, GREVLEX)
            f = random_polynomial(rng, F3, 2, max_degree=4)
            nf = normal_form(f, gb)
            assert normal_form(nf, gb) == nf
            for p in pts:
                assert int(f.evaluate(p)) == int(nf.evaluate(p))


class TestFootprint:
    def test_five_point_initial_ideal_and_footprint(self):
        gb = vanishing_ideal(PointSet(F3, FIVE_POINTS), GREVLEX)
        assert initial_ideal(gb) == [(2, 0), (0, 3), (1, 2)]
        assert set(footprint(gb)) == {(0, 0), (1, 0), (0, 1), (0, 2), (1, 1)}

    def test_torus_initial_ideal(self):
        gb = vanishing_ideal(torus_points(F3, 2), GREVLEX)
        assert set(initial_ideal(gb)) == {(2, 0), (0, 2)}

    def test_linear_lead(self):
        gb = buchberger([parse(F3, 1, {(1,): 1, (0,): -1})], LEX)
        assert initial_ideal(gb) == [(1,)]

    def test_monomial_footprint_box(self):
        monos = monomial_footprint([(2, 0), (0, 3), (1, 2)], 2, GREVLEX)
        assert set(monos) == {(0, 0), (1, 0), (0, 1), (0, 2), (1, 1)}
        assert list(monomial_footprint([(1, 0), (0, 1)], 2, GREVLEX)) == [(0, 0)]
        full = monomial_footprint([(2, 0), (0, 2)], 2, GREVLEX)
        assert len(full) == 4

    def test_monomial_footprint_requires_zero_dimension(self):
        with pytest.raises(NotZeroDimensionalError):
            monomial_footprint([(2, 0)], 2, GREVLEX)

    def test_unit_ideal_footprint_empty(self):
        assert len(monomial_footprint([(0, 0)], 2, GREVLEX)) == 0


class TestDegreeAndHilbert:
    def test_degree_examples(self):
        gb = vanishing_ideal(PointSet(F3, FIVE_POINTS), GREVLEX)
        assert degree_zero_dim(gb) == 5
        unit = buchberger([Polynomial.constant(F3, 2, 1)], GREVLEX)
        assert degree_zero_dim(unit) == 0
        torus4 = vanishing_ideal(torus_points(F3, 4), GREVLEX)
        assert degree_zero_dim(torus4) == 16

    def test_hilbert_function_five_points(self):
        gb = vanishing_ideal(PointSet(F3, FIVE_POINTS), GREVLEX)
        assert hilbert_affine(gb, 0) == 1
        assert hilbert_affine(gb, 1) == 3
        assert hilbert_affine(gb, 2) == 5
        assert hilbert_affine(gb, 5) == 5

    def test_box_degree_examples(self):
        assert box_degree((3, 3), (1, 1)) == 5
        assert box_degree((2, 2), (0, 0)) == 0
        assert box_degree((2, 2, 2, 2), (1, 1, 0, 0)) == 12

    def test_box_degree_rejects_bad_exponents(self):
        with pytest.raises(ValueError):
            box_degree((2, 2), (2, 0))
        with pytest.raises(ValueError):
            box_degree((2, 2), (-1, 0))

    def test_box_degree_matches_footprint_count(self):
        # The formula counts the standard monomials of the box ideal with
        # the extra monomial t^a adjoined; a = 0 gives the unit ideal.
        for dvec in product(range(1, 5), repeat=2):
            for avec in product(range(4), repeat=2):
                if any(a >= d for a, d in zip(avec, dvec)):
                    continue
                leads = [(dvec[0], 0), (0, dvec[1]), avec]
                expected = len(monomial_footprint(leads, 2, GREVLEX))
                assert box_degree(dvec, avec) == expected


class TestVarietyAndEmptiness:
    def test_variety_examples(self):
        pts = torus_points(F3, 2)
        one = Polynomial.constant(F3, 2, 1)
        assert variety_in_X([one], pts) == []
        assert variety_in_X([], pts) == pts.points
        f = parse(F3, 2, {(1, 0): 1, (0, 1): 1})
        assert variety_in_X([f], pts) == [(1, 2), (2, 1)]

    def test_emptiness_examples(self):
        pts = torus_points(F3, 2)
        t1 = Polynomial.monomial(F3, (1, 0))
        crit = emptiness_criteria([t1], pts)
        assert crit == (True, True, True)
        five = PointSet(F3, FIVE_POINTS)
        crit2 = emptiness_criteria([Polynomial.monomial(F3, (1, 0))], five)
        assert crit2 == (False, False, False)

    def test_emptiness_rejects_empty_or_zero_F(self):
        pts = torus_points(F3, 2)
        with pytest.raises(ValueError):
            emptiness_criteria([], pts)
        with pytest.raises(ZeroPolynomialError):
            emptiness_criteria([Polynomial.zero(F3, 2)], pts)

    def test_three_criteria_always_agree(self):
        rng = random.Random(SEED + 3)
        for _ in range(25):
            pts = random_point_set(rng, F3, 2, 7)
            F = [random_polynomial(rng, F3, 2) for _ in range(rng.randint(1, 2))]
            if all(f.is_zero() for f in F):
                continue
            crit = emptiness_criteria(F, pts)
            assert crit.colon_trivial == crit.variety_empty == crit.ideal_is_unit


class TestDegreeWithF:
    def test_torus_line_section(self):
        pts = torus_points(F3, 2)
        gb = vanishing_ideal(pts, GREVLEX)
        f = parse(F3, 2, {(1, 0): 1, (0, 1): 1})
        assert degree_with_F(gb, [f]) == (2, 2)

    def test_contained_F_gives_full_degree(self):
        pts = PointSet(F3, FIVE_POINTS)
        gb = vanishing_ideal(pts, GREVLEX)
        member = gb.generators[0]
        deg, bound = degree_with_F(gb, [member])
        assert deg == 5
        assert bound == 5

    def test_bigger_torus_linear_form(self):
        pts = torus_points(F3, 4)
        gb = vanishing_ideal(pts, GREVLEX)
        f = parse(F3, 4, {(1, 0, 0, 0): 1, (0, 1, 0, 0): 1,
                          (0, 0, 1, 0): 1, (0, 0, 0, 1): 1})
        deg, bound = degree_with_F(gb, [f])
        assert deg == 6
        assert deg <= bound

    def test_degree_chain_random(self):
        rng = random.Random(SEED + 4)
        for _ in range(30):
            pts = random_point_set(rng, F3, 2, 8)
            gb = vanishing_ideal(pts, GREVLEX)
            F = [random_polynomial(rng, F3, 2) for _ in range(rng.randint(1, 2))]
            if all(f.is_zero() for f in F):
                continue
            deg, bound = degree_with_F(gb, [f for f in F if not f.is_zero()])
            count = brute_variety_count(pts.points, [f for f in F if not f.is_zero()])
            assert deg == count
            assert deg <= bound <= len(pts)

    def test_malformed_F_refused_on_every_path(self):
        # The constant has no common zero in X; its field is refused anyway.
        gb = vanishing_ideal(PointSet(F3, FIVE_POINTS), GREVLEX)
        with pytest.raises(FieldMismatchError):
            degree_with_F(gb, [Polynomial.constant(F5, 2, 1)])
        with pytest.raises(DimensionMismatchError):
            degree_with_F(gb, [Polynomial.monomial(F3, (1, 0, 0))])
        # t1^2 - t1 alone is a Groebner basis of a positive dimensional ideal.
        lines = GroebnerBasis(F3, 2, GREVLEX, [parse(F3, 2, {(2, 0): 1, (1, 0): -1})])
        with pytest.raises(NotZeroDimensionalError):
            degree_with_F(lines, [Polynomial.monomial(F3, (0, 1))])


@st.composite
def ideals_with_F(draw):
    """(points, basis of I(X), F) with 1 <= |F| <= 3, q <= 7 and s <= 3."""
    field = PrimeField(draw(st.sampled_from((2, 3, 5, 7))))
    s = draw(st.integers(1, 3))
    grid = list(product(range(field.q), repeat=s))
    points = draw(
        st.lists(st.sampled_from(grid), min_size=1, max_size=8, unique=True)
    )
    pts = PointSet(field, points)
    gb = vanishing_ideal(pts, draw(st.sampled_from((LEX, GRLEX, GREVLEX))))
    monos = list(product(range(3), repeat=s))
    terms = st.dictionaries(
        st.sampled_from(monos), st.integers(1, field.q - 1), min_size=1, max_size=3
    )
    F = []
    for _ in range(draw(st.integers(1, 3))):
        f = Polynomial(field, s, draw(terms))
        if draw(st.booleans()):  # a member of I(X)
            f = f * draw(st.sampled_from(gb.generators))
        F.append(f)
    return pts, gb, F


@settings(
    derandomize=True,
    database=None,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ideals_with_F())
def test_degree_with_F_matches_point_count_and_buchberger(case):
    pts, gb, F = case
    exact, bound = degree_with_F(gb, F)
    assert exact == brute_variety_count(pts.points, F)
    assert exact == degree_zero_dim(buchberger(gb.generators + F, gb.order))
    assert exact <= bound <= len(pts)


class TestInt64Limit:
    def test_exact_just_below_the_limit(self):
        # (q - 1)^2 < 2^63 for the largest such prime: the ideal of six
        # random points has six standard monomials and vanishes on them.
        field = PrimeField(3037000493)
        rng = random.Random(SEED)
        pts = PointSet(
            field, [(rng.randrange(field.q), rng.randrange(field.q)) for _ in range(6)]
        )
        gb = vanishing_ideal(pts)
        assert len(footprint(gb)) == 6
        for g in gb.generators:
            assert all(int(g.evaluate(p)) == 0 for p in pts)

    def test_degree_with_F_just_below_the_limit(self):
        # The rank route adds no limit of its own: a line through two of six
        # random points meets them in exactly those two.
        field = PrimeField(3037000493)
        rng = random.Random(SEED)
        pts = PointSet(
            field, [(rng.randrange(field.q), rng.randrange(field.q)) for _ in range(6)]
        )
        (x0, y0), (x1, y1) = pts.points[:2]
        line = parse(
            field, 2, {(1, 0): y1 - y0, (0, 1): x0 - x1, (0, 0): x1 * y0 - x0 * y1}
        )
        count = brute_variety_count(pts.points, [line])
        assert count >= 2
        assert degree_with_F(vanishing_ideal(pts), [line])[0] == count

    def test_refused_above_the_limit(self):
        # 3037000507 is the next prime; over GF(4294967311) the int64
        # elimination used to wrap and return a 7-monomial footprint for
        # six points.
        for q in (3037000507, 4294967311):
            pts = PointSet(PrimeField(q), [(1, 2), (3, 4)])
            with pytest.raises(ValueError, match=r"2\^63"):
                vanishing_ideal(pts)
