import random
from itertools import product

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
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
    cartesian_points,
    degree_with_F,
    divide,
    footprint,
    format_polynomial,
    monomial_footprint,
    normal_form,
    torus_points,
    vanishing_ideal,
    variety_in_X,
)
from evalcodes import groebner
from evalcodes.groebner import (
    _buchberger_moeller,
    _multiplication_matrices,
)
from evalcodes.poly import monomial_divides

from oracles import (
    box_degree,
    brute_variety_count,
    buchberger,
    degree_zero_dim,
    division_degree_with_F,
    emptiness_criteria,
    evaluate_at,
    hilbert_affine,
    loop_buchberger_moeller,
    monomial_div,
    monomial_lcm,
)

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

    @pytest.mark.parametrize(
        "build",
        [
            lambda: PointSet(F5, [[1.7, 2], [3, 4.2]]),
            lambda: PointSet(F5, [[1, "2"]]),
            lambda: cartesian_points(F5, [[0.9, 1], [2, 3]]),
        ],
        ids=["float", "string", "cartesian-float"],
    )
    def test_rejects_non_integer_coordinates(self, build):
        with pytest.raises(ValueError, match="non-integer coordinate"):
            build()

    def test_numpy_integers_read_as_ints(self):
        pts = PointSet(F5, np.array([[1, 7], [3, 4]], dtype=np.int64))
        assert pts.points == [(1, 2), (3, 4)]
        assert all(type(x) is int for p in pts for x in p)


@st.composite
def evaluations(draw):
    """(X, polys): q in {2, 3, 5, 7, 31, 3037000493} and s <= 3.

    Exponents are small, at least q - 1 (where t^e wraps around the
    multiplicative group) or 10^12.  The polynomials draw their terms from
    one small pool of monomials, so monomials repeat across them; zero
    coefficients give zero polynomials.
    """
    q = draw(st.sampled_from((2, 3, 5, 7, 31, 3037000493)))
    s = draw(st.integers(1, 3))
    points = draw(
        st.lists(
            st.tuples(*[st.integers(0, q - 1)] * s),
            min_size=1,
            max_size=10,
            unique=True,
        )
    )
    exponents = st.integers(0, 3) | st.integers(q - 1, q + 1) | st.just(10**12)
    monos = draw(st.lists(st.tuples(*[exponents] * s), min_size=1, max_size=5))
    terms = st.dictionaries(
        st.sampled_from(monos), st.integers(0, q - 1), min_size=1, max_size=4
    )
    field = PrimeField(q)
    polys = [
        Polynomial(field, s, t) for t in draw(st.lists(terms, min_size=1, max_size=4))
    ]
    return PointSet(field, points), polys


@settings(
    derandomize=True,
    database=None,
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@example((PointSet(F3, [(0, 1), (2, 2)]), []))
@given(evaluations())
def test_evaluate_matches_pointwise_oracle(case):
    pts, polys = case
    values = pts.evaluate(polys)
    assert values.dtype == np.int64
    assert values.shape == (len(polys), len(pts))
    for row, f in zip(values.tolist(), polys):
        assert row == [evaluate_at(f, p) for p in pts]


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
                            assert evaluate_at(g, p) == 0
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
    assert_reduced_basis(vanishing_ideal(pts, order), pts, order)


def assert_reduced_basis(gb, pts, order):
    # Monic generators of I(X), a Groebner basis, no tail term in in(I):
    # together the unique reduced basis, whose footprint has |X| elements.
    leads = gb.leads()
    for g in gb.generators:
        assert g.lead_coeff(order) == 1
        assert all(evaluate_at(g, p) == 0 for p in pts)
        lead = g.lead_monomial(order)
        for mono in g.terms:
            if mono != lead:
                assert not any(monomial_divides(m, mono) for m in leads)
    assert is_groebner(gb.generators, order)
    fp = monomial_footprint(leads, pts.nvars, order)
    assert len(fp) == len(pts)
    assert gb.standard_monomials == fp


@st.composite
def product_sets(draw):
    """A_1 x ... x A_s in shuffled order: q in {2, 3, 5, 7, 11, 31}, s <= 4
    and |X| <= 36, each A_i a random subset of GF(q)."""
    q = draw(st.sampled_from((2, 3, 5, 7, 11, 31)))
    s = draw(st.integers(1, 4))
    rng = draw(st.randoms(use_true_random=False))
    axes = []
    room = 36
    for _ in range(s):
        k = draw(st.integers(1, min(q, room)))
        room //= k
        axes.append(rng.sample(range(q), k))
    pts = list(product(*axes))
    rng.shuffle(pts)
    return PointSet(PrimeField(q), pts)


@pytest.mark.parametrize("order", [LEX, GRLEX, GREVLEX], ids=lambda o: o.name)
@settings(
    derandomize=True,
    database=None,
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(pts=product_sets())
def test_product_closed_form_is_the_eliminated_basis(order, pts):
    assert pts.product_factors is not None
    assert_eliminated_basis(pts, order)


def assert_eliminated_basis(pts, order):
    gb = vanishing_ideal(pts, order)
    reference = loop_buchberger_moeller(pts, order)
    assert gb.generators == reference.generators
    assert gb.leads() == reference.leads()  # passed in, against recomputed
    assert gb.standard_monomials == reference.standard_monomials
    assert_reduced_basis(gb, pts, order)


@st.composite
def general_sets(draw):
    """X with q in {2, 3, 5, 7, 31}, s <= 3 and 2 <= |X| <= 60, not the
    product of its coordinate projections when s > 1."""
    q = draw(st.sampled_from((2, 3, 5, 7, 31)))
    s = draw(st.integers(1, 3))
    m = draw(st.integers(2, min(60, q**s)))
    ranks = draw(st.randoms(use_true_random=False)).sample(range(q**s), m)
    pts = PointSet(PrimeField(q), [[r // q**i % q for i in range(s)] for r in ranks])
    assume(s == 1 or pts.product_factors is None)
    return pts


@pytest.mark.parametrize("order", [LEX, GRLEX, GREVLEX], ids=lambda o: o.name)
@settings(
    derandomize=True,
    database=None,
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(pts=general_sets())
def test_elimination_matches_the_loop(order, pts):
    # The elimination itself, so that s = 1 sets, which vanishing_ideal
    # answers in closed form, exercise it too.
    gb = _buchberger_moeller(pts, order)
    reference = loop_buchberger_moeller(pts, order)
    assert gb.generators == reference.generators
    assert gb.leads() == reference.leads()  # passed in, against recomputed
    assert gb.standard_monomials == reference.standard_monomials


@pytest.mark.parametrize("order", [LEX, GRLEX, GREVLEX], ids=lambda o: o.name)
@pytest.mark.parametrize("q", [2, 2147483647, 3037000493])
def test_elimination_at_extreme_fields(order, q):
    # q = 2 takes a single product everywhere; the two large primes sum two
    # and one product between reductions in `matmul_mod`.
    rng = random.Random(SEED + q)
    if q == 2:
        ranks = rng.sample(range(16), 11)
        pts = [[r >> i & 1 for i in range(4)] for r in ranks]
    else:
        pts = {(rng.randrange(q), rng.randrange(q)) for _ in range(14)}
        pts = sorted(pts) + [(q - 1, q - 1), (0, q - 1), (q - 1, 0)]
    pts = PointSet(PrimeField(q), pts)
    assert pts.product_factors is None
    assert_eliminated_basis(pts, order)


@pytest.mark.parametrize("order", [LEX, GRLEX, GREVLEX], ids=lambda o: o.name)
@pytest.mark.parametrize("q, s, m", [(31, 2, 120), (7, 3, 100)])
def test_elimination_matches_the_loop_on_larger_sets(order, q, s, m):
    # Enough stored rows that every einsum product is a real block, and a
    # staircase whose corners the footprint lookup must find in each order.
    ranks = random.Random(SEED + q * m).sample(range(q**s), m)
    pts = PointSet(PrimeField(q), [[r // q**i % q for i in range(s)] for r in ranks])
    assert pts.product_factors is None
    gb = _buchberger_moeller(pts, order)
    reference = loop_buchberger_moeller(pts, order)
    assert gb.generators == reference.generators
    assert gb.leads() == reference.leads()
    assert gb.standard_monomials == reference.standard_monomials


@pytest.mark.parametrize("order", [LEX, GRLEX, GREVLEX], ids=lambda o: o.name)
@pytest.mark.parametrize("q, dtype", [(7321, np.int32), (7331, np.int64)])
def test_elimination_on_each_side_of_the_int32_bound(monkeypatch, order, q, dtype):
    # At m = 40, 7321 is the last prime with m (q - 1)^2 + q < 2^31, where
    # the residues are int32, and 7331 the next one, where they are int64.
    # (q - 1, q - 1) and its neighbours give the largest products.
    m = 40
    rng = random.Random(SEED + q)
    pts = {(q - 1, q - 1), (0, q - 1), (q - 1, 0), (q - 2, q - 1)}
    while len(pts) < m:
        pts.add((rng.randrange(q), rng.randrange(q)))
    pts = PointSet(PrimeField(q), sorted(pts))
    assert pts.product_factors is None
    dtypes = set()
    real = groebner.matmul_mod
    monkeypatch.setattr(
        groebner,
        "matmul_mod",
        lambda a, b, q: dtypes.update((a.dtype, b.dtype)) or real(a, b, q),
    )
    gb = _buchberger_moeller(pts, order)
    assert dtypes == {np.dtype(dtype)}
    reference = loop_buchberger_moeller(pts, order)
    assert gb.generators == reference.generators
    assert gb.leads() == reference.leads()
    assert gb.standard_monomials == reference.standard_monomials


GRID = [(a, b) for a in (0, 2, 3) for b in (1, 4)]


@pytest.mark.parametrize("order", [LEX, GRLEX, GREVLEX], ids=lambda o: o.name)
@pytest.mark.parametrize(
    "pts, is_product",
    [
        (PointSet(F5, [(3, 1, 4)]), True),
        (PointSet(PrimeField(7), [(6,), (0,), (3,), (4,)]), True),
        (torus_points(PrimeField(2), 3), True),
        (PointSet(F5, GRID[:2] + GRID[3:]), False),
        (PointSet(F5, GRID + [(1, 1)]), False),
    ],
    ids=["single-point", "s1", "q2-torus", "grid-less-one", "grid-plus-one"],
)
def test_vanishing_ideal_edge_sets(order, pts, is_product):
    # A point off the grid or missing from it sends the set to the
    # elimination; either route must give the reduced basis.
    assert (pts.product_factors is not None) == is_product
    assert_eliminated_basis(pts, order)


def test_closed_form_generators_verbatim():
    # One point of GF(2)^3 is the q = 2 torus: its ideal is (t_i - 1).
    gb = vanishing_ideal(torus_points(PrimeField(2), 3), LEX)
    assert [format_polynomial(g) for g in gb.generators] == [
        "t3 + 1",
        "t2 + 1",
        "t1 + 1",
    ]
    assert gb.standard_monomials == ((0, 0, 0),)
    gb = vanishing_ideal(PointSet(F5, GRID), GREVLEX)
    assert [format_polynomial(g) for g in gb.generators] == [
        "t2^2 - 1",  # (t2 - 1)(t2 - 4)
        "t1^3 + t1",  # t1 (t1 - 2)(t1 - 3)
    ]


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
                assert evaluate_at(f, p) == evaluate_at(nf, p)

    @pytest.mark.parametrize("order", [LEX, GRLEX, GREVLEX], ids=lambda o: o.name)
    def test_footprint_lookup_matches_the_full_division(self, order):
        # The same generators without a footprint take every term through
        # the heads; with one, standard terms skip them.  Both remainders
        # are the unique normal form.
        rng = random.Random(SEED + 3)
        F7 = PrimeField(7)
        sets = [
            PointSet(F7, product(range(3), range(1, 6))),  # closed form
            PointSet(F7, rng.sample(list(product(range(7), repeat=2)), 23)),
            PointSet(F5, rng.sample(list(product(range(5), repeat=3)), 30)),
        ]
        for pts in sets:
            gb = vanishing_ideal(pts, order)
            plain = GroebnerBasis(pts.field, pts.nvars, order, gb.generators)
            assert gb.standard_monomials and plain.standard_monomials is None
            field, s, delta = pts.field, pts.nvars, gb.standard_monomials
            polys = [g.term_mul(u) for g in gb.generators for u in delta[:3]]
            polys += [random_polynomial(rng, field, s, 6, 8) for _ in range(20)]
            polys.append(Polynomial.monomial(field, delta[-1]))
            for f in polys:
                nf = normal_form(f, gb)
                assert nf == normal_form(f, plain) == divide(f, gb.generators, order)[1]
                assert set(nf.terms) <= set(delta)


class TestFootprint:
    def test_five_point_initial_ideal_and_footprint(self):
        gb = vanishing_ideal(PointSet(F3, FIVE_POINTS), GREVLEX)
        assert gb.leads() == [(2, 0), (0, 3), (1, 2)]
        assert footprint(gb) == ((0, 0), (0, 1), (1, 0), (0, 2), (1, 1))

    def test_torus_initial_ideal(self):
        gb = vanishing_ideal(torus_points(F3, 2), GREVLEX)
        assert set(gb.leads()) == {(2, 0), (0, 2)}

    def test_linear_lead(self):
        gb = buchberger([parse(F3, 1, {(1,): 1, (0,): -1})], LEX)
        assert gb.leads() == [(1,)]

    def test_monomial_footprint_box(self):
        monos = monomial_footprint([(2, 0), (0, 3), (1, 2)], 2, GREVLEX)
        assert monos == ((0, 0), (0, 1), (1, 0), (0, 2), (1, 1))
        assert monomial_footprint([(2, 0), (0, 3), (1, 2)], 2, LEX) == (
            (0, 0), (0, 1), (0, 2), (1, 0), (1, 1)
        )
        assert monomial_footprint([(1, 0), (0, 1)], 2, GREVLEX) == ((0, 0),)
        full = monomial_footprint([(2, 0), (0, 2)], 2, GREVLEX)
        assert len(full) == 4

    def test_monomial_footprint_requires_zero_dimension(self):
        with pytest.raises(NotZeroDimensionalError):
            monomial_footprint([(2, 0)], 2, GREVLEX)

    def test_unit_ideal_footprint_empty(self):
        assert monomial_footprint([(0, 0)], 2, GREVLEX) == ()

    def test_monomial_footprint_refuses_leads_of_another_length(self):
        # (1, 1, 1) used to be read as (1, 1), and (2,) to raise IndexError.
        for lead in ((1, 1, 1), (2,)):
            with pytest.raises(DimensionMismatchError):
                monomial_footprint([(2, 0), (0, 2), lead], 2, GREVLEX)


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

    def test_variety_refuses_mismatched_F(self):
        # Read mod 3, t1 + t2 + 2 over GF(5) would be t1 + t2 - 1, with zeros in X.
        pts = torus_points(F3, 2)
        with pytest.raises(FieldMismatchError):
            variety_in_X([parse(F5, 2, {(1, 0): 1, (0, 1): 1, (0, 0): 2})], pts)
        with pytest.raises(DimensionMismatchError):
            variety_in_X([Polynomial.monomial(F3, (1, 0, 0))], pts)

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
    in_F = [f.lead_monomial(gb.order) for f in F if not f.is_zero()]
    assert bound == len(monomial_footprint(gb.leads() + in_F, gb.nvars, gb.order))


@st.composite
def bases_with_F(draw):
    """(X or None, basis, F) over q in {2, 3, 5, 7} with s <= 3, in one of
    the three orders: the closed-form basis of a product set (|X| <= 36), a
    Buchberger-Moeller basis of a set that is not one, or the unit ideal
    (X None, empty footprint).  F holds 1 to 3 polynomials, some of them
    members of the ideal."""
    field = PrimeField(draw(st.sampled_from((2, 3, 5, 7))))
    order = draw(st.sampled_from((LEX, GRLEX, GREVLEX)))
    kind = draw(st.sampled_from(("product", "general", "general", "unit")))
    s = draw(st.integers(2 if kind == "general" else 1, 3))
    rng = draw(st.randoms(use_true_random=False))
    pts = None
    if kind == "unit":
        gb = GroebnerBasis(field, s, order, [Polynomial.constant(field, s, 1)])
    else:
        if kind == "product":
            axes, room = [], 36
            for _ in range(s):
                k = rng.randint(1, min(field.q, room))
                room //= k
                axes.append(rng.sample(range(field.q), k))
            points = list(product(*axes))
        else:
            grid = list(product(range(field.q), repeat=s))
            points = rng.sample(grid, rng.randint(3, min(len(grid), 14)))
        pts = PointSet(field, points)
        gb = vanishing_ideal(pts, order)
        assume(kind == "product" or pts.product_factors is None)
    monos = list(product(range(3), repeat=s))
    terms = st.dictionaries(
        st.sampled_from(monos), st.integers(1, field.q - 1), min_size=1, max_size=3
    )
    F = []
    for _ in range(draw(st.integers(1, 3))):
        f = Polynomial(field, s, draw(terms))
        if draw(st.booleans()):  # a member of the ideal
            f = f * draw(st.sampled_from(gb.generators))
        F.append(f)
    return pts, gb, F


@settings(
    derandomize=True,
    database=None,
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(bases_with_F())
def test_multiplication_walk_matches_the_division_walk(case):
    pts, gb, F = case
    exact, bound = degree_with_F(gb, F)
    assert (exact, bound) == division_degree_with_F(gb, F)
    assert exact == (0 if pts is None else brute_variety_count(pts.points, F))


@pytest.mark.parametrize("order", [LEX, GRLEX, GREVLEX], ids=lambda o: o.name)
@pytest.mark.parametrize("q", [2147483647, 3037000493])
@pytest.mark.parametrize("is_product", [True, False])
def test_multiplication_walk_at_large_fields(order, q, is_product):
    # Products of two residues are summed two at a time, then one at a
    # time, in `matmul_mod`.
    field = PrimeField(q)
    rng = random.Random(SEED + q)
    if is_product:
        axes = [rng.sample(range(q), 3), rng.sample(range(q), 4)]
        pts = PointSet(field, list(product(*axes)))
    else:
        pts = PointSet(field, [(rng.randrange(q), rng.randrange(q)) for _ in range(12)])
    gb = vanishing_ideal(pts, order)
    assert (pts.product_factors is not None) == is_product
    (x0, y0), (x1, y1) = pts.points[:2]
    line = parse(
        field, 2, {(1, 0): y1 - y0, (0, 1): x0 - x1, (0, 0): x1 * y0 - x0 * y1}
    )
    member = line * gb.generators[-1]
    square = parse(field, 2, {(2, 0): rng.randrange(q), (0, 1): 1, (0, 0): -x0})
    for F in ([line], [line, member], [square, line]):
        got = degree_with_F(gb, F)
        assert got == division_degree_with_F(gb, F)
        assert got[0] == brute_variety_count(pts.points, F)


def structural_sets(rng):
    """A torus, a product grid, five points and a general set in GF(7)^3."""
    return [
        torus_points(F5, 2),
        PointSet(F5, GRID),
        PointSet(F3, FIVE_POINTS),
        PointSet(PrimeField(7), rng.sample(list(product(range(7), repeat=3)), 30)),
    ]


@pytest.mark.parametrize("order", [LEX, GRLEX, GREVLEX], ids=lambda o: o.name)
def test_multiplication_matrices_commute_and_multiply_values(order):
    # M_i M_j = M_j M_i, as multiplications on S/I; and for I(X), whose
    # standard monomials evaluate to a basis of functions on X, the
    # coordinates of NF(t_j u) evaluate to x_j times the values of u.
    for pts in structural_sets(random.Random(SEED + 5)):
        q = pts.field.q
        gb = vanishing_ideal(pts, order)
        mults = _multiplication_matrices(gb)
        delta = footprint(gb)
        assert mults.shape == (pts.nvars, len(delta), len(delta))
        for i in range(pts.nvars):
            for j in range(i):
                assert np.array_equal(
                    mults[i] @ mults[j] % q, mults[j] @ mults[i] % q
                )
        values = pts.evaluate([Polynomial.monomial(pts.field, u) for u in delta])
        coords = np.array(pts.points, dtype=np.int64).T
        for j in range(pts.nvars):
            assert np.array_equal(mults[j].T @ values % q, values * coords[j] % q)


@pytest.mark.parametrize("order", [LEX, GRLEX, GREVLEX], ids=lambda o: o.name)
def test_multiplication_matrices_of_a_basis_that_is_not_reduced(order):
    # Adding the smallest generator to the largest keeps the ideal and every
    # lead, but puts a lead into a tail: that tail term takes a division.
    grid = list(product(range(7), repeat=2))
    pts = PointSet(PrimeField(7), random.Random(SEED + 6).sample(grid, 17))
    gb = vanishing_ideal(pts, order)
    gens = gb.generators
    loose = GroebnerBasis(pts.field, 2, order, gens[:-1] + [gens[-1] + gens[0]])
    assert loose.leads() == gb.leads() and loose.generators != gb.generators
    assert np.array_equal(_multiplication_matrices(loose), _multiplication_matrices(gb))
    f = parse(pts.field, 2, {(1, 1): 1, (0, 1): 3, (0, 0): 2})
    assert degree_with_F(loose, [f]) == degree_with_F(gb, [f])
    assert degree_with_F(loose, [f]) == division_degree_with_F(loose, [f])


def test_multiplication_matrices_built_once_per_basis(monkeypatch):
    # On the 3 x 2 grid, three of the five border monomials are not leads
    # and take a product each; a second degree_with_F on the same basis only
    # walks the footprint, one product per standard monomial but 1.
    gb = vanishing_ideal(PointSet(F5, GRID))
    f = parse(F5, 2, {(1, 0): 1, (0, 1): 1})
    calls = []
    real = groebner.matmul_mod
    monkeypatch.setattr(
        groebner, "matmul_mod", lambda a, b, q: calls.append(1) or real(a, b, q)
    )
    first = degree_with_F(gb, [f])
    mults = gb._multiplication
    assert len(calls) == len(GRID) - 1 + 3
    calls.clear()
    assert degree_with_F(gb, [f, f * f]) == division_degree_with_F(gb, [f, f * f])
    assert degree_with_F(gb, [f]) == first
    assert gb._multiplication is mults
    assert len(calls) == 2 * (len(GRID) - 1)


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
            assert all(evaluate_at(g, p) == 0 for p in pts)

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
            with pytest.raises(ValueError, match=r"2\^63"):
                pts.evaluate([])
            line = Polynomial(pts.field, 2, {(1, 0): 1, (0, 1): 1})
            with pytest.raises(ValueError, match=r"2\^63"):
                variety_in_X([line], pts)
