import random
import time
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evalcodes import (
    GREVLEX,
    GRLEX,
    LEX,
    DimensionMismatchError,
    PointSet,
    Polynomial,
    PrimeField,
    ZeroPolynomialError,
    divide,
    echelonize,
    format_polynomial,
    order_by_name,
)
from evalcodes.poly import (
    PolySpace,
    divisibility_table,
    monomial_divides,
    monomial_mul,
    monomials,
    total_degree,
)

from oracles import ORDER_KEYS, box_monomials, monomial_lcm, pp_rref

SEED = 20260823
F3 = PrimeField(3)
F5 = PrimeField(5)


def random_polynomial(rng, field, nvars, max_degree=4, max_terms=5):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = tuple(rng.randint(0, max_degree) for _ in range(nvars))
        if sum(mono) > max_degree:
            continue
        terms[mono] = rng.randrange(field.q)
    return Polynomial(field, nvars, terms)


def test_monomial_helpers():
    assert total_degree((2, 0, 1)) == 3
    assert monomial_mul((1, 2), (0, 1)) == (1, 3)
    assert monomial_divides((1, 0), (2, 1))
    assert not monomial_divides((0, 2), (1, 1))
    assert monomial_lcm((2, 1), (1, 3)) == (2, 3)


def test_monomials_examples():
    assert monomials((2, 2, 2), 2, 2) == [(0, 1, 1), (1, 0, 1), (1, 1, 0)]
    assert monomials((3, 2), 0, 1) == [(0, 0), (0, 1), (1, 0)]
    assert monomials((1, 4), 2, 9) == [(0, 2), (0, 3)]
    assert monomials((), 0, 0) == [()]
    # Empty windows: reversed, negative, above the box, or an empty box.
    for bounds, low, high in [
        ((3, 3), 3, 2),
        ((3, 3), -4, -1),
        ((3, 3), 5, 9),
        ((2, 0, 2), 0, 4),
        ((), 1, 3),
    ]:
        assert monomials(bounds, low, high) == []


def test_monomials_cost_follows_the_output():
    # Boxes of 2^60 and 3^40 vectors, which no walk over the box could finish.
    start = time.perf_counter()
    linear = monomials((2,) * 60, 0, 1)
    quadratic = monomials((3,) * 40, 2, 2)
    assert time.perf_counter() - start < 1
    assert linear == [(0,) * 60] + [
        tuple(int(j == 59 - i) for j in range(60)) for i in range(60)
    ]
    assert len(quadratic) == 40 + 40 * 39 // 2
    assert quadratic == sorted(quadratic)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@example(bounds=[3, 3], low=4, high=2)
@example(bounds=[5] * 6, low=-3, high=-1)
@example(bounds=[], low=0, high=0)
@given(
    bounds=st.lists(st.integers(0, 5), max_size=6),
    low=st.integers(-4, 28),
    high=st.integers(-4, 28),
)
def test_monomials_match_box_walk(bounds, low, high):
    assert monomials(bounds, low, high) == box_monomials(bounds, low, high)


@st.composite
def divisibility_cases(draw):
    """(nvars, leads, monomials), the monomials drawing some leads again."""
    nvars = draw(st.integers(1, 4))
    vectors = st.lists(st.tuples(*[st.integers(0, 3)] * nvars), max_size=8)
    leads = draw(vectors)
    monos = draw(vectors)
    if leads:
        monos += draw(st.lists(st.sampled_from(leads), max_size=3))
    return nvars, leads, monos


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@example(case=(2, [], [(0, 0), (1, 2)]))
@example(case=(2, [(0, 0), (1, 2)], []))
@example(case=(3, [], []))
@example(case=(3, [(0, 0, 0), (1, 0, 2)], [(0, 0, 0), (1, 0, 2), (2, 0, 1)]))
@given(case=divisibility_cases())
def test_divisibility_table_matches_monomial_divides(case):
    nvars, leads, monos = case
    table = divisibility_table(leads, monos, nvars)
    assert table.dtype == bool and table.shape == (len(leads), len(monos))
    for i, lead in enumerate(leads):
        for j, mono in enumerate(monos):
            assert table[i, j] == monomial_divides(lead, mono)


def test_divisibility_table_refuses_vectors_of_another_length():
    for leads, monos in (([(1, 1, 1)], [(1, 1)]), ([(1, 1)], [(2,)])):
        with pytest.raises(DimensionMismatchError):
            divisibility_table(leads, monos, 2)


def test_order_examples():
    assert LEX.compare((1, 0), (0, 1)) > 0
    assert GRLEX.compare((0, 2), (1, 0)) > 0
    assert LEX.compare((1, 0), (0, 2)) > 0
    for order in (LEX, GRLEX, GREVLEX):
        assert order.compare((1, 2), (1, 2)) == 0
    # A degree-4 pair on which the two graded orders disagree.
    a, b = (1, 2, 1), (2, 0, 2)
    assert GRLEX.compare(b, a) > 0
    assert GREVLEX.compare(a, b) > 0


def test_order_lookup():
    assert order_by_name("lex") is LEX
    assert order_by_name("grlex") is GRLEX
    assert order_by_name("grevlex") is GREVLEX
    with pytest.raises(ValueError):
        order_by_name("weird")


def test_order_axioms_exhaustive():
    monos = [m for m in product(range(5), repeat=2) if sum(m) <= 4]
    for order in (LEX, GRLEX, GREVLEX):
        for a in monos:
            for b in monos:
                assert order.compare(a, b) == -order.compare(b, a)
                if a != b:
                    assert order.compare(a, b) != 0
                # Multiplicativity: scaling by a monomial keeps the order.
                for c in [(0, 0), (1, 0), (2, 3)]:
                    assert order.compare(
                        monomial_mul(a, c), monomial_mul(b, c)
                    ) == order.compare(a, b)
        keys = [order.key(m) for m in monos]
        ranked = sorted(monos, key=order.key)
        for lo, hi in zip(ranked, ranked[1:]):
            assert order.compare(hi, lo) > 0
        assert len(set(keys)) == len(monos)


@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_order_keys_match_the_reference_lambdas(s):
    # Every monomial of the box [0, 4)^s: each order's key, sorted and
    # compare agree with the plain lambdas of the reference keys.
    monos = list(product(range(4), repeat=s))
    for order in (LEX, GRLEX, GREVLEX):
        ref = ORDER_KEYS[order.name]
        assert [order.key(m) for m in monos] == [ref(m) for m in monos]
        assert order.sorted(monos) == sorted(monos, key=ref)
        assert order.sorted(monos, reverse=True) == sorted(monos, key=ref, reverse=True)
        assert order.max(monos) == max(monos, key=ref)
        keys = [ref(m) for m in monos]
        for a, ka in zip(monos, keys):
            for b, kb in zip(monos, keys):
                assert order.compare(a, b) == (ka > kb) - (ka < kb)


def test_lead_term_examples():
    f = Polynomial(F3, 2, {(1, 0): 1, (0, 1): 1})
    assert f.lead_monomial(LEX) == (1, 0)
    assert int(f.lead_coeff(LEX)) == 1
    g = Polynomial(F3, 2, {(0, 3): 2, (1, 1): 1})
    assert g.lead_monomial(GREVLEX) == (0, 3)
    assert int(g.lead_coeff(GREVLEX)) == 2
    h = Polynomial(F3, 2, {(1, 2): 1, (1, 1): -1})
    assert h.lead_monomial(GREVLEX) == (1, 2)
    assert int(h.lead_coeff(GREVLEX)) == 1


def test_lead_of_zero_rejected():
    with pytest.raises(ZeroPolynomialError):
        Polynomial.zero(F3, 2).lead_monomial(GREVLEX)


@pytest.mark.parametrize(
    "terms", [{(1.0, 0): 2}, {(1, 0): 2.5}, {(1, "0"): 1}, {(1, 0): "2"}]
)
def test_non_integer_exponents_and_coefficients_refused(terms):
    with pytest.raises(ValueError, match="non-integer term"):
        Polynomial(F5, 2, terms)


@pytest.mark.parametrize(
    "call",
    [
        lambda f: f.scale(2.5),
        lambda f: f.scale("2"),
        lambda f: f.term_mul((0, 1), 3.9),
        lambda f: f.term_mul((0, 1), 0.0),
    ],
)
def test_non_integer_scalars_refused(call):
    # Read through `operator.index`, as the constructor reads coefficients:
    # truncating would give scale(2.5) == 2 * f and term_mul(., 3.9) a
    # factor of 3.
    with pytest.raises(ValueError, match="non-integer coefficient"):
        call(Polynomial(F5, 2, {(1, 0): 1}))


def test_integer_scalars_reduced_mod_q():
    f = Polynomial(F5, 2, {(1, 0): 1, (0, 0): 3})
    doubled = Polynomial(F5, 2, {(1, 0): 2, (0, 0): 1})
    assert f.scale(np.int64(7)) == f.scale(2) == doubled
    assert f.term_mul((0, 1), np.uint8(6)) == Polynomial(F5, 2, {(1, 1): 1, (0, 1): 3})
    assert f.scale(10).is_zero() and f.term_mul((1, 0), -5).is_zero()


@pytest.mark.parametrize("terms", [{(-1, 0): 1}, {(-1, 0): 0}, {(1,): 1}])
def test_negative_or_misshapen_exponents_refused(terms):
    with pytest.raises(DimensionMismatchError):
        Polynomial(F5, 2, terms)


def test_numpy_integers_accepted():
    f = Polynomial(F5, 2, {(np.int64(1), np.uint8(0)): np.int64(7)})
    assert f == Polynomial(F5, 2, {(1, 0): 2})
    assert PointSet(F5, [(2, 0)]).evaluate([f]).tolist() == [[4]]


def test_evaluate_examples():
    f = Polynomial(F3, 2, {(2, 0): 1, (1, 0): -1})
    g = Polynomial(F3, 2, {(1, 2): 1, (1, 1): -1})
    assert PointSet(F3, [(2, 0), (1, 1)]).evaluate([f, g]).tolist() == [
        [2, 0],
        [0, 0],
    ]
    one = Polynomial.constant(F5, 2, 1)
    assert PointSet(F5, [(4, 3)]).evaluate([one]).tolist() == [[1]]


def test_arithmetic_identities_random():
    rng = random.Random(SEED)
    for field in (F3, F5):
        for _ in range(60):
            f = random_polynomial(rng, field, 2)
            g = random_polynomial(rng, field, 2)
            h = random_polynomial(rng, field, 2)
            assert (f + g) * h == f * h + g * h
            assert f - f == Polynomial.zero(field, 2)
            assert f * g == g * f
            assert (f * g) * h == f * (g * h)
            point = PointSet(field, [tuple(rng.randrange(field.q) for _ in range(2))])
            fg, f_value, g_value = point.evaluate([f * g, f, g])[:, 0].tolist()
            assert fg == f_value * g_value % field.q


def test_format_and_degree():
    f = Polynomial(F3, 2, {(1, 2): 1, (1, 1): -1})
    assert format_polynomial(f) == "t1*t2^2 - t1*t2"
    assert format_polynomial(Polynomial.zero(F3, 2)) == "0"
    assert f.degree == 3
    assert Polynomial.zero(F3, 2).degree == -1
    assert Polynomial.constant(F3, 2, 2).degree == 0


def test_divide_examples():
    f = Polynomial.monomial(F5, (2,))
    g = Polynomial(F5, 1, {(2,): 1, (0,): -1})
    quots, rem = divide(f, [g], LEX)
    assert quots[0] == Polynomial.constant(F5, 1, 1)
    assert rem == Polynomial.constant(F5, 1, 1)
    # Nothing divisible: the remainder is the input itself.
    f2 = Polynomial(F3, 2, {(0, 1): 2, (0, 0): 1})
    g2 = Polynomial(F3, 2, {(2, 0): 1})
    quots2, rem2 = divide(f2, [g2], GREVLEX)
    assert rem2 == f2
    assert all(qq.is_zero() for qq in quots2)


def test_divide_reconstruction_random():
    rng = random.Random(SEED + 1)
    for field in (F3, F5):
        for nvars in (1, 2, 3):
            for _ in range(40):
                f = random_polynomial(rng, field, nvars)
                divisors = [
                    p
                    for p in (
                        random_polynomial(rng, field, nvars, max_degree=3),
                        random_polynomial(rng, field, nvars, max_degree=2),
                    )
                    if not p.is_zero()
                ]
                if not divisors:
                    continue
                order = rng.choice((LEX, GRLEX, GREVLEX))
                quots, rem = divide(f, divisors, order)
                total = rem
                for quot, g in zip(quots, divisors):
                    total = total + quot * g
                assert total == f
                if not rem.is_zero():
                    for g in divisors:
                        for mono in rem.terms:
                            assert not monomial_divides(
                                g.lead_monomial(order), mono
                            )


def test_echelonize_examples():
    t1 = Polynomial.monomial(F3, (1, 0))
    t2 = Polynomial.monomial(F3, (0, 1))
    assert echelonize([t1 + t2, t1], LEX).basis == [t1, t2]
    f = Polynomial(F3, 2, {(1, 1): 1, (0, 0): 2})
    assert echelonize([f, f.scale(2)], GREVLEX).basis == [f]
    assert echelonize([], GREVLEX, field=F3, nvars=2).dim == 0


def test_echelonize_span_preserved_random():
    rng = random.Random(SEED + 2)
    for _ in range(40):
        polys = [random_polynomial(rng, F3, 2) for _ in range(4)]
        space = echelonize(polys, GREVLEX, field=F3, nvars=2)
        for f in polys:
            assert space.contains(f)
        # Each basis element is in the span of the inputs: ranks agree.
        bigger = echelonize(polys + space.basis, GREVLEX, field=F3, nvars=2)
        assert bigger.dim == space.dim
        leads = [b.lead_monomial(GREVLEX) for b in space.basis]
        assert len(set(leads)) == len(leads)


def oracle_echelon_basis(polys, order):
    """The reduced echelon basis from `oracles.pp_rref` on the coefficients."""
    field, nvars = polys[0].field, polys[0].nvars
    cols = order.sorted({m for p in polys for m in p.terms}, reverse=True)
    rows, _ = pp_rref([[p.coeff(m) for m in cols] for p in polys], field.q)
    return [Polynomial(field, nvars, dict(zip(cols, row))) for row in rows]


def test_echelonize_matches_plain_python_rref():
    rng = random.Random(SEED + 4)
    fields = (PrimeField(2), F3, F5, PrimeField(7), PrimeField(2147483647))
    for _ in range(60):
        field = rng.choice(fields)
        order = rng.choice((LEX, GRLEX, GREVLEX))
        nvars = rng.randint(1, 3)
        count = rng.randint(1, 6)
        polys = [random_polynomial(rng, field, nvars) for _ in range(count)]
        # Repeats and combinations make the inputs dependent.
        polys.append(polys[0] + polys[-1].scale(rng.randrange(field.q)))
        space = echelonize(polys, order, field=field, nvars=nvars)
        nonzero = [p for p in polys if not p.is_zero()]
        want = oracle_echelon_basis(nonzero, order) if nonzero else []
        assert space.basis == want


def test_echelonize_int64_limit():
    # Row reduction forms products of two residues in int64.
    big = PrimeField(3037000493)
    f = Polynomial(big, 2, {(1, 0): big.q - 1, (0, 1): 3, (0, 0): big.q - 2})
    g = Polynomial(big, 2, {(1, 0): 5, (0, 0): big.q - 7})
    space = echelonize([f, g, f + g], GREVLEX)
    assert space.basis == oracle_echelon_basis([f, g, f + g], GREVLEX)
    assert space.dim == 2
    too_big = PrimeField(3037000507)
    with pytest.raises(ValueError, match=r"2\^63"):
        echelonize([Polynomial.monomial(too_big, (1, 0))], GREVLEX)


def test_distinct_leads_imply_independence():
    rng = random.Random(SEED + 3)
    for _ in range(40):
        polys = [random_polynomial(rng, F5, 2) for _ in range(5)]
        polys = [p for p in polys if not p.is_zero()]
        by_lead = {}
        for p in polys:
            by_lead.setdefault(p.lead_monomial(GREVLEX), p)
        chosen = list(by_lead.values())
        assert echelonize(chosen, GREVLEX, field=F5, nvars=2).dim == len(chosen)


def test_space_membership_and_coordinates():
    t1 = Polynomial.monomial(F3, (1, 0))
    t2 = Polynomial.monomial(F3, (0, 1))
    space = echelonize([t1, t2], LEX)
    assert space.dim == 2
    assert space.contains(t1 + t2.scale(2))
    assert not space.contains(Polynomial.constant(F3, 2, 1))
    assert space.coordinates(t1.scale(2) + t2) == [2, 1]
    assert space.coordinates(Polynomial.constant(F3, 2, 1)) is None
    empty = PolySpace.empty(F3, 2, LEX)
    assert empty.dim == 0
    assert empty.contains(Polynomial.zero(F3, 2))


def test_coordinates_recover_combinations_and_refuse_the_rest():
    # Coordinates are read off the leads and checked by reducing f in
    # place; against the span: the combination rebuilds f, and None means
    # that f raises the rank.
    rng = random.Random(SEED + 5)
    for _ in range(60):
        field = rng.choice((PrimeField(2), F3, F5, PrimeField(7)))
        order = rng.choice((LEX, GRLEX, GREVLEX))
        nvars = rng.randint(1, 3)
        polys = [random_polynomial(rng, field, nvars) for _ in range(rng.randint(1, 5))]
        space = echelonize(polys, order, field=field, nvars=nvars)
        coeffs = [rng.randrange(field.q) for _ in space.basis]
        zero = Polynomial.zero(field, nvars)
        inside = sum((b.scale(c) for b, c in zip(space.basis, coeffs)), zero)
        assert space.coordinates(inside) == coeffs
        f = inside + random_polynomial(rng, field, nvars)
        coords = space.coordinates(f)
        bigger = echelonize(space.basis + [f], order, field=field, nvars=nvars)
        if coords is None:
            assert bigger.dim == space.dim + 1
        else:
            assert bigger.dim == space.dim
            rebuilt = sum((b.scale(c) for b, c in zip(space.basis, coords)), zero)
            assert rebuilt == f
