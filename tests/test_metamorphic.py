"""Metamorphic properties of the relative weights M_r.

M_r(C1, C2) depends only on the code pair, so it may not change when the
points of X are listed in another order, when another monomial order is
used for the Groebner basis and the echelon bases, or when L1 is given by
another generating set of the same space.  The last one sends arbitrary
generators through `echelonize`, whose reduced echelon basis is unique, so
the standardized basis of L1 must come out the same as well.  An affine
change of coordinates x -> a*x + b (every a_i nonzero) applied to X, with
every generator f replaced by f(a^-1 (t - b)), gives the same codes, so it
may not change M_r either.
"""

from itertools import product

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from evalcodes import (
    GREVLEX,
    GRLEX,
    LEX,
    PointSet,
    Polynomial,
    PrimeField,
    RghwProblem,
    rghw_degree,
)

SETTINGS = settings(
    derandomize=True,
    database=None,
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def combination(field, nvars, coeffs, polys):
    out = Polynomial.zero(field, nvars)
    for c, f in zip(coeffs, polys):
        out = out + f.scale(c)
    return out


@st.composite
def problems(draw):
    """(field, points, generators of L1, generators of L2 inside L1)."""
    q = draw(st.sampled_from((2, 3, 5)))
    s = draw(st.integers(1, 2))
    field = PrimeField(q)
    grid = list(product(range(q), repeat=s))
    points = draw(
        st.lists(
            st.sampled_from(grid),
            min_size=min(len(grid), 3),
            max_size=min(len(grid), 9),
            unique=True,
        )
    )
    monos = [m for m in product(range(3), repeat=s) if sum(m) <= 2]
    terms = st.dictionaries(
        st.sampled_from(monos), st.integers(1, q - 1), min_size=1, max_size=3
    )
    k = draw(st.integers(2, 5))
    gens1 = [Polynomial(field, s, draw(terms)) for _ in range(k)]
    coeffs = st.lists(st.integers(0, q - 1), min_size=k, max_size=k)
    gens2 = [
        combination(field, s, draw(coeffs), gens1)
        for _ in range(draw(st.integers(0, 2)))
    ]
    try:
        problem = RghwProblem(PointSet(field, points), gens1, gens2)
    except ValueError:
        assume(False)
    assume(problem.k1 >= 2)
    return field, points, gens1, gens2, problem


def weights_of(problem):
    """[M_1, ..., M_{k1 - k2}]."""
    return [
        rghw_degree(problem, r, threads=1)
        for r in range(1, problem.k1 - problem.k2 + 1)
    ]


@SETTINGS
@given(problems(), st.data())
def test_invariant_under_permuting_points(case, data):
    field, points, gens1, gens2, problem = case
    shuffled = data.draw(st.permutations(points))
    moved = RghwProblem(PointSet(field, shuffled), gens1, gens2)
    assert weights_of(moved) == weights_of(problem)


@SETTINGS
@given(problems())
def test_invariant_under_monomial_order(case):
    field, points, gens1, gens2, problem = case
    want = weights_of(problem)
    for order in (LEX, GRLEX, GREVLEX):
        moved = RghwProblem(PointSet(field, points), gens1, gens2, order)
        assert weights_of(moved) == want


@SETTINGS
@given(problems(), st.data())
def test_invariant_under_change_of_basis_of_l1(case, data):
    # An invertible matrix as (unit lower triangular) x (upper triangular
    # with nonzero diagonal) mixes the generators of L1.
    field, points, gens1, gens2, problem = case
    q, k = field.q, len(gens1)
    lower = [[int(i == j) for j in range(k)] for i in range(k)]
    upper = [[0] * k for _ in range(k)]
    for i in range(k):
        upper[i][i] = data.draw(st.integers(1, q - 1))
        for j in range(k):
            if j < i:
                lower[i][j] = data.draw(st.integers(0, q - 1))
            elif j > i:
                upper[i][j] = data.draw(st.integers(0, q - 1))
    matrix = [
        [sum(lower[i][t] * upper[t][j] for t in range(k)) for j in range(k)]
        for i in range(k)
    ]
    nvars = len(points[0])
    mixed = [combination(field, nvars, row, gens1) for row in matrix]
    moved = RghwProblem(PointSet(field, points), mixed, gens2)
    assert moved.space1.basis == problem.space1.basis
    assert weights_of(moved) == weights_of(problem)


def substitute(f, lines):
    """f(l_1, ..., l_s) for polynomials l_i in the same variables."""
    out = Polynomial.zero(f.field, f.nvars)
    for mono, c in f.terms.items():
        term = Polynomial.constant(f.field, f.nvars, c)
        for line, e in zip(lines, mono):
            for _ in range(e):
                term = term * line
        out = out + term
    return out


@SETTINGS
@given(problems(), st.data())
def test_invariant_under_affine_change_of_coordinates(case, data):
    field, points, gens1, gens2, problem = case
    q, s = field.q, len(points[0])
    a = [data.draw(st.integers(1, q - 1)) for _ in range(s)]
    b = [data.draw(st.integers(0, q - 1)) for _ in range(s)]
    moved_points = [
        [(ai * x + bi) % q for ai, x, bi in zip(a, p, b)] for p in points
    ]
    # t_i -> a_i^-1 (t_i - b_i), so the moved generator takes at a*x + b the
    # value the original takes at x.
    lines = []
    for i in range(s):
        inv = pow(a[i], q - 2, q)
        unit = tuple(int(j == i) for j in range(s))
        lines.append(Polynomial(field, s, {unit: inv, (0,) * s: -inv * b[i]}))
    moved = RghwProblem(
        PointSet(field, moved_points),
        [substitute(f, lines) for f in gens1],
        [substitute(f, lines) for f in gens2],
    )
    assert (moved.k1, moved.k2) == (problem.k1, problem.k2)
    for r in range(1, min(2, problem.k1 - problem.k2) + 1):
        assert rghw_degree(moved, r) == rghw_degree(problem, r)
