"""Code families with closed weight formulas.

Three families are covered: affine Cartesian codes (evaluation of bounded
degree polynomials at a product of coordinate subsets), squarefree
evaluation codes on the affine torus (spanned by squarefree monomials of
degree up to d), and toric codes over hypersimplices (spanned by
squarefree monomials of degree exactly d).  Closed formulas give the
relative weight hierarchy of Cartesian codes, the minimum distance of the
hypersimplex codes, zero count bounds for squarefree forms on the torus,
and the full weight hierarchy of the degree one hypersimplex code.
"""

from itertools import combinations, product

from .codes import evaluate_space
from .groebner import PointSet
from .poly import GREVLEX, Polynomial, PolySpace
from .weights import RghwProblem


class ExponentProfile:
    """Exponent vectors of the box prod [0, d_i), ranked by descending lex.

    Supplies the ranking data behind the Cartesian weight formula: vectors
    are compared left to right, larger first.
    """

    def __init__(self, sizes):
        sizes = tuple(int(d) for d in sizes)
        if not sizes or any(d < 1 for d in sizes):
            raise ValueError("sizes must be positive")
        self.sizes = sizes

    @property
    def box_size(self):
        out = 1
        for d in self.sizes:
            out *= d
        return out

    @property
    def max_degree(self):
        return sum(d - 1 for d in self.sizes)

    def window(self, lo, hi):
        """Vectors with lo < total degree <= hi, in descending lex order."""
        vecs = [
            a
            for a in product(*(range(d) for d in self.sizes))
            if lo < sum(a) <= hi
        ]
        vecs.sort(reverse=True)
        return vecs

    def upto(self, d):
        return self.window(-1, d)


def cartesian_rghw_formula(sizes, d1, d2, r):
    """Relative weight M_r of nested Cartesian codes from the closed formula.

    sizes are the subset cardinalities d_1 <= ... <= d_s; the codes evaluate
    polynomials of per-variable degree < d_i and total degree at most d1
    (respectively d2; d2 = -1 means the zero subcode).  With a the r-th
    vector of the window d2 < deg <= d1 in descending lex order and t its
    1-based rank among all vectors of degree <= d1,

        M_r = d_1...d_s - sum_i a_i d_{i+1}...d_s - t + r.
    """
    profile = ExponentProfile(sizes)
    sizes = profile.sizes
    if any(sizes[i] > sizes[i + 1] for i in range(len(sizes) - 1)):
        raise ValueError("sizes must be non-decreasing")
    if not -1 <= d2 < d1 or d1 > profile.max_degree:
        raise ValueError(
            f"need -1 <= d2 < d1 <= {profile.max_degree}, got d1={d1}, d2={d2}"
        )
    window = profile.window(d2, d1)
    if not 1 <= r <= len(window):
        raise ValueError(f"r must be between 1 and {len(window)}, got {r}")
    a = window[r - 1]
    t = profile.upto(d1).index(a) + 1
    tail = 1
    weighted = 0
    for i in reversed(range(len(sizes))):
        weighted += a[i] * tail
        tail *= sizes[i]
    return profile.box_size - weighted - t + r


class CartesianSpec:
    """A Cartesian evaluation problem: coordinate subsets and a degree cap."""

    def __init__(self, field, subsets, degree):
        self.field = field
        canon = []
        for sub in subsets:
            vals = [int(x) % field.q for x in sub]
            if len(set(vals)) != len(vals) or not vals:
                raise ValueError("subsets must be nonempty with distinct values")
            canon.append(tuple(vals))
        sizes = [len(c) for c in canon]
        if any(sizes[i] > sizes[i + 1] for i in range(len(sizes) - 1)):
            raise ValueError("subset sizes must be non-decreasing")
        if degree < 0:
            raise ValueError("degree must be non-negative")
        self.subsets = tuple(canon)
        self.degree = degree

    @property
    def sizes(self):
        return tuple(len(c) for c in self.subsets)

    @property
    def nvars(self):
        return len(self.subsets)


def cartesian_points(field, subsets):
    """The product of the subsets, in lexicographic order."""
    canon = [[int(x) % field.q for x in sub] for sub in subsets]
    return PointSet(field, list(product(*canon)))


def cartesian_space(field, sizes, degree, order=GREVLEX):
    """Monomials of per-variable degree < d_i and total degree <= degree.

    These are exactly the standard monomials of the Cartesian vanishing
    ideal up to the degree cap, so no standardization is needed.
    """
    monos = [
        m
        for m in product(*(range(d) for d in sizes))
        if sum(m) <= degree
    ]
    monos.sort(key=order.key, reverse=True)
    basis = [Polynomial.monomial(field, m) for m in monos]
    return PolySpace(field, len(sizes), order, basis)


def cartesian_code(spec, order=GREVLEX):
    """The evaluation code of a CartesianSpec."""
    points = cartesian_points(spec.field, spec.subsets)
    space = cartesian_space(spec.field, spec.sizes, spec.degree, order)
    return evaluate_space(space, points)


def cartesian_problem(field, subsets, d1, d2=-1, order=GREVLEX):
    """RghwProblem for nested Cartesian codes of degrees d1 > d2."""
    spec1 = CartesianSpec(field, subsets, d1)
    if not -1 <= d2 < d1:
        raise ValueError(f"need -1 <= d2 < d1, got d1={d1}, d2={d2}")
    points = cartesian_points(field, spec1.subsets)
    space1 = cartesian_space(field, spec1.sizes, d1, order)
    space2 = (
        cartesian_space(field, spec1.sizes, d2, order) if d2 >= 0 else None
    )
    return RghwProblem(points, space1, space2, order)


def torus_points(field, s):
    """The affine torus (K*)^s, in lexicographic order."""
    if s < 1:
        raise ValueError("s must be positive")
    nonzero = range(1, field.q)
    return PointSet(field, list(product(nonzero, repeat=s)))


def _squarefree_monomials(s, degrees):
    monos = []
    for d in degrees:
        for pos in combinations(range(s), d):
            monos.append(tuple(1 if i in pos else 0 for i in range(s)))
    return monos


def _torus_space(field, s, monos, order):
    """Span of squarefree monomials on the torus; collapses to <1> at q=2."""
    if field.q == 2:
        basis = [Polynomial.constant(field, s, 1)]
    else:
        monos = sorted(monos, key=order.key, reverse=True)
        basis = [Polynomial.monomial(field, m) for m in monos]
    return PolySpace(field, s, order, basis)


def squarefree_code(field, s, d, order=GREVLEX):
    """Evaluation of squarefree monomials of degree <= d on the torus.

    Squarefree monomials are standard for the torus ideal when q >= 3; for
    q = 2 the torus is a single point and the code is the trivial [1, 1]
    code spanned by the constant.
    """
    if not 0 <= d <= s:
        raise ValueError(f"need 0 <= d <= s, got d={d}, s={s}")
    space = _torus_space(
        field, s, _squarefree_monomials(s, range(d + 1)), order
    )
    return evaluate_space(space, torus_points(field, s))


class HypersimplexSpec:
    """A toric code over a hypersimplex: parameters s and homogeneous d."""

    def __init__(self, field, s, d):
        if s < 1 or not 1 <= d <= s:
            raise ValueError(f"need 1 <= d <= s, got d={d}, s={s}")
        self.field = field
        self.s = s
        self.d = d


def toric_space(spec, order=GREVLEX):
    """Span of the squarefree monomials of degree exactly d on the torus."""
    monos = _squarefree_monomials(spec.s, [spec.d])
    return _torus_space(spec.field, spec.s, monos, order)


def toric_code(spec, order=GREVLEX):
    """Evaluation of squarefree monomials of degree exactly d on the torus.

    Dimension is binom(s, d) for q >= 3; for q = 2 the code collapses to
    the [1, 1] repetition code.
    """
    return evaluate_space(toric_space(spec, order), torus_points(spec.field, spec.s))


def toric_problem(field, s, d1, degrees2=None, order=GREVLEX):
    """RghwProblem on the torus with L1 the squarefree monomials of degree
    <= d1 and L2 spanned by the squarefree monomials of the given degrees."""
    points = torus_points(field, s)
    space1 = _torus_space(field, s, _squarefree_monomials(s, range(d1 + 1)), order)
    space2 = None
    if degrees2 is not None:
        space2 = _torus_space(field, s, _squarefree_monomials(s, degrees2), order)
    return RghwProblem(points, space1, space2, order)


def toric_min_distance_formula(q, s, d):
    """Minimum distance of the degree d hypersimplex toric code."""
    if s < 1 or not 1 <= d <= s:
        raise ValueError(f"need 1 <= d <= s, got d={d}, s={s}")
    if q < 2:
        raise ValueError("q must be at least 2")
    if d == s:
        return (q - 1) ** s
    if q == 2:
        return 1
    if 2 * d <= s:
        return (q - 2) ** d * (q - 1) ** (s - d)
    return (q - 2) ** (s - d) * (q - 1) ** d


def squarefree_zero_bound(q, s, d):
    """Largest possible torus zero count of a nonzero squarefree
    homogeneous polynomial of degree d, for q >= 3 and 1 <= d < s."""
    if q < 3:
        raise ValueError("the bound requires q >= 3")
    if not 1 <= d < s:
        raise ValueError(f"need 1 <= d < s, got d={d}, s={s}")
    return (q - 1) ** s - (q - 2) ** d * (q - 1) ** (s - d)


def reducible_zero_bound(q, s, d, r):
    """Torus zero count bound for a squarefree form of degree d that splits
    as a degree r squarefree form times a squarefree monomial in the
    remaining variables; requires q >= 3, 1 < d < s and 1 <= r < d."""
    if q < 3:
        raise ValueError("the bound requires q >= 3")
    if not 1 < d < s:
        raise ValueError(f"need 1 < d < s, got d={d}, s={s}")
    if not 1 <= r < d:
        raise ValueError(f"need 1 <= r < d, got r={r}")
    return (q - 1) ** s - (q - 2) ** r * (q - 1) ** (s - r)


def linear_form_zero_count(q, s, r):
    """Exact torus zero count of a linear form with exactly r nonzero
    coefficients, for q >= 3 and 2 <= r <= s:
    sum_{k=1}^{r-1} (-1)^(k+1) (q-1)^(s-k)."""
    if q < 3:
        raise ValueError("the count requires q >= 3")
    if not 2 <= r <= s:
        raise ValueError(f"need 2 <= r <= s, got r={r}, s={s}")
    return sum((-1) ** (k + 1) * (q - 1) ** (s - k) for k in range(1, r))


def toric_deg1_weight(q, s, t):
    """The t-th smallest distinct codeword weight of the degree one
    hypersimplex code, for q >= 3 and 1 <= t <= s/2:
    sum_{k=0}^{2t-1} (-1)^k (q-1)^(s-k).

    This is the next-to-minimal weight hierarchy (t = 1 is the minimum
    distance, t = 2 the second occurring weight value), not the t-th
    generalized Hamming weight."""
    if q < 3:
        raise ValueError("the closed form requires q >= 3")
    if not 1 <= t <= s / 2:
        raise ValueError(f"need 1 <= t <= s/2, got t={t}, s={s}")
    return sum((-1) ** k * (q - 1) ** (s - k) for k in range(2 * t))
