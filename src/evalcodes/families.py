"""Code families with closed weight formulas.

Three families are covered: affine Cartesian codes (evaluation of bounded
degree polynomials at a product of coordinate subsets), squarefree
evaluation codes on the affine torus (spanned by squarefree monomials of
degree up to d), and toric codes over hypersimplices (spanned by
squarefree monomials of degree exactly d).  Closed formulas give the
relative weight hierarchy of Cartesian codes, the minimum distance of the
hypersimplex codes and the full weight hierarchy of the degree one
hypersimplex code.
"""

from itertools import product
from math import comb

from .codes import evaluate_space
from .groebner import PointSet
from .poly import GREVLEX, Polynomial, PolySpace, monomials
from .weights import RghwProblem


def cartesian_rghw_formula(sizes, d1, d2, r):
    """Relative weight M_r of nested Cartesian codes from the closed formula.

    sizes are the subset cardinalities d_1 <= ... <= d_s; the codes evaluate
    polynomials of per-variable degree < d_i and total degree at most d1
    (respectively d2; d2 = -1 means the zero subcode).  With a the r-th
    vector of the window d2 < deg <= d1 of the box prod [0, d_i) in
    descending lex order (compared left to right, larger first) and t its
    1-based rank among all vectors of degree <= d1,

        M_r = d_1...d_s - sum_i a_i d_{i+1}...d_s - t + r.
    """
    sizes = tuple(int(d) for d in sizes)
    if not sizes or any(d < 1 for d in sizes):
        raise ValueError("sizes must be positive")
    if any(sizes[i] > sizes[i + 1] for i in range(len(sizes) - 1)):
        raise ValueError("sizes must be non-decreasing")
    max_degree = sum(d - 1 for d in sizes)
    if not -1 <= d2 < d1 or d1 > max_degree:
        raise ValueError(
            f"need -1 <= d2 < d1 <= {max_degree}, got d1={d1}, d2={d2}"
        )
    upto = monomials(sizes, 0, d1)[::-1]
    window = monomials(sizes, d2 + 1, d1)[::-1]
    if not 1 <= r <= len(window):
        raise ValueError(f"r must be between 1 and {len(window)}, got {r}")
    a = window[r - 1]
    t = upto.index(a) + 1
    tail = 1
    weighted = 0
    for i in reversed(range(len(sizes))):
        weighted += a[i] * tail
        tail *= sizes[i]
    return tail - weighted - t + r


def cartesian_points(field, subsets):
    """The product of the subsets, in lexicographic order."""
    return PointSet(field, list(product(*subsets)))


def cartesian_space(field, sizes, degree, order=GREVLEX):
    """Monomials of per-variable degree < d_i and total degree <= degree.

    These are exactly the standard monomials of the Cartesian vanishing
    ideal up to the degree cap, so no standardization is needed.
    """
    monos = order.sorted(monomials(sizes, 0, degree), reverse=True)
    basis = [Polynomial.monomial(field, m) for m in monos]
    return PolySpace(field, len(sizes), order, basis)


def cartesian_problem(field, subsets, d1, d2=-1, order=GREVLEX):
    """RghwProblem for nested Cartesian codes of degrees d1 > d2 >= -1 on the
    product of nonempty subsets of non-decreasing sizes, no value repeated mod q."""
    sizes = [len(sub) for sub in subsets]
    if not all(sizes) or sizes != sorted(sizes):
        raise ValueError(f"need non-decreasing positive subset sizes, got {sizes}")
    if not -1 <= d2 < d1:
        raise ValueError(f"need -1 <= d2 < d1, got d1={d1}, d2={d2}")
    points = cartesian_points(field, subsets)
    space1 = cartesian_space(field, sizes, d1, order)
    space2 = cartesian_space(field, sizes, d2, order) if d2 >= 0 else None
    return RghwProblem(points, space1, space2, order)


def torus_points(field, s):
    """The affine torus (K*)^s, in lexicographic order."""
    if s < 1:
        raise ValueError("s must be positive")
    nonzero = range(1, field.q)
    return PointSet(field, list(product(nonzero, repeat=s)))


def _torus_space(field, s, monos, order):
    """Span of squarefree monomials on the torus; collapses to <1> at q=2."""
    if field.q == 2:
        basis = [Polynomial.constant(field, s, 1)]
    else:
        monos = sorted(monos, key=order.key, reverse=True)
        basis = [Polynomial.monomial(field, m) for m in monos]
    return PolySpace(field, s, order, basis)


class HypersimplexSpec:
    """A toric code over a hypersimplex: parameters s and homogeneous d."""

    def __init__(self, field, s, d):
        if s < 1 or not 1 <= d <= s:
            raise ValueError(f"need 1 <= d <= s, got d={d}, s={s}")
        self.field = field
        self.s = s
        self.d = d

    @property
    def dim(self):
        """binom(s, d), the number of squarefree monomials of degree d; 1 at
        q = 2, where the torus is one point and they collapse to the constant."""
        return comb(self.s, self.d) if self.field.q > 2 else 1


def toric_space(spec):
    """Span of the squarefree monomials of degree d on the torus, in grevlex."""
    monos = monomials((2,) * spec.s, spec.d, spec.d)
    return _torus_space(spec.field, spec.s, monos, GREVLEX)


def toric_code(spec):
    """Evaluation of squarefree monomials of degree exactly d on the torus.

    Dimension is binom(s, d) for q >= 3; for q = 2 the code collapses to
    the [1, 1] repetition code.
    """
    return evaluate_space(toric_space(spec), torus_points(spec.field, spec.s))


def toric_problem(field, s, d1, degrees2=None, order=GREVLEX):
    """RghwProblem on the torus with L1 the squarefree monomials of degree
    <= d1 and L2 spanned by the squarefree monomials of the given degrees."""
    points = torus_points(field, s)
    space1 = _torus_space(field, s, monomials((2,) * s, 0, d1), order)
    space2 = None
    if degrees2 is not None:
        monos = []
        for d in degrees2:
            if d < 0:
                raise ValueError(f"degrees2 must be non-negative, got {d}")
            monos += monomials((2,) * s, d, d)
        space2 = _torus_space(field, s, monos, order)
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
