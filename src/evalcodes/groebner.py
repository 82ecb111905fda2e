"""Groebner bases, vanishing ideals and footprint degree computations.

The central objects are reduced Groebner bases of zero dimensional ideals.
Vanishing ideals of finite point sets are built directly by the
Buchberger-Moeller linear algebra method: standard monomials are collected
in increasing order while candidate monomials whose evaluation vectors
become dependent turn into generators, read off the coefficient tag that
each evaluation row carries through the elimination.  The footprint (set
of standard monomials) then carries all degree information: deg(S/I)
equals its cardinality, and, being a basis of S/I, it turns
deg S/(I + (F)) into |footprint| minus one rank over GF(q)
(`degree_with_F`).  No general Groebner basis algorithm is needed.
"""

import heapq
from collections import namedtuple
from itertools import product

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotZeroDimensionalError,
    ZeroPolynomialError,
)
from .field import check_int64_products, rank_mod
from .poly import GREVLEX, Polynomial, divide, monomial_divides, total_degree


class PointSet:
    """A finite set of distinct points with coordinates in GF(q)."""

    def __init__(self, field, points):
        self.field = field
        pts = []
        for p in points:
            pts.append(tuple(int(x) % field.q for x in p))
        if not pts:
            raise ValueError("point set is empty")
        s = len(pts[0])
        if s == 0:
            raise ValueError("points need at least one coordinate")
        for p in pts:
            if len(p) != s:
                raise DimensionMismatchError("points of unequal arity")
        if len(set(pts)) != len(pts):
            raise ValueError("duplicate points")
        self.points = pts
        self.nvars = s

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __eq__(self, other):
        return (
            isinstance(other, PointSet)
            and self.field == other.field
            and self.points == other.points
        )

    def __repr__(self):
        return f"PointSet(q={self.field.q}, m={len(self.points)}, s={self.nvars})"


class GroebnerBasis:
    """A reduced Groebner basis, generators sorted by increasing lead.

    standard_monomials is the footprint in increasing order when the
    builder already knows it, else None.
    """

    def __init__(self, field, nvars, order, generators, standard_monomials=None):
        self.field = field
        self.nvars = nvars
        self.order = order
        self.generators = list(generators)
        self.standard_monomials = standard_monomials

    def leads(self):
        return [g.lead_monomial(self.order) for g in self.generators]

    def __eq__(self, other):
        return (
            isinstance(other, GroebnerBasis)
            and self.field == other.field
            and self.nvars == other.nvars
            and self.order.name == other.order.name
            and self.generators == other.generators
        )

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.generators)
        return f"GroebnerBasis({self.order.name}, [{gens}])"


class Footprint:
    """Standard monomials of a zero dimensional ideal, in increasing order."""

    def __init__(self, order, monomials):
        self.order = order
        self.monomials = tuple(monomials)
        self._set = set(self.monomials)

    def __len__(self):
        return len(self.monomials)

    def __iter__(self):
        return iter(self.monomials)

    def __contains__(self, mono):
        return tuple(mono) in self._set

    def count_upto(self, d):
        """Number of standard monomials of total degree at most d."""
        return sum(1 for m in self.monomials if total_degree(m) <= d)


def vanishing_ideal(points, order=GREVLEX):
    """Reduced Groebner basis of the ideal of all polynomials zero on X.

    Monomials are scanned in increasing order; a monomial whose evaluation
    vector lies in the span of the standard vectors found so far yields a
    generator, anything else becomes standard.  Evaluation vectors of border
    monomials are obtained from their parent by coordinatewise products.
    Each vector is tagged with its combination of monomials (Moeller and
    Buchberger): the row holds the m evaluations, then the coefficients on
    the standard monomials, then a 1 for the monomial itself.  Eliminating
    the tagged row against the stored rows reduces both at once, so when
    the evaluations vanish the tag is the generator.  The footprint has
    exactly |X| elements and is kept on the result.  Raises ValueError when
    (q - 1)^2 >= 2^63, where the int64 elimination would wrap.
    """
    field = points.field
    q = field.q
    check_int64_products(q, what="the vanishing ideal")
    s = points.nvars
    coords = np.array(points.points, dtype=np.int64)

    m = len(points)
    standard = []
    rows = []
    generators = []
    lead_set = []

    seen = set()
    start = (0,) * s
    heap = [(order.key(start), start, np.ones(m, dtype=np.int64))]
    seen.add(start)
    while heap:
        _, mono, vec = heapq.heappop(heap)
        if any(monomial_divides(lead, mono) for lead in lead_set):
            continue
        res = np.zeros(2 * m + 1, dtype=np.int64)
        res[:m] = vec
        res[m + len(standard)] = 1
        for pivot, row in rows:
            c = int(res[pivot])
            if c:
                res = (res - c * row) % q
        nonzero = np.nonzero(res[:m])[0]
        if nonzero.size == 0:
            tag = res[m : m + len(standard)]
            terms = {mono: 1}
            for idx in np.nonzero(tag)[0]:
                terms[standard[idx]] = int(tag[idx])
            generators.append(Polynomial(field, s, terms))
            lead_set.append(mono)
        else:
            pivot = int(nonzero[0])
            rows.append((pivot, (res * field.inv(int(res[pivot]))) % q))
            standard.append(mono)
            for i in range(s):
                nxt = tuple(e + (1 if j == i else 0) for j, e in enumerate(mono))
                if nxt not in seen:
                    seen.add(nxt)
                    heapq.heappush(
                        heap, (order.key(nxt), nxt, (vec * coords[:, i]) % q)
                    )
    generators.sort(key=lambda g: order.key(g.lead_monomial(order)))
    return GroebnerBasis(field, s, order, generators, tuple(standard))


def normal_form(f, gb):
    """Remainder of f on division by the reduced basis; canonical in S/I."""
    if not gb.generators:
        return f
    _, r = divide(f, gb.generators, gb.order)
    return r


def initial_ideal(gb):
    """Minimal monomial generators of the initial ideal: the basis leads."""
    return gb.leads()


def footprint(gb):
    """Standard monomials of a zero dimensional ideal.

    Requires a pure power of every variable among the basis leads (or a
    constant generator, making the footprint empty).
    """
    if gb.standard_monomials is not None:
        return Footprint(gb.order, gb.standard_monomials)
    return monomial_footprint(gb.leads(), gb.nvars, gb.order)


def monomial_footprint(leads, nvars, order=GREVLEX):
    """Footprint of the monomial ideal generated by the given monomials."""
    leads = [tuple(m) for m in leads]
    zero = (0,) * nvars
    if zero in leads:
        return Footprint(order, [])
    bounds = []
    for i in range(nvars):
        pures = [
            m[i]
            for m in leads
            if m[i] > 0 and all(e == 0 for j, e in enumerate(m) if j != i)
        ]
        if not pures:
            raise NotZeroDimensionalError(
                f"no pure power of t{i + 1} among the lead monomials"
            )
        bounds.append(min(pures))
    monos = []
    for mono in product(*(range(b) for b in bounds)):
        if not any(monomial_divides(lead, mono) for lead in leads):
            monos.append(mono)
    monos.sort(key=order.key)
    return Footprint(order, monos)


def degree_zero_dim(gb):
    """deg(S/I) for a zero dimensional ideal: the footprint cardinality."""
    return len(footprint(gb))


def hilbert_affine(gb, d):
    """Affine Hilbert function: standard monomials of total degree <= d."""
    if d < 0:
        return 0
    return footprint(gb).count_upto(d)


def box_degree(dvec, avec):
    """deg of S modulo pure powers t_i^{d_i} plus one extra monomial t^a.

    Closed form d1*...*ds - (d1-a1)*...*(ds-as), valid for 0 <= a_i < d_i.
    """
    if len(dvec) != len(avec):
        raise DimensionMismatchError("exponent vectors of unequal length")
    box = 1
    gap = 1
    for d, a in zip(dvec, avec):
        if d < 1 or not 0 <= a < d:
            raise ValueError(f"need 0 <= a < d, got a={a}, d={d}")
        box *= d
        gap *= d - a
    return box - gap


def _check_F(F):
    if not F:
        raise ValueError("the polynomial list F is empty")
    if all(f.is_zero() for f in F):
        raise ZeroPolynomialError("every polynomial in F is zero")


def variety_in_X(F, points):
    """Points of X where every polynomial of F vanishes.

    An empty F imposes no condition, so the result is all of X.
    """
    hits = []
    for p in points:
        if all(int(f.evaluate(p)) == 0 for f in F):
            hits.append(p)
    return hits


EmptinessCriteria = namedtuple(
    "EmptinessCriteria", ["colon_trivial", "variety_empty", "ideal_is_unit"]
)


def emptiness_criteria(F, points, order=GREVLEX):
    """Three equivalent tests for V_X(F) being empty.

    colon_trivial: the colon ideal (I(X) : (F)) equals I(X), computed as the
    vanishing ideal of the points where some member of F survives.
    variety_empty: direct point count.
    ideal_is_unit: I(X) + (F) is the whole ring, that is, the degree of
    S/(I(X) + (F)) from `degree_with_F` is 0.
    """
    _check_F(F)
    hits = set(map(tuple, variety_in_X(F, points)))
    gb = vanishing_ideal(points, order)
    survivors = [p for p in points if tuple(p) not in hits]
    if survivors:
        colon = vanishing_ideal(PointSet(points.field, survivors), order)
        colon_trivial = colon.generators == gb.generators
    else:
        colon_trivial = False
    ideal_is_unit = degree_with_F(gb, F)[0] == 0
    return EmptinessCriteria(colon_trivial, len(hits) == 0, ideal_is_unit)


def degree_with_F(gb, F):
    """Degrees of S/(I + (F)) and of S modulo the initial monomials.

    Returns (deg(S/(I,F)), deg(S/(in I, in F))).  The footprint Delta of I
    is a basis of S/I, so the normal forms of u*f for u in Delta and f in F
    span the image of (F) in S/I, and the first degree is |Delta| minus the
    rank of their coordinate rows over Delta.  For I = I(X) it equals the
    number of common zeros of F inside X; the points are never consulted.
    The second is the footprint count after adjoining the lead monomials of
    F, an upper bound for the first.  gb must be zero dimensional
    (NotZeroDimensionalError otherwise), F must share its field and variable
    count (FieldMismatchError, DimensionMismatchError), and the rank is
    subject to the int64 limit of `rank_mod`.
    """
    _check_F(F)
    nonzero = [f for f in F if not f.is_zero()]
    images = {}
    for u in footprint(gb):
        if not any(u):
            images[u] = [normal_form(f, gb) for f in nonzero]
            continue
        # Delta is an order ideal walked in increasing order, so u / t_i is
        # done for the first t_i dividing u, and NF(t_i NF(f u / t_i)) = NF(f u).
        i = next(i for i, e in enumerate(u) if e)
        step = tuple(int(j == i) for j in range(gb.nvars))
        parent = tuple(e - d for e, d in zip(u, step))
        images[u] = [normal_form(g.term_mul(step), gb) for g in images[parent]]
    rows = [[g.coeff(v) for v in images] for gs in images.values() for g in gs]
    exact = len(images) - (rank_mod(rows, gb.field.q) if rows else 0)
    in_leads = gb.leads() + [f.lead_monomial(gb.order) for f in nonzero]
    fp_bound = len(monomial_footprint(in_leads, gb.nvars, gb.order))
    return exact, fp_bound
