"""Groebner bases, vanishing ideals and footprint degree computations.

The central objects are reduced Groebner bases of zero dimensional ideals.
Vanishing ideals of finite point sets are built directly by the linear
algebra method: standard monomials are collected in increasing order while
candidate monomials whose evaluation vectors become dependent turn into
generators.  The footprint (set of standard monomials) then carries all
degree information: deg(S/I) equals its cardinality.
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
from .field import check_int64_products
from .poly import (
    GREVLEX,
    Polynomial,
    divide,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
    total_degree,
)


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
    """A reduced Groebner basis, generators sorted by increasing lead."""

    def __init__(self, field, nvars, order, generators, points=None):
        self.field = field
        self.nvars = nvars
        self.order = order
        self.generators = list(generators)
        self.points = points
        self.standard_monomials = None

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


def buchberger(gens, order):
    """Reduced Groebner basis from arbitrary generators.

    Classical pair processing in increasing lcm order, skipping pairs with
    coprime leads, followed by full inter-reduction.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ZeroPolynomialError("no nonzero generators given")
    field = gens[0].field
    nvars = gens[0].nvars
    for g in gens:
        gens[0]._check(g)
    basis = [g.monic(order) for g in gens]
    pairheap = []
    counter = 0

    def push_pairs(upto):
        nonlocal counter
        j = upto
        lm_j = basis[j].lead_monomial(order)
        for i in range(j):
            lm_i = basis[i].lead_monomial(order)
            lcm = monomial_lcm(lm_i, lm_j)
            if lcm == monomial_mul(lm_i, lm_j):
                continue
            heapq.heappush(
                pairheap, (total_degree(lcm), order.key(lcm), counter, i, j)
            )
            counter += 1

    for j in range(1, len(basis)):
        push_pairs(j)
    while pairheap:
        _, _, _, i, j = heapq.heappop(pairheap)
        fi, fj = basis[i], basis[j]
        lm_i = fi.lead_monomial(order)
        lm_j = fj.lead_monomial(order)
        lcm = monomial_lcm(lm_i, lm_j)
        s = fi.term_mul(monomial_div(lcm, lm_i)) - fj.term_mul(
            monomial_div(lcm, lm_j)
        )
        if s.is_zero():
            continue
        _, r = divide(s, basis, order)
        if not r.is_zero():
            basis.append(r.monic(order))
            push_pairs(len(basis) - 1)
    return GroebnerBasis(field, nvars, order, _interreduce(basis, order), points=None)


def _interreduce(basis, order):
    """Minimalize and tail-reduce a Groebner basis into reduced form."""
    leads = [g.lead_monomial(order) for g in basis]
    minimal = []
    for i, m in enumerate(leads):
        strictly_divided = any(
            monomial_divides(leads[j], m) and leads[j] != m
            for j in range(len(basis))
            if j != i
        )
        duplicate = any(leads[j] == m for j in range(i))
        if not strictly_divided and not duplicate:
            minimal.append(basis[i])
    changed = True
    while changed:
        changed = False
        for i in range(len(minimal)):
            others = minimal[:i] + minimal[i + 1 :]
            if not others:
                continue
            _, r = divide(minimal[i], others, order)
            if r.is_zero():
                minimal.pop(i)
                changed = True
                break
            r = r.monic(order)
            if r != minimal[i]:
                minimal[i] = r
                changed = True
    minimal.sort(key=lambda g: order.key(g.lead_monomial(order)))
    return minimal


def vanishing_ideal(points, order=GREVLEX):
    """Reduced Groebner basis of the ideal of all polynomials zero on X.

    Monomials are scanned in increasing order; a monomial whose evaluation
    vector lies in the span of the standard vectors found so far yields a
    generator, anything else becomes standard.  Evaluation vectors of border
    monomials are obtained from their parent by coordinatewise products.
    The footprint has exactly |X| elements and is cached on the result.
    Raises ValueError when (q - 1)^2 >= 2^63, where the int64 elimination
    would wrap.
    """
    field = points.field
    q = field.q
    check_int64_products(q, what="the vanishing ideal")
    s = points.nvars
    coords = np.array(points.points, dtype=np.int64)

    standard = []
    rref = []
    generators = []
    lead_set = []

    seen = set()
    start = (0,) * s
    heap = [(order.key(start), start, np.ones(len(points), dtype=np.int64))]
    seen.add(start)
    while heap:
        _, mono, vec = heapq.heappop(heap)
        if any(monomial_divides(lead, mono) for lead in lead_set):
            continue
        raw = vec
        vec = vec.copy()
        combo = {}
        for pivot, row, coeffs in rref:
            c = int(vec[pivot])
            if c:
                vec = (vec - c * row) % q
                for idx, cc in coeffs.items():
                    combo[idx] = (combo.get(idx, 0) + c * cc) % q
        nonzero = np.nonzero(vec)[0]
        if nonzero.size == 0:
            terms = {mono: 1}
            for idx, cc in combo.items():
                if cc:
                    prev = terms.get(standard[idx], 0)
                    terms[standard[idx]] = (prev - cc) % q
            generators.append(Polynomial(field, s, terms))
            lead_set.append(mono)
        else:
            pivot = int(nonzero[0])
            inv = field.inv(int(vec[pivot]))
            row = (vec * inv) % q
            coeffs = {len(standard): inv}
            for idx, cc in combo.items():
                if cc:
                    coeffs[idx] = (-inv * cc) % q
            rref.append((pivot, row, coeffs))
            standard.append(mono)
            for i in range(s):
                nxt = tuple(e + (1 if j == i else 0) for j, e in enumerate(mono))
                if nxt not in seen:
                    seen.add(nxt)
                    heapq.heappush(
                        heap, (order.key(nxt), nxt, (raw * coords[:, i]) % q)
                    )
    generators.sort(key=lambda g: order.key(g.lead_monomial(order)))
    gb = GroebnerBasis(field, s, order, generators, points=points)
    gb.standard_monomials = tuple(standard)
    return gb


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
    ideal_is_unit: the reduced basis of I(X) + (F) is {1}.
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
    joined = buchberger(gb.generators + [f for f in F if not f.is_zero()], order)
    one = Polynomial.constant(points.field, points.nvars, 1)
    ideal_is_unit = joined.generators == [one]
    return EmptinessCriteria(colon_trivial, len(hits) == 0, ideal_is_unit)


def degree_with_F(gb, F):
    """Degrees of S/(I + (F)) and of S modulo the initial monomials.

    Returns (deg(S/(I,F)), deg(S/(in I, in F))).  The first equals the
    number of common zeros inside X; when that count is zero the basis
    computation is skipped and 0 is returned directly.  The second is the
    footprint count after adjoining the lead monomials of F, an upper bound
    for the first.
    """
    _check_F(F)
    nonzero = [f for f in F if not f.is_zero()]
    in_leads = gb.leads() + [f.lead_monomial(gb.order) for f in nonzero]
    fp_bound = len(monomial_footprint(in_leads, gb.nvars, gb.order))
    if gb.points is not None and not variety_in_X(F, gb.points):
        return 0, fp_bound
    joined = buchberger(gb.generators + nonzero, gb.order)
    return degree_zero_dim(joined), fp_bound
