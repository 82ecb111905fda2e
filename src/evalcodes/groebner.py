"""Groebner bases, vanishing ideals and footprint degree computations.

The central objects are reduced Groebner bases of zero dimensional ideals.
Vanishing ideals of finite point sets are built directly.  A product set
A_1 x ... x A_s (the tori and Cartesian grids) has the closed form
prod_{a in A_i} (t_i - a), a universal Groebner basis whose footprint is
the box prod [0, |A_i|) (Lopez, Renteria-Marquez and Villarreal, "Affine
Cartesian codes", Des. Codes Cryptogr. 71, 2014).  Any other set goes
through the Buchberger-Moeller linear algebra method: standard monomials
are collected in increasing order while candidate monomials whose
evaluation vectors become dependent turn into generators, read off the
coefficient tag that each evaluation row carries through the elimination.
A candidate is tested only when each of its quotients by one variable is
standard, s lookups in the set of standard monomials found so far.  The
inverse of the stored rows' unit triangular pivot block is kept, so a
candidate is reduced by two matrix-vector products through
`field.matmul_mod`, which sums them by einsum.  The residues are int32
when every sum of m products fits, m (q - 1)^2 + q < 2^31, which halves
the memory the products read; otherwise they are int64, and `matmul_mod`
reduces between chunks of products, admitting every q with
(q - 1)^2 < 2^63.
Normal forms divide by heads (lead, inverse lead coefficient) built once
per basis, and pass a term on a standard monomial straight to the
remainder when the basis knows its footprint.  The footprint Delta (set
of standard monomials) then carries all degree information: deg(S/I)
equals its cardinality, and, being a basis of S/I, it gives the
multiplication matrices M_1..M_s of S/I, built from the basis alone (each
basis lead on the border of Delta read off its generator, every other
border monomial from a smaller one by one product) and kept on the basis,
as in FGLM (Faugere, Gianni, Lazard and Mora, J. Symbolic Comput. 16,
1993).  deg S/(I + (F)) is then |Delta| minus one rank over
GF(q) of the coordinates of NF(u f), each M_i times its parent's
(`degree_with_F`).  No general Groebner basis algorithm is needed.
`PointSet.evaluate` is the one evaluation of given polynomials at points;
evaluation codes and `variety_in_X` both go through it.
"""

import heapq
import math
import operator
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatchError,
    FieldMismatchError,
    NotZeroDimensionalError,
    ZeroPolynomialError,
)
from .field import check_int64_products, matmul_mod, rank_mod
from .poly import (
    GREVLEX,
    Polynomial,
    _divide,
    _exponent_array,
    _heads,
    divisibility_table,
    monomials,
)


class PointSet:
    """A finite set of distinct points with coordinates in GF(q), read
    through `operator.index`: a float or a string raises ValueError."""

    def __init__(self, field, points):
        self.field = field
        index, q = operator.index, field.q
        pts = []
        for p in points:
            try:
                pts.append(tuple(index(x) % q for x in p))
            except TypeError:
                raise ValueError(f"non-integer coordinate in {p!r}") from None
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
        # The int64 coordinate columns, s x |X|, shared by every evaluation.
        self._columns = np.array(pts, dtype=np.int64).T.copy()
        self._columns.flags.writeable = False

    @cached_property
    def product_factors(self):
        """The sorted coordinate projections A_i when X is their product,
        which it is exactly when |X| = |A_1| * ... * |A_s|; else None."""
        factors = [sorted(set(column)) for column in zip(*self.points)]
        return factors if math.prod(map(len, factors)) == len(self) else None

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def evaluate(self, polys):
        """Values of the polynomials at the points: a len(polys) x |X| array.

        Entries are int64 residues in [0, q), row i holding polys[i] at the
        points in order.  Each monomial's value vector is built once, by
        square-and-multiply on the coordinate columns, so every product is
        of two residues: fields with (q - 1)^2 >= 2^63 are refused with
        ValueError.  A polynomial over another field raises
        FieldMismatchError, one in another number of variables
        DimensionMismatchError.
        """
        q = self.field.q
        check_int64_products(q, what="polynomial evaluation")
        for f in polys:
            if f.field != self.field:
                raise FieldMismatchError("polynomial and points over different fields")
            if f.nvars != self.nvars:
                raise DimensionMismatchError("polynomial and points of different arity")
        columns = self._columns
        monomials = {}
        values = np.zeros((len(polys), len(self.points)), dtype=np.int64)
        for row, f in zip(values, polys):
            for mono, c in f.terms.items():
                if mono not in monomials:
                    monomials[mono] = _monomial_values(columns, mono, q)
                row[:] = (row + c * monomials[mono] % q) % q
        return values

    def __eq__(self, other):
        return (
            isinstance(other, PointSet)
            and self.field == other.field
            and self.points == other.points
        )

    def __repr__(self):
        return f"PointSet(q={self.field.q}, m={len(self.points)}, s={self.nvars})"


def _monomial_values(columns, mono, q):
    """t^mono at every point, by square-and-multiply on each column."""
    vec = np.ones(columns.shape[1], dtype=np.int64)
    for base, e in zip(columns, mono):
        while e:
            if e & 1:
                vec = vec * base % q
            e >>= 1
            if e:
                base = base * base % q
    return vec


class GroebnerBasis:
    """A reduced Groebner basis, generators sorted by increasing lead.

    standard_monomials is the footprint, a tuple in increasing order, when
    the construction already yields it (`vanishing_ideal`), else None; so
    are `leads`, the generators' lead monomials.  The division heads of the
    generators and the footprint's set, which `normal_form` looks standard
    terms up in, are built here, once, for every `normal_form` on the basis;
    the multiplication matrices of `degree_with_F` are built on first use
    and kept.
    """

    def __init__(
        self, field, nvars, order, generators, standard_monomials=None, leads=None
    ):
        self.field = field
        self.nvars = nvars
        self.order = order
        self.generators = list(generators)
        self.standard_monomials = standard_monomials
        self._heads = _heads(self.generators, order, leads)
        self._standard = frozenset(standard_monomials or ())
        self._multiplication = None

    def leads(self):
        return [lead for lead, _, _ in self._heads]

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


def vanishing_ideal(points, order=GREVLEX):
    """Reduced Groebner basis of the ideal of all polynomials zero on X.

    When X is the product of its coordinate projections A_i
    (`PointSet.product_factors`), the answer is in closed form: the monic
    f_i = prod_{a in A_i} (t_i - a) are a universal Groebner basis of I(X),
    reduced in every order (the leads are t_i^{|A_i|} and no tail term is
    divisible by a lead), and the footprint is the box prod [0, |A_i|)
    (Lopez, Renteria-Marquez and Villarreal, "Affine Cartesian codes", Des.
    Codes Cryptogr. 71, 2014).  Tori, Cartesian grids and every set with
    s = 1 are such products.  Any other set goes through the
    Buchberger-Moeller elimination of `_buchberger_moeller`.  The reduced
    basis is unique, so both routes give the same generators and footprint.
    The footprint has exactly |X| elements and is kept on the result.
    Raises ValueError when (q - 1)^2 >= 2^63, where the int64 elimination
    would wrap.
    """
    field = points.field
    q = field.q
    check_int64_products(q, what="the vanishing ideal")
    factors = points.product_factors
    if factors is None:
        return _buchberger_moeller(points, order)
    s = points.nvars
    heads = []  # (lead t_i^{|A_i|}, f_i)
    for i, values in enumerate(factors):
        lead = tuple(len(values) if j == i else 0 for j in range(s))
        roots = [values if j == i else [] for j in range(s)]
        heads.append((lead, _root_product(field, roots)))
    heads.sort(key=lambda head: order.key(head[0]))
    bounds = [len(values) for values in factors]
    box = sorted(monomials(bounds, 0, sum(bounds) - s), key=order.key)
    leads = [lead for lead, _ in heads]
    generators = [g for _, g in heads]
    return GroebnerBasis(field, s, order, generators, tuple(box), leads)


def _root_product(field, roots):
    """prod_i prod_{a in roots[i]} (t_i - a), one list of residues per
    variable.  Every term divides prod_i t_i^len(roots[i]), so that is its
    lead, with coefficient 1, in every order."""
    q = field.q
    terms = {(): 1}
    for values in roots:
        coeffs = [1]  # of prod (t - a), lowest degree first
        for a in values:
            coeffs = [(c - a * d) % q for c, d in zip([0] + coeffs, coeffs + [0])]
        terms = {
            m + (e,): v * c % q
            for m, v in terms.items()
            for e, c in enumerate(coeffs)
            if c
        }
    return Polynomial._clean(field, len(roots), terms)


def _buchberger_moeller(points, order):
    """Reduced Groebner basis of I(X) by Buchberger-Moeller elimination.

    Monomials are scanned in increasing order; a monomial whose evaluation
    vector lies in the span of the standard vectors found so far yields a
    generator, anything else becomes standard.  A popped monomial t^a is
    tested only when every t^a / t_j (a_j > 0) is standard: all monomials
    below t^a are decided by then, so otherwise t^a is a proper multiple of
    a lead, and this takes s set lookups, not one divisibility test per
    lead found so far.  Evaluation vectors of border monomials are obtained
    from their parent by coordinatewise products.  Each vector is tagged
    with its combination of monomials (Moeller and Buchberger): the row
    holds the m evaluations, then the coefficients on the standard
    monomials, then a 1 for the monomial itself.  Eliminating the tagged row
    against the stored rows reduces both at once, so when the evaluations
    vanish the tag is the generator; generators come out in the heap's
    increasing order.  The stored rows fill an m x (2m + 1) array R, row by
    row; row i is 1 at its pivot and 0 at earlier pivots, so R[:k, piv] is
    unit upper triangular, with inverse U, kept in transpose as Ut.  A
    candidate v reduces to the unique residue zero at every pivot, the one
    row-by-row elimination gives, by c = v[piv] @ U and [v | e_k] - c @ R[:k];
    a new row with pivot p extends U to [[U, -U u], [0, 1]], u = R[:k, p],
    so Ut gains the row -u @ Ut.  R is row-major so that c @ R[:k], the
    largest product, sums contiguous rows of R, and a new stored row is one
    contiguous write, scaled in place.  The residues, of R, Ut, the
    coordinate columns and the candidates' vectors, are int32 when every
    sum a product forms fits: m (q - 1)^2 + q < 2^31, under which
    `matmul_mod` forms a sum of up to m products at once.  Otherwise they
    are int64, where `matmul_mod` reduces between chunks, so the caller's
    check (q - 1)^2 < 2^63 is the only limit.
    """
    field = points.field
    q = field.q
    s = points.nvars
    key = order.key

    m = len(points)
    dtype = np.int32 if m * (q - 1) ** 2 + q < 2**31 else np.int64
    columns = points._columns.astype(dtype)
    R = np.zeros((m, 2 * m + 1), dtype=dtype)
    Ut = np.zeros((m, m), dtype=dtype)
    piv = np.zeros(m, dtype=np.intp)
    standard = []
    is_standard = set()
    generators = []
    leads = []

    start = (0,) * s
    heap = [(key(start), start, np.ones(m, dtype=dtype))]
    seen = {start}
    while heap:
        _, mono, vec = heapq.heappop(heap)
        if any(
            mono[:j] + (e - 1,) + mono[j + 1 :] not in is_standard
            for j, e in enumerate(mono)
            if e
        ):
            continue
        k = len(standard)
        c = matmul_mod(Ut[:k, :k], vec[piv[:k]], q)
        red = matmul_mod(c, R[:k, : m + k], q)
        res = vec - red[:m]
        res %= q
        nonzero = res.nonzero()[0]
        if not nonzero.size:
            tag = -red[m:] % q
            idx = tag.nonzero()[0]
            terms = {mono: 1}
            terms.update(zip([standard[i] for i in idx.tolist()], tag[idx].tolist()))
            generators.append(Polynomial._clean(field, s, terms))
            leads.append(mono)
            continue
        p = int(nonzero[0])
        inv = field.inv(int(res[p]))
        Ut[k, :k] = -matmul_mod(R[:k, p], Ut[:k, :k], q) % q
        Ut[k, k] = 1
        row = R[k, : m + k + 1]
        row[:m] = res
        np.negative(red[m:], out=row[m:-1])
        row[-1] = 1
        row *= inv
        row %= q
        piv[k] = p
        standard.append(mono)
        is_standard.add(mono)
        for i in range(s):
            nxt = mono[:i] + (mono[i] + 1,) + mono[i + 1 :]
            if nxt not in seen:
                seen.add(nxt)
                heapq.heappush(heap, (key(nxt), nxt, vec * columns[i] % q))
    return GroebnerBasis(field, s, order, generators, tuple(standard), leads)


def normal_form(f, gb):
    """Remainder of f on division by the reduced basis; canonical in S/I.

    When the basis knows its footprint, a term on a standard monomial goes
    to the remainder with one lookup in the footprint's set, kept on the
    basis, instead of being tested against every lead."""
    if not gb.generators:
        return f
    f._check(gb.generators[0])
    _, rem = _divide(f, gb._heads, gb.order, gb._standard)
    return Polynomial._clean(f.field, f.nvars, rem)


def footprint(gb):
    """Standard monomials of a zero dimensional ideal, a tuple in increasing
    order.

    Requires a pure power of every variable among the basis leads (or a
    constant generator, making the footprint empty).
    """
    if gb.standard_monomials is not None:
        return gb.standard_monomials
    return monomial_footprint(gb.leads(), gb.nvars, gb.order)


def monomial_footprint(leads, nvars, order=GREVLEX):
    """Footprint of the monomial ideal generated by the given monomials: the
    monomials divisible by none of them, a tuple in increasing order.  A
    lead of another length than nvars raises DimensionMismatchError."""
    leads = _exponent_array(leads, nvars)
    bounds = []
    for i in range(nvars):
        # Powers of t_i alone; a constant lead gives 0 and the empty box.
        pures = leads[~np.delete(leads, i, axis=1).any(axis=1), i]
        if not pures.size:
            raise NotZeroDimensionalError(
                f"no pure power of t{i + 1} among the lead monomials"
            )
        bounds.append(int(pures.min()))
    box = monomials(bounds, 0, sum(bounds))
    divided = divisibility_table(leads, box, nvars).any(axis=0)
    monos = [mono for mono, hit in zip(box, divided) if not hit]
    return tuple(sorted(monos, key=order.key))


def _check_F(F):
    if not F:
        raise ValueError("the polynomial list F is empty")
    if all(f.is_zero() for f in F):
        raise ZeroPolynomialError("every polynomial in F is zero")


def variety_in_X(F, points):
    """Points of X where every polynomial of F vanishes, in the order of X.

    The values come from `PointSet.evaluate`, so F must share the field and
    variable count of the points (FieldMismatchError,
    DimensionMismatchError) and fields with (q - 1)^2 >= 2^63 are refused.
    An empty F imposes no condition, so the result is all of X.
    """
    vanishes = ~points.evaluate(F).any(axis=0)
    return [p for p, hit in zip(points, vanishes) if hit]


def _multiplication_matrices(gb):
    """The matrices M_1..M_s of multiplication by t_j on S/I over the
    footprint Delta, an s x |Delta| x |Delta| int64 array: column i of M_j
    holds the coordinates of NF(t_j u_i).

    Read from the basis alone, once per basis, and kept on it.  A product
    t_j u inside Delta is a unit column; the others form the border, walked
    in increasing order.  A border monomial that is a basis lead is minus
    its generator's tail over the lead coefficient, read off the basis; the
    tail terms outside Delta, which only a basis that is not reduced has,
    go through one `normal_form`.  Any other border monomial, b, lies in
    the initial ideal without being a lead, so some b / t_j is in the border
    too, and NF(b) = sum_v c_v NF(t_j v) over the support of NF(b / t_j):
    every t_j v there is smaller than b, so that is one product with the
    columns of M_j filled so far.  Raises ValueError when
    (q - 1)^2 >= 2^63.
    """
    if gb._multiplication is not None:
        return gb._multiplication
    q = gb.field.q
    check_int64_products(q, what="the multiplication matrices")
    delta = footprint(gb)
    s = gb.nvars
    index = {u: i for i, u in enumerate(delta)}
    mults = np.zeros((s, len(delta), len(delta)), dtype=np.int64)
    border = {}  # b -> the (j, i) with t_j u_i = b
    for i, u in enumerate(delta):
        for j in range(s):
            b = u[:j] + (u[j] + 1,) + u[j + 1 :]
            if b in index:
                mults[j, index[b], i] = 1
            else:
                border.setdefault(b, []).append((j, i))
    heads = {lead: (inv, terms) for lead, inv, terms in gb._heads}
    forms = {}  # coordinates of NF(b) for the border walked so far
    for b in sorted(border, key=gb.order.key):
        if b in heads:
            inv, terms = heads[b]
            col = np.zeros(len(delta), dtype=np.int64)
            rest = {}
            for mono, c in terms.items():
                if mono in index:
                    col[index[mono]] = -c * inv % q
                elif mono != b:
                    rest[mono] = -c * inv
            if rest:
                nf = normal_form(Polynomial(gb.field, s, rest), gb)
                for mono, c in nf.terms.items():
                    col[index[mono]] = (col[index[mono]] + c) % q
        else:
            for j in range(s):
                lower = b[:j] + (b[j] - 1,) + b[j + 1 :]
                if b[j] and lower in border:
                    break
            col = matmul_mod(mults[j], forms[lower], q)
        forms[b] = col
        for j, i in border[b]:
            mults[j, :, i] = col
    gb._multiplication = mults
    return mults


def degree_with_F(gb, F):
    """Degrees of S/(I + (F)) and of S modulo the initial monomials.

    Returns (deg(S/(I,F)), deg(S/(in I, in F))).  The footprint Delta of I
    is a basis of S/I, so the normal forms of u*f for u in Delta and f in F
    span the image of (F) in S/I, and the first degree is |Delta| minus the
    rank of their coordinate rows over Delta.  Those coordinates come from
    the multiplication matrices of `_multiplication_matrices`, built once
    per basis: Delta is an order ideal walked in increasing order, so u / t_i
    is done for the first t_i dividing u, and the coordinates of NF(u f),
    for all of F at once, are M_i times those of NF((u / t_i) f).  Only
    NF(f) itself takes a division.  For I = I(X) the first degree equals the
    number of common zeros of F inside X; the points are never consulted.
    The second, an upper bound for the first, counts the u in Delta that no
    lead monomial of F divides.  gb must be zero dimensional
    (NotZeroDimensionalError otherwise), F must share its field and variable
    count (FieldMismatchError, DimensionMismatchError), and fields with
    (q - 1)^2 >= 2^63 are refused with ValueError.
    """
    _check_F(F)
    nonzero = [f for f in F if not f.is_zero()]
    delta = footprint(gb)
    q = gb.field.q
    index = {u: i for i, u in enumerate(delta)}
    start = np.zeros((len(delta), len(nonzero)), dtype=np.int64)
    for col, f in enumerate(nonzero):
        for mono, c in normal_form(f, gb).terms.items():
            start[index[mono], col] = c
    mults = _multiplication_matrices(gb)
    images = {}
    for u in delta:
        if any(u):
            i = next(i for i, e in enumerate(u) if e)
            parent = u[:i] + (u[i] - 1,) + u[i + 1 :]
            images[u] = matmul_mod(mults[i], images[parent], q)
        else:
            images[u] = start
    rows = [v.T for v in images.values()]
    exact = len(delta) - (rank_mod(np.concatenate(rows), q) if rows else 0)
    in_F = [f.lead_monomial(gb.order) for f in nonzero]
    divided = divisibility_table(in_F, delta, gb.nvars).any(axis=0)
    return exact, int(np.count_nonzero(~divided))
