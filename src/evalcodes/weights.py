"""Relative generalized Hamming weights of evaluation codes.

M_r(C1, C2) is the smallest support size of an r dimensional subcode of C1
meeting C2 only in zero.  For standard evaluation codes it equals
deg(S/I(X)) minus the largest number of common zeros inside X over
candidate sets F of r monic polynomials in L1 with pairwise distinct lead
monomials whose span meets L2 trivially.

The search is a branch and bound over lead tuples.  For any F, |V_X(F)| =
deg S/(I(X) + (F)) <= deg S/(in I(X) + (in F)), the number of standard
monomials divisible by no lead of F, counted on one table from the
divisibility kernel `poly.divisibility_table`.  A group of partial sets is
bounded by the best complete lead tuple through it, which gives one tree of
bounds over the leads realized by L1 outside L2, always the first
`_realized` basis leads; its root bound is the relative footprint bound
RFP_r.  The tree is built once per (problem, r), the leaves under one
parent in one numpy reduction, and shared by the search and
`relative_footprint`.  L2 is held as L1 coordinates from one `rref_mod`,
and C2 is read off L1's evaluation matrix E.  E is built on its first read,
not with the problem: the walk and the definition oracle read it, and a
problem the witness certifies never builds it.  The route is the witness or
the walk.  On a product point set the bound is sharp whenever its own
witness, products of linear factors in one variable, passes three checks
(it lies in L1, its residues modulo L2 have rank r, and its evaluated zero
count equals the root bound), and no candidate is scored.  Otherwise the
walk visits groups best bound first, skips those that cannot beat the
running maximum, and stops scoring a group once the maximum reaches its
bound.  Groups are scored prefix by prefix in coefficient space over the
echelon basis of L1, by the zero-count walk of `codes`: a candidate scores
its word's zero count on E, and one rule serves every level: the best is
taken, and only it rebuilt in full, while min(its score, the group's bound)
beats the maximum.  One test decides admissibility, in the witness and the
walk alike, and the walk applies it only to the rows it takes: a row is
admissible when its residue modulo span(L2, chosen), one product with
`_proj` narrowed by each chosen member (`_narrow`, a `reduce_rows` step),
is nonzero.  A definition level oracle for cross checking scores the
reduced echelon coefficient matrices of every r dimensional subcode in
numpy batches; it never touches lead monomials or bases.
"""

from itertools import combinations, count

import numpy as np

from .codes import DEFAULT_BUDGET, EvaluationCode, evaluate_space, standardize
from .codes import _BATCH, _ZeroTable, _digits, _monic_row
from .errors import BudgetExceededError, DimensionMismatchError
from .field import check_int64_products, rank_mod, reduce_rows, rref_mod
from .groebner import _root_product, degree_with_F, footprint, normal_form
from .groebner import vanishing_ideal
from .poly import GREVLEX, Polynomial, divisibility_table


def gaussian_binomial(n, k, q):
    """Number of k dimensional subspaces of GF(q)^n."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


class RghwProblem:
    """A point set with two nested polynomial spaces, ready for the search.

    L1 (a PolySpace or a list of generators) is standardized against the
    vanishing ideal of X, so it evaluates injectively.  L2 is held as L1
    coordinates `_basis2`, one `rref_mod` of its generators' normal forms;
    their polynomials are L2's reduced echelon basis, and C2 is _basis2 @ E.
    L2 must be strictly contained in L1; an absent L2 means the zero space.
    A given `gb` must be in `order` and have |X| standard monomials, as
    I(X) has.  Raises ValueError when k1 * (q - 1)^2 >= 2^63, the limit of
    the int64 products that score candidates.

    What the witness and the bound tree read is built here: `gb`, `space1`,
    `_basis2`, `_proj`, `_realized` and `_divides`.  L1's evaluation matrix
    `_E` (with `_code1`, through `evaluate_space` and its injectivity check)
    is built on first read, by the walk `_search_max_zeros`, `codes()` (the
    definition oracle) or a caller; a problem that the witness certifies
    never builds it.
    """

    def __init__(self, points, space1, space2=None, order=GREVLEX, gb=None):
        if gb is not None and gb.order.name != order.name:
            raise ValueError(f"gb is in {gb.order.name}, but order is {order.name}")
        self.points = points
        self.order = order
        q = points.field.q
        self.gb = gb if gb is not None else vanishing_ideal(points, order)
        standard = footprint(self.gb)
        if len(standard) != len(points):
            raise ValueError(
                f"gb has {len(standard)} standard monomials, but X has"
                f" {len(points)} points"
            )
        self.space1 = standardize(space1, self.gb)
        generators2 = getattr(space2, "basis", space2 or [])
        reduced2 = [normal_form(f, self.gb) for f in generators2]
        if self.space1.dim == 0:
            raise ValueError("L1 reduces to the zero space on X")
        k1 = self.space1.dim
        coords = [self.space1.coordinates(f) for f in reduced2]
        if None in coords:
            raise ValueError("L2 is not contained in L1")
        coords = np.array(coords, dtype=np.int64).reshape(-1, k1)
        self._basis2, pivots2 = rref_mod(coords, q)
        if len(pivots2) >= k1:
            raise ValueError("containment of L2 in L1 must be strict")
        check_int64_products(q, k1, what="the candidate search")
        self._code1 = None  # built with _E on its first read
        # Row i of _proj is e_i modulo L2.
        self._proj = reduce_rows(np.eye(k1), self._basis2, pivots2, q)
        # Position i is realized by L1 \ L2 exactly when basis elements
        # i..k1-1 do not span a subspace of L2: some row of _proj from i on
        # is nonzero.  So the realized positions are 0.._realized-1.
        self._realized = int(np.flatnonzero(self._proj.any(axis=1))[-1]) + 1
        self._code2 = None
        self._trees = {}  # r -> groups of _bound_tree
        # k1 x |footprint|: basis lead i divides standard monomial u.
        self._divides = divisibility_table(self.space1.leads(), standard, points.nvars)

    @property
    def _E(self):
        """L1's evaluation matrix, k1 x |X|, built on first read."""
        if self._code1 is None:
            self._code1 = evaluate_space(self.space1, self.points)
        return self._code1.rows

    @property
    def field(self):
        return self.points.field

    @property
    def q(self):
        return self.points.field.q

    @property
    def k1(self):
        return self.space1.dim

    @property
    def k2(self):
        return self._basis2.shape[0]

    @property
    def num_points(self):
        return len(self.points)

    def codes(self):
        """The evaluation code pair (C1, C2); C2's rows are read off E."""
        if self._code2 is None:
            rows = (self._basis2 @ self._E) % self.q
            self._code2 = EvaluationCode(self.field, rows, self.num_points)
        return self._code1, self._code2

    def poly_from_coefficients(self, coeffs):
        """The polynomial with the given coefficients on the L1 basis."""
        q = self.q
        terms = {}
        for c, b in zip(coeffs, self.space1.basis):
            c = int(c) % q
            if not c:
                continue
            for mono, v in b.terms.items():
                terms[mono] = (terms.get(mono, 0) + c * v) % q
        return Polynomial(self.field, self.points.nvars, terms)

    def _check_r(self, r):
        if not 1 <= r <= self.k1 - self.k2:
            raise ValueError(
                f"r must be between 1 and dim L1 - dim L2 = {self.k1 - self.k2},"
                f" got {r}"
            )

    def __repr__(self):
        return (
            f"RghwProblem(q={self.q}, m={self.num_points},"
            f" k1={self.k1}, k2={self.k2}, order={self.order.name})"
        )


def _bound_tree(problem, r):
    """groups: the tree of lead groups over r of the realized positions
    0.._realized-1, one per (problem, r), kept on the problem and shared by
    the search and `relative_footprint`.

    groups(js) lists (bound, j), best first, for the member after leads at
    the positions js; a bound is the footprint count of the best complete
    lead tuple through the group.  groups(())[0][0] is the root bound.
    Groups are computed on first use and kept; the leaves under one parent
    are counted together by `_leaf_bounds`.
    """
    if r in problem._trees:
        return problem._trees[r]
    ordered = {}

    def groups(js):
        if js not in ordered:
            level = len(js)
            start = js[-1] + 1 if js else 0
            stop = problem._realized - (r - level) + 1
            if level == r - 1:
                counts = _leaf_bounds(problem, list(js), np.arange(start, stop))
                bounds = list(zip(counts.tolist(), range(start, stop)))
            else:
                bounds = [(groups(js + (j,))[0][0], j) for j in range(start, stop)]
            # Decreasing bound; on equal bounds the higher lead index, whose
            # group is smaller, comes first.
            ordered[js] = sorted(bounds, reverse=True)
        return ordered[js]

    problem._trees[r] = groups
    return groups


def _narrow(proj, row, q):
    """From `proj`, x -> x @ proj the residue map modulo some V, the one
    modulo span(V, row): row's residue, made 1 at its first nonzero column,
    clears that column of every residue.  None when row lies in V."""
    res = (row @ proj) % q
    if not res.any():
        return None
    piv = int(np.argmax(res != 0))
    norm = (res * pow(int(res[piv]), q - 2, q)) % q
    return reduce_rows(proj, norm[None], [piv], q)


def _product_witness(problem, r):
    """The footprint bound's own witness on a product point set: (zeros,
    coefficient rows) of an admissible set with the root bound of zeros, or
    None.

    On X = A_1 x ... x A_s (`PointSet.product_factors`) a lead m gives
    F = prod_i prod_{c among the first m_i values of A_i} (t_i - c), of lead
    m.  A point whose i-th coordinate is the u_i-th smallest value of A_i is
    a zero of F exactly when m does not divide t^u, so the F of the leads of
    a complete lead tuple at the root bound of `_bound_tree` have that many
    common zeros, which no admissible set exceeds (Lopez, Renteria-Marquez
    and Villarreal, "Affine Cartesian codes", Des. Codes Cryptogr. 71,
    2014).  Every term of F divides the standard monomial m and the
    footprint is a box, so F is its own normal form.  Such tuples are
    walked best first, and an F is kept only after two checks: it lies in
    L1 (`PolySpace.coordinates`), and its residue modulo L2 and the F kept
    before it, through `_proj`, is nonzero, so the r residues have rank r.
    The first complete tuple is accepted after a third: its common zeros,
    counted by `PointSet.evaluate`, number the root bound.  None when X is
    not a product or no tuple passes, as when L1 is not closed under
    divisors or RFP_r < M_r; the walk then answers.
    """
    factors = problem.points.product_factors
    if factors is None:
        return None
    groups = _bound_tree(problem, r)
    root = groups(())[0][0]
    members = {}  # j -> (F, its L1 coordinates or None)

    def member(j):
        if j not in members:
            lead = problem.space1.leads()[j]
            roots = [values[:e] for e, values in zip(lead, factors)]
            f = _root_product(problem.field, roots)
            row = problem.space1.coordinates(f)
            members[j] = f, None if row is None else np.array(row, dtype=np.int64)
        return members[j]

    def extend(js, proj):
        if len(js) == r:
            return js
        for bound, j in groups(js):
            if bound < root:
                break
            row = member(j)[1]
            narrowed = None if row is None else _narrow(proj, row, problem.q)
            found = narrowed is not None and extend(js + (j,), narrowed)
            if found:
                return found
        return None

    js = extend((), problem._proj)
    if js is None:
        return None
    values = problem.points.evaluate([member(j)[0] for j in js])
    zeros = int(np.count_nonzero(~values.any(axis=0)))
    if zeros != root:
        return None
    return zeros, [member(j)[1] for j in js]


def _search_max_zeros(problem, r, budget):
    """Largest |V_X(F)| over admissible candidate sets, with a witness.

    Returns (max zeros, list of coefficient rows).  A branch and bound that
    walks `_bound_tree` over the realized positions, one level per member of
    F: a group whose bound is at most the running maximum is skipped, and a
    group stops being scored once the maximum reaches its bound, since
    nothing left in it can exceed that.  It runs when `_product_witness`
    finds none.  One rule takes candidates at every level: best first by
    `argmax`, ties in odometer order, while min(score, bound) beats the
    maximum; each is rebuilt by `_monic_row` and, if admissible, recorded at
    the last level, where the bound caps every score, or extended at an
    inner one.

    Each group is walked on the calling thread by the zero-count walk
    `codes._ZeroTable.zero_counts`, one prefix of q^l candidates at a time,
    in odometer order; a child keeps the columns where its chosen row's
    word is zero.  Each prefix is charged to the budget before its counts
    are read, so the search refuses before it scores the prefix that would
    pass the budget; the walk counts a batch of prefixes at once, so a
    refusal may have counted up to _BATCH words that were never charged.
    Reduction modulo span(L2, chosen) is linear, x @ proj for the `proj`
    each level narrows from `_proj` by its chosen member, so a taken row is
    admissible exactly when `_narrow` finds its residue nonzero, and the
    narrowed map it returns is the child's `proj`; rows the walk does not
    take are never reduced.
    """
    q = problem.q
    k1 = problem.k1
    e_matrix = problem._E
    words = _ZeroTable(e_matrix, q)
    groups = _bound_tree(problem, r)
    counter = 0
    best_zeros, best_rows = -1, None

    def prefixes(lead, alive):
        # (first row, zero counts on alive) per prefix of the walk over E,
        # signed so that a taken row's count can be set to -1.
        for first, counts in words.zero_counts(lead, alive):
            yield from zip(count(first, counts.shape[1]), counts.astype(np.int64))

    def extend(js, alive, proj, chosen):
        nonlocal counter, best_zeros, best_rows
        for bound, lead in groups(js):
            if bound <= best_zeros:
                break
            for first, scores in prefixes(lead, alive):
                counter += len(scores)
                if counter > budget:
                    raise BudgetExceededError(counter, budget, "candidate enumeration")
                while True:
                    i = int(np.argmax(scores))
                    zeros = int(scores[i])
                    if min(zeros, bound) <= best_zeros:
                        break
                    scores[i] = -1
                    row = _monic_row(q, k1, lead, first + i)
                    narrowed = _narrow(proj, row, q)
                    if narrowed is None:  # row lies in span(L2, chosen)
                        continue
                    if len(js) == r - 1:
                        best_zeros, best_rows = zeros, chosen + [row]
                    else:
                        extend(
                            js + (lead,),
                            alive[(row @ e_matrix[:, alive]) % q == 0],
                            narrowed,
                            chosen + [row],
                        )
                if best_zeros >= bound:
                    break

    extend((), np.arange(e_matrix.shape[1]), problem._proj, [])
    return best_zeros, best_rows


def rghw_degree(problem, r, budget=DEFAULT_BUDGET, threads=None, validate=False):
    """The r-th relative generalized Hamming weight M_r(C1, C2).

    Computed as deg(S/I(X)) minus the largest candidate zero count, counted
    at the points, by the witness or the walk.  On a product point set the
    footprint bound's own witness (`_product_witness`) certifies M_r = RFP_r
    once it lies in L1, its residues modulo L2 (on L1 coordinates) have
    rank r and its zero count equals the root bound; otherwise
    `_search_max_zeros` walks.  With validate=True the zero count of the
    maximizing candidate set, the witness included, is recomputed as
    deg S/(I(X) + (F)) by `degree_with_F`, a rank over the footprint from
    the multiplication matrices of I(X), built once per basis and kept on
    `problem.gb`, that never evaluates at the points, and the definition
    oracle is replayed when its subcodes fit the budget (`_oracle_skipped`),
    which builds E on a witness-certified problem; any disagreement raises
    instead of being silently resolved.  The search runs on the calling
    thread; `threads` must be None or at least 1.
    """
    problem._check_r(r)
    if threads is not None and threads < 1:
        raise ValueError("threads must be at least 1")
    found = _product_witness(problem, r) or _search_max_zeros(problem, r, budget)
    best_zeros, best_rows = found
    if best_zeros < 0:
        raise RuntimeError("no admissible candidate set found")
    value = problem.num_points - best_zeros
    if validate:
        witness = [problem.poly_from_coefficients(c) for c in best_rows]
        gb_deg, fp_deg = degree_with_F(problem.gb, witness)
        if gb_deg != best_zeros:
            raise RuntimeError(
                f"validation mismatch: basis degree {gb_deg}"
                f" != zero count {best_zeros}"
            )
        if fp_deg < gb_deg:
            raise RuntimeError(
                "validation mismatch: footprint bound below the exact degree"
            )
        if _oracle_skipped(problem, r, budget) is None:
            c1, c2 = problem.codes()
            oracle = rghw_definition_oracle(c1, c2, r, budget)
            if oracle != value:
                raise RuntimeError(
                    f"validation mismatch: oracle {oracle} != degree value {value}"
                )
    return value


def _oracle_skipped(problem, r, budget):
    """The number of r dimensional subcodes of C1 when it exceeds the budget,
    so that validation skips the definition oracle; None when it replays."""
    subcodes = gaussian_binomial(problem.k1, r, problem.q)
    return subcodes if subcodes > budget else None


def ghw(problem, r, budget=DEFAULT_BUDGET, threads=None, validate=False):
    """The r-th generalized Hamming weight of C1 (L2 taken as zero)."""
    if problem.k2:
        problem = RghwProblem(
            problem.points, problem.space1, None, problem.order, gb=problem.gb
        )
    return rghw_degree(problem, r, budget, threads, validate)


def rghw_definition_oracle(code1, code2, r, budget=DEFAULT_BUDGET):
    """M_r(C1, C2) straight from the definition.

    Enumerates every r dimensional subcode of C1 through reduced echelon
    coefficient matrices, pivot pattern by pivot pattern, keeps those
    meeting C2 only in zero, and takes the smallest support size.  The free
    entries of a pattern are the base-q digits of a fill index, and a range
    of fills is scored at once in batches of at most _BATCH word entries:
    one product gives the words, one more their residues modulo C2 (the
    generators of C1 are reduced modulo C2 once, by `reduce_rows`), and one
    elimination in row order by cross-multiplication finds the
    subcodes whose residue rows are dependent, which meet C2.  Independent
    of monomial orders and bases.  Raises ValueError when
    k1 * (q - 1)^2 >= 2^63, where the words would wrap in int64.
    """
    q = code1.field.q
    k1 = code1.k
    n = code1.n
    g1 = code1.rows
    if code1.rank < k1:
        raise ValueError("generator matrix of C1 must have full rank")
    if code2 is None or code2.k == 0:
        g2r = np.zeros((0, n), dtype=np.int64)
        piv2 = []
    else:
        if code2.field != code1.field or code2.n != n:
            raise DimensionMismatchError("codes of different fields or lengths")
        g2r, piv2 = rref_mod(code2.rows, q)
        stacked = np.vstack([g1, g2r])
        if rank_mod(stacked, q) != k1:
            raise ValueError("C2 is not a subcode of C1")
    k2 = g2r.shape[0]
    if not 1 <= r <= k1 - k2:
        raise ValueError(f"r must be between 1 and {k1 - k2}, got {r}")
    check_int64_products(q, k1, what="the definition oracle")
    total = gaussian_binomial(k1, r, q)
    if total > budget:
        raise BudgetExceededError(total, budget, "subcode enumeration")
    # Reduction modulo C2 is linear: reduce the generators once, then the
    # residues of a batch are its coefficient rows times them.
    g1r = reduce_rows(g1, g2r, piv2, q)
    step = max(1, _BATCH // (r * n))
    best = n
    for pivs in combinations(range(k1), r):
        free = [
            (t, j) for t in range(r) for j in range(pivs[t] + 1, k1) if j not in pivs
        ]
        free_t, free_j = np.array(free, dtype=np.int64).reshape(-1, 2).T
        fills = q ** len(free)
        for lo in range(0, fills, step):
            rows = np.zeros((min(step, fills - lo), r, k1), dtype=np.int64)
            rows[:, range(r), pivs] = 1
            rows[:, free_t, free_j] = _digits(q, len(free), lo, lo + len(rows))
            words = (rows @ g1) % q
            res = (rows @ g1r) % q
            for t in range(r - 1):
                row = res[:, t]
                col = np.argmax(row != 0, axis=1)[:, None, None]
                head = np.take_along_axis(row[:, None], col, axis=2)
                rest = res[:, t + 1 :]
                factor = np.take_along_axis(rest, col, axis=2)
                res[:, t + 1 :] = (head * rest - factor * row[:, None]) % q
            # A residue row eliminated to zero: the subcode meets C2.
            ok = res.any(axis=2).all(axis=1)
            supports = np.any(words != 0, axis=1).sum(axis=1)[ok]
            best = min(best, int(supports.min(initial=n)))
    return best


def _leaf_bounds(problem, parent, candidates):
    """For each basis position c in candidates, the standard monomials
    divisible by no lead at the positions parent + [c]: the footprint bound
    deg S/(in I(X) + (in F)) on |V_X(F)| for such F.  One reduction over
    the standard monomials that the parent's leads leave undivided."""
    divides = problem._divides
    undivided = ~divides[parent].any(axis=0)
    return (~divides[candidates] & undivided).sum(axis=1)


def relative_footprint(problem, r):
    """The r-th relative footprint bound RFP_r, a lower bound for M_r.

    deg(S/I) minus the root bound of the search's `_bound_tree`: the largest
    count of standard monomials that no lead of some r realized leads
    divides, read off `poly.divisibility_table`.  r must lie in
    [1, dim L1 - dim L2], as for `rghw_degree`.
    """
    problem._check_r(r)
    return problem.num_points - _bound_tree(problem, r)(())[0][0]
