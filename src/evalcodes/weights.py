"""Relative generalized Hamming weights of evaluation codes.

M_r(C1, C2) is the smallest support size of an r dimensional subcode of C1
meeting C2 only in zero.  For standard evaluation codes it equals
deg(S/I(X)) minus the largest number of common zeros inside X over
candidate sets F of r monic polynomials in L1 with pairwise distinct lead
monomials whose span meets L2 trivially.

The search is a branch and bound over lead tuples.  For any F,
|V_X(F)| = deg S/(I(X) + (F)) <= deg S/(in I(X) + (in F)), the number of
standard monomials divisible by no lead of F; this footprint bound is known
before a lead group is enumerated, and a group of partial sets is bounded by
the best complete lead tuple through it.  Only leads realized by L1 outside
L2 are tried, groups are visited best bound first, groups whose bound
cannot beat the running maximum are skipped, and a group stops being scored
once the maximum reaches its bound.  Surviving groups are scored chunk by
chunk in coefficient space over the echelon basis of L1.  A definition
level oracle enumerating subcodes directly is provided for cross checking;
it never touches lead monomials or bases.
"""

from itertools import combinations

import numpy as np

from .codes import DEFAULT_BUDGET, evaluate_space, standardize
from .codes import _monic_rows, _monic_spans  # the enumeration kernel
from .errors import BudgetExceededError, DimensionMismatchError
from .field import check_int64_products, rank_mod, reduce_rows, rref_mod
from .groebner import degree_with_F, footprint, normal_form, vanishing_ideal
from .poly import GREVLEX, Polynomial, PolySpace, echelonize, monomial_divides


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

    Both spaces are standardized against the vanishing ideal of X, so they
    consist of standard monomial combinations and evaluate injectively.
    L2 must be strictly contained in L1; an absent L2 means the zero space.
    Raises ValueError when k1 * (q - 1)^2 >= 2^63, the limit of the int64
    products that score candidates.
    """

    def __init__(self, points, space1, space2=None, order=GREVLEX, gb=None):
        self.points = points
        self.order = order
        field = points.field
        s = points.nvars
        self.gb = gb if gb is not None else vanishing_ideal(points, order)

        def standard_space(sp):
            if isinstance(sp, PolySpace):
                return standardize(sp, self.gb)
            # Normal forms are linear and the reduced echelon basis of a span
            # is unique, so one elimination over the normal forms of the raw
            # generators gives the standardized basis.
            polys = [normal_form(f, self.gb) for f in sp or []]
            return echelonize(polys, order, field=field, nvars=s)

        self.space1 = standard_space(space1)
        self.space2 = standard_space(space2)
        if self.space1.dim == 0:
            raise ValueError("L1 reduces to the zero space on X")
        coords = []
        for b in self.space2.basis:
            c = self.space1.coordinates(b)
            if c is None:
                raise ValueError("L2 is not contained in L1")
            coords.append(c)
        if self.space2.dim >= self.space1.dim:
            raise ValueError("containment of L2 in L1 must be strict")
        q = field.q
        check_int64_products(q, self.space1.dim, what="the candidate search")
        self._lead_monos = self.space1.leads()
        self._code1 = evaluate_space(self.space1, points)
        self._E = self._code1.matrix.rows
        if coords:
            self._A, self._A_piv = rref_mod(np.array(coords, dtype=np.int64), q)
        else:
            self._A = np.zeros((0, self.space1.dim), dtype=np.int64)
            self._A_piv = []
        self._code2 = None
        self._divides = None

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
        return self.space2.dim

    @property
    def num_points(self):
        return len(self.points)

    @property
    def footprint_monomials(self):
        return tuple(footprint(self.gb))

    def _lead_divisibility(self):
        """Boolean k1 x |footprint| table: basis lead i divides monomial u."""
        if self._divides is None:
            delta = self.footprint_monomials
            self._divides = np.array(
                [[monomial_divides(m, u) for u in delta] for m in self._lead_monos],
                dtype=bool,
            )
        return self._divides

    def codes(self):
        """The evaluation code pair (C1, C2)."""
        if self._code2 is None:
            self._code2 = evaluate_space(self.space2, self.points)
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


def _search_max_zeros(problem, r, budget):
    """Largest |V_X(F)| over admissible candidate sets, with a witness.

    Returns (max zeros, list of coefficient rows).  A branch and bound over
    lead tuples, one level per member of F:

    - only realized lead positions are tried (every admissible member lies
      outside L2), and only those leaving enough realized positions after
      them for the remaining members;
    - a lead group is bounded by the footprint count of the best complete
      lead tuple through it, which bounds |V_X| of every set in its subtree;
    - groups are visited in decreasing bound, ties to the smaller group
      (higher lead index), and a group whose bound is at most the running
      maximum is skipped;
    - a group stops being scored once the maximum reaches its bound, since
      nothing left in it can exceed that.

    Each group is walked on the calling thread, chunk by chunk over the
    spans of the enumeration kernel `codes._monic_spans`, in odometer order.
    Each chunk is charged to the budget before it is scored, so the search
    refuses before it builds the chunk that would pass the budget.
    """
    q = problem.q
    k1 = problem.k1
    e_matrix = problem._E
    m = e_matrix.shape[1]
    realized = _realized_positions(problem)
    counter = 0
    best_zeros = -1
    best_rows = None
    ordered = {}

    def groups(js):
        """(bound, j) for the member after leads realized[js], best first."""
        if js not in ordered:
            level = len(js)
            start = js[-1] + 1 if js else 0
            stop = len(realized) - (r - level) + 1
            bounds = []
            for j in range(start, stop):
                if level == r - 1:
                    leads = [realized[t] for t in js + (j,)]
                    bounds.append((_footprint_survivors(problem, leads), j))
                else:
                    bounds.append((groups(js + (j,))[0][0], j))
            # Decreasing bound; on equal bounds the higher lead index, whose
            # group is smaller, comes first.
            ordered[js] = sorted(bounds, reverse=True)
        return ordered[js]

    def extend(js, alive, red, pivots, chosen):
        nonlocal counter, best_zeros, best_rows
        proj = None
        for bound, j in groups(js):
            if bound <= best_zeros:
                break
            if proj is None:
                # Reduction modulo span(L2, chosen) is linear: one matrix.
                proj = reduce_rows(np.eye(k1, dtype=np.int64), red, pivots, q)
                e_alive = e_matrix[:, alive]
            for lead, lo, hi in _monic_spans(q, k1, [realized[j]]):
                counter += hi - lo
                if counter > budget:
                    raise BudgetExceededError(counter, budget, "candidate enumeration")
                rows = _monic_rows(q, k1, lead, lo, hi)
                res = (rows @ proj) % q
                ok = res.any(axis=1)
                vals = (rows @ e_alive) % q
                zeros = (vals == 0).sum(axis=1)
                if len(js) == r - 1:
                    scored = np.where(ok, zeros, -1)
                    i = int(np.argmax(scored))
                    if int(scored[i]) > best_zeros:
                        best_zeros = int(scored[i])
                        best_rows = chosen + [rows[i].copy()]
                else:
                    for i in np.argsort(-zeros, kind="stable"):
                        i = int(i)
                        if min(int(zeros[i]), bound) <= best_zeros:
                            break
                        if not ok[i]:
                            continue
                        rr = res[i]
                        piv = int(np.argmax(rr != 0))
                        norm = (rr * pow(int(rr[piv]), q - 2, q)) % q
                        extend(
                            js + (j,),
                            alive[vals[i] == 0],
                            red + [norm],
                            pivots + [piv],
                            chosen + [rows[i].copy()],
                        )
                if best_zeros >= bound:
                    break

    extend((), np.arange(m), list(problem._A), list(problem._A_piv), [])
    return best_zeros, best_rows


def rghw_degree(problem, r, budget=DEFAULT_BUDGET, threads=None, validate=False):
    """The r-th relative generalized Hamming weight M_r(C1, C2).

    Computed as deg(S/I(X)) minus the largest candidate zero count, with
    zeros counted by direct evaluation.  With validate=True the maximizing
    candidate set is recomputed through the Groebner basis degree route and
    the definition oracle is replayed when it fits the budget; any
    disagreement raises instead of being silently resolved.  The search
    runs on the calling thread; `threads` must be None or at least 1.
    """
    problem._check_r(r)
    if threads is not None and threads < 1:
        raise ValueError("threads must be at least 1")
    best_zeros, best_rows = _search_max_zeros(problem, r, budget)
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
        if gaussian_binomial(problem.k1, r, problem.q) <= budget:
            c1, c2 = problem.codes()
            oracle = rghw_definition_oracle(c1, c2, r, budget)
            if oracle != value:
                raise RuntimeError(
                    f"validation mismatch: oracle {oracle} != degree value {value}"
                )
    return value


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
    coefficient matrices, keeps those meeting C2 only in zero, and takes
    the smallest support size.  Independent of monomial orders and bases.
    """
    q = code1.field.q
    k1 = code1.k
    g1 = code1.matrix.rows
    if code1.matrix.rank < k1:
        raise ValueError("generator matrix of C1 must have full rank")
    if code2 is None or code2.k == 0:
        g2r = np.zeros((0, code1.n), dtype=np.int64)
        piv2 = []
    else:
        if code2.field != code1.field or code2.n != code1.n:
            raise DimensionMismatchError("codes of different fields or lengths")
        g2r, piv2 = rref_mod(code2.matrix.rows, q)
        stacked = np.vstack([g1, g2r])
        if rank_mod(stacked, q) != k1:
            raise ValueError("C2 is not a subcode of C1")
    k2 = g2r.shape[0]
    if not 1 <= r <= k1 - k2:
        raise ValueError(f"r must be between 1 and {k1 - k2}, got {r}")
    total = gaussian_binomial(k1, r, q)
    if total > budget:
        raise BudgetExceededError(total, budget, "subcode enumeration")
    best = None
    for pivs in combinations(range(k1), r):
        free = [
            (t, j)
            for t in range(r)
            for j in range(pivs[t] + 1, k1)
            if j not in pivs
        ]
        for fill in range(q ** len(free)):
            rows = np.zeros((r, k1), dtype=np.int64)
            for t, p in enumerate(pivs):
                rows[t, p] = 1
            for fi, (t, j) in enumerate(free):
                rows[t, j] = (fill // q ** (len(free) - 1 - fi)) % q
            words = (rows @ g1) % q
            if k2:
                residues = reduce_rows(words, g2r, piv2, q)
                if rank_mod(residues, q) < r:
                    continue
            supp = int(np.any(words != 0, axis=0).sum())
            if best is None or supp < best:
                best = supp
    return best


def _realized_positions(problem):
    """Basis positions whose lead is realized by L1 \\ L2, increasing.

    Position i is realized exactly when the subspace of L1 elements with
    lead at most m_i, spanned by basis elements i..k1-1, is not contained
    in L2.
    """
    k1 = problem.k1
    if problem.k2 == 0:
        return list(range(k1))
    eye = np.eye(k1, dtype=np.int64)
    residues = reduce_rows(eye, problem._A, problem._A_piv, problem.q)
    realized = []
    suffix_inside = True
    for i in reversed(range(k1)):
        suffix_inside = suffix_inside and not residues[i].any()
        if not suffix_inside:
            realized.append(i)
    return realized[::-1]


def lead_set_difference(problem):
    """Lead monomials realized by L1 \\ L2, in decreasing order.

    A basis lead m_i belongs to the set exactly when the subspace of L1
    elements with lead at most m_i is not contained in L2.
    """
    return [problem._lead_monos[i] for i in _realized_positions(problem)]


def _footprint_survivors(problem, positions):
    """Standard monomials divisible by none of the leads at these positions.

    This is deg S/(in I(X) + (in F)), the footprint bound on |V_X(F)| for
    every F whose leads sit at the given basis positions.
    """
    divides = problem._lead_divisibility()[list(positions)]
    return int(np.count_nonzero(~divides.any(axis=0)))


def relative_footprint(problem, r):
    """The r-th relative footprint bound RFP_r, a lower bound for M_r.

    deg(S/I) minus the largest count of standard monomials surviving after
    adjoining any r element subset of the realized lead monomials to the
    initial ideal.
    """
    positions = _realized_positions(problem)
    if not 1 <= r <= len(positions):
        raise ValueError(
            f"r must be between 1 and {len(positions)} realized leads, got {r}"
        )
    best = max(
        _footprint_survivors(problem, subset)
        for subset in combinations(positions, r)
    )
    return len(problem.footprint_monomials) - best
