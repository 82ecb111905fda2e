"""Independent reference implementations used to cross check the library.

Everything here is deliberately plain Python following the most direct
definition available, trading speed for obviousness, so that the fast
numpy code paths can be checked against it on small inputs.  `buchberger`
is the reference route for deg S/(I + (F)), which the library computes as a
rank over the footprint.
"""

import heapq
from collections import namedtuple
from itertools import combinations, product

from evalcodes import GroebnerBasis, ZeroPolynomialError, divide
from evalcodes.poly import (
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
    total_degree,
)


def pp_rref(rows, q):
    """Row reduce over F_q without numpy; returns (reduced rows, pivot columns)."""
    mat = [[value % q for value in row] for row in rows]
    pivots = []
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        pivot_row = None
        for i in range(rank, len(mat)):
            if mat[i][col] % q:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        mat[rank], mat[pivot_row] = mat[pivot_row], mat[rank]
        inv = pow(mat[rank][col], q - 2, q)
        mat[rank] = [(inv * value) % q for value in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                factor = mat[i][col]
                mat[i] = [
                    (value - factor * head) % q
                    for value, head in zip(mat[i], mat[rank])
                ]
        pivots.append(col)
        rank += 1
    return mat[:rank], pivots


def pp_rank(rows, q):
    return len(pp_rref(rows, q)[1])


def pp_in_span(vector, rref_rows, pivots, q):
    """Membership of a vector in the row space given by a reduced basis."""
    v = [value % q for value in vector]
    for row, col in zip(rref_rows, pivots):
        c = v[col]
        if c:
            v = [(a - c * b) % q for a, b in zip(v, row)]
    return not any(v)


def span_vectors(rows, q):
    """Every vector of the row space, as a set of tuples."""
    n = len(rows[0]) if rows else 0
    out = set()
    for coeffs in product(range(q), repeat=len(rows)):
        v = [0] * n
        for c, row in zip(coeffs, rows):
            if c:
                v = [(a + c * b) % q for a, b in zip(v, row)]
        out.add(tuple(v))
    return out


def hamming_weight(vector):
    return sum(1 for value in vector if value)


def brute_weight_distribution(rows, q):
    """Weight histogram of the row span; rows must be linearly independent."""
    hist = {}
    for v in span_vectors(rows, q):
        w = hamming_weight(v)
        hist[w] = hist.get(w, 0) + 1
    return hist


def brute_codeword_weights(rows, q):
    """Weight histogram over all q^k coefficient vectors of the rows.

    Each coefficient vector counts once, so a rank deficient set of rows
    shows every codeword with its multiplicity.
    """
    n = len(rows[0]) if rows else 0
    hist = {}
    for coeffs in product(range(q), repeat=len(rows)):
        word = [sum(c * row[j] for c, row in zip(coeffs, rows)) % q for j in range(n)]
        w = hamming_weight(word)
        hist[w] = hist.get(w, 0) + 1
    return hist


def brute_min_distance(rows, q):
    return min(
        hamming_weight(v) for v in span_vectors(rows, q) if any(v)
    )


def brute_support_union(rows, q):
    """Union of supports (1-based) over every vector of the row span."""
    cols = set()
    for v in span_vectors(rows, q):
        for j, value in enumerate(v):
            if value:
                cols.add(j + 1)
    return cols


def brute_min_support_subcode(rows1, rows2, q, r):
    """Smallest support size of an r-dimensional subcode of span(rows1)
    intersecting span(rows2) only in zero.  Direct definition sweep."""
    codewords = sorted(v for v in span_vectors(rows1, q) if any(v))
    rref2, piv2 = pp_rref(rows2, q) if rows2 else ([], [])
    best = None
    for tup in combinations(codewords, r):
        if pp_rank(list(tup), q) != r:
            continue
        trivial = True
        for coeffs in product(range(q), repeat=r):
            if not any(coeffs):
                continue
            v = [0] * len(tup[0])
            for c, row in zip(coeffs, tup):
                if c:
                    v = [(a + c * b) % q for a, b in zip(v, row)]
            if pp_in_span(v, rref2, piv2, q):
                trivial = False
                break
        if not trivial:
            continue
        size = len({j for row in tup for j, value in enumerate(row) if value})
        if best is None or size < best:
            best = size
    return best


def brute_variety_count(points, polys):
    """Number of common zeros among the points, by direct evaluation."""
    count = 0
    for point in points:
        if all(int(f.evaluate(point)) == 0 for f in polys):
            count += 1
    return count


def brute_max_zero_count(rows, q):
    """Largest number of zero coordinates over the nonzero span vectors."""
    return max(
        sum(1 for value in v if not value)
        for v in span_vectors(rows, q)
        if any(v)
    )


def brute_subspace_count(n, r, q):
    """Number of r-dimensional subspaces of F_q^n by exhaustive span collection."""
    seen = set()
    vectors = list(product(range(q), repeat=n))
    for rows in product(vectors, repeat=r):
        rows = [list(v) for v in rows]
        if pp_rank(rows, q) != r:
            continue
        seen.add(frozenset(span_vectors(rows, q)))
    return len(seen)


def brute_lead_sweep(problem):
    """Leads realized by elements of L1 outside L2, over all q^{k1} vectors."""
    q = problem.q
    leads = set()
    for coeffs in product(range(q), repeat=problem.k1):
        if not any(coeffs):
            continue
        f = problem.poly_from_coefficients(coeffs)
        if problem.space2.contains(f):
            continue
        leads.add(f.lead_monomial(problem.order))
    return leads


# r monic polynomials of L1 with pairwise distinct lead monomials.
CandidateSet = namedtuple("CandidateSet", ["polys", "leads"])


def enumerate_candidates(problem, r):
    """Yield every admissible candidate set, in a fixed deterministic order.

    Lead positions are chosen as increasing index tuples over the L1 basis
    (which is sorted by decreasing lead monomial); coefficient fillings run
    in odometer order, later elements fastest.  A set is admissible when its
    span meets L2 only in zero, checked as a rank over L2 and the set, which
    also forces every member outside L2.
    """
    problem._check_r(r)
    q = problem.q
    k1 = problem.k1
    lead_monos = problem.space1.leads()
    l2 = [problem.space1.coordinates(b) for b in problem.space2.basis]

    def descend(start, chosen, leads):
        if len(chosen) == r:
            polys = [problem.poly_from_coefficients(c) for c in chosen]
            yield CandidateSet(polys, leads)
            return
        for lead in range(start, k1 - (r - len(chosen)) + 1):
            for free in product(range(q), repeat=k1 - lead - 1):
                row = [0] * lead + [1] + list(free)
                rows = l2 + chosen + [row]
                if pp_rank(rows, q) == len(rows):
                    yield from descend(
                        lead + 1, chosen + [row], leads + [lead_monos[lead]]
                    )

    yield from descend(0, [], [])


def brute_max_candidate_zeros(problem, r):
    """Largest common zero count in X over every admissible candidate set.

    Walks `enumerate_candidates` to the end, with no bound and no pruning,
    and counts zeros by direct evaluation.
    """
    return max(
        brute_variety_count(problem.points, cand.polys)
        for cand in enumerate_candidates(problem, r)
    )


def brute_relative_footprint(problem, r):
    """RFP_r from monomial footprints of in I(X) plus r realized leads."""
    from evalcodes import footprint, lead_set_difference, monomial_footprint

    gb = problem.gb
    survivors = max(
        len(monomial_footprint(gb.leads() + list(subset), gb.nvars, gb.order))
        for subset in combinations(lead_set_difference(problem), r)
    )
    return len(footprint(gb)) - survivors


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
    return GroebnerBasis(field, nvars, order, _interreduce(basis, order))


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
