"""Independent reference implementations used to cross check the library.

Everything here is deliberately plain Python following the most direct
definition available, trading speed for obviousness, so that the fast
numpy code paths can be checked against it on small inputs.  `buchberger`
is the reference route for deg S/(I + (F)), which the library computes as a
rank over the footprint, and `evaluate_at` the point-by-point reference for
`PointSet.evaluate`.  `monic_rows` and the walks over it,
`monic_walk_weights` and `monic_walk_search`, are the reference enumerator
for the table kernel: whole coefficient rows times the generator matrix.
`loop_definition_oracle`, one subcode per Python iteration, is the
reference for the batched `rghw_definition_oracle`.
`loop_buchberger_moeller`, one stored row at a time, is the reference for
the array elimination of `groebner._buchberger_moeller`.
`ORDER_KEYS`, one plain lambda per monomial order, is the reference for
the sort keys of `poly.MonomialOrder`.
`trial_division_is_prime` is the reference for the Miller-Rabin test of
`PrimeField`, and `box_monomials`, a walk over the whole exponent box, the
reference for `poly.monomials`.  `division_degree_with_F`, one division
per standard monomial and member of F, is the reference for the
multiplication-matrix walk of `degree_with_F`.  `degree_zero_dim`,
`hilbert_affine`, `box_degree` and `emptiness_criteria` are degree and
emptiness statements of the footprint method, kept as checks on it, and
`lead_set_difference` lists the leads realized by L1 outside L2 for the
tests of the search.  `squarefree_zero_bound`, `reducible_zero_bound` and
`linear_form_zero_count` are the paper's torus zero-count lemmas, checked
against counted varieties.  `_footprint_survivors`, one lead tuple's
footprint count, and `reference_bound_tree` over it are the reference for
the leaf counts of the search's bound tree, each parent's leaves in one
reduction.  `outer_narrow`, one outer-product pivot update of a residue
map, is the reference for the `reduce_rows` step of `weights._narrow`.
`support` (the columns where some row is
nonzero) and `monomial_div` (the quotient of monomials, checking
divisibility) are helpers that only the tests read.
"""

import heapq
from collections import namedtuple
from itertools import combinations, product

import numpy as np

from evalcodes import (
    GREVLEX,
    BudgetExceededError,
    GroebnerBasis,
    PointSet,
    Polynomial,
    ZeroPolynomialError,
    degree_with_F,
    divide,
    footprint,
    normal_form,
    vanishing_ideal,
    variety_in_X,
)
from evalcodes.errors import DimensionMismatchError
from evalcodes.field import check_int64_products, rank_mod, reduce_rows, rref_mod
from evalcodes.groebner import _check_F
from evalcodes.poly import divisibility_table, monomial_divides
from evalcodes.poly import monomial_mul, total_degree
from evalcodes.weights import gaussian_binomial

# Larger key, larger monomial: lex compares exponents from the first
# variable, grlex total degree first, and grevlex total degree, then the
# smaller exponent from the last variable.
ORDER_KEYS = {
    "lex": lambda m: tuple(m),
    "grlex": lambda m: (sum(m), tuple(m)),
    "grevlex": lambda m: (sum(m), tuple(-e for e in reversed(m))),
}


def trial_division_is_prime(n):
    """Primality by trial division up to sqrt(n), for small n."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def box_monomials(bounds, low, high):
    """Exponent vectors of the box prod [0, bounds[i]) with total degree in
    [low, high], in the order of `itertools.product`: the whole box is
    walked and filtered."""
    box = product(*(range(b) for b in bounds))
    return [m for m in box if low <= sum(m) <= high]


def monomial_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def monomial_div(a, b):
    """Quotient a / b; requires b | a."""
    if not monomial_divides(b, a):
        raise ValueError(f"{b} does not divide {a}")
    return tuple(x - y for x, y in zip(a, b))


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


def monic_rows(q, k, lead, lo, hi):
    """Monic coefficient rows lo..hi-1 with the given lead position.

    Row i has zeros before `lead`, a 1 at `lead` and the base-q digits of
    lo + i after it, most significant first (odometer order).
    """
    free = k - lead - 1
    rows = np.zeros((hi - lo, k), dtype=np.int64)
    rows[:, lead] = 1
    idx = np.arange(lo, hi, dtype=np.int64)
    for t in range(free):
        rows[:, lead + 1 + t] = (idx // q ** (free - 1 - t)) % q
    return rows


def monic_spans(q, k, leads, chunk):
    """Spans (lead, lo, hi) of at most `chunk` monic rows for each lead, in
    odometer order; only the last span of a lead may be short."""
    for lead in leads:
        total = q ** (k - lead - 1)
        for lo in range(0, total, chunk):
            yield lead, lo, min(lo + chunk, total)


def monic_walk_weights(rows, q, chunk=1 << 13):
    """Weight histogram over all q^k coefficient vectors of a k x n matrix.

    Every monic row times the matrix, chunk by chunk; each of the q - 1
    nonzero multiples of a monic row has its weight, and the zero vector
    adds weight 0.
    """
    g = np.asarray(rows, dtype=np.int64) % q
    k, n = g.shape
    hist = np.zeros(n + 1, dtype=np.int64)
    for span in monic_spans(q, k, range(k), chunk):
        weights = np.count_nonzero((monic_rows(q, k, *span) @ g) % q, axis=1)
        hist += np.bincount(weights, minlength=n + 1)
    hist *= q - 1
    hist[0] += 1
    return {w: int(c) for w, c in enumerate(hist) if c}


def _footprint_survivors(problem, positions):
    """Standard monomials divisible by no lead at these basis positions: the
    footprint bound deg S/(in I(X) + (in F)) on |V_X(F)| for such F, one
    lead tuple at a time."""
    return int(np.count_nonzero(~problem._divides[list(positions)].any(axis=0)))


def reference_bound_tree(problem, r):
    """groups(js) of the library's `_bound_tree`, each leaf scored alone by
    `_footprint_survivors`: (bound, j) pairs, best first, the higher lead
    index first on equal bounds."""
    ordered = {}

    def groups(js):
        if js not in ordered:
            level = len(js)
            start = js[-1] + 1 if js else 0
            stop = problem._realized - (r - level) + 1
            bounds = []
            for j in range(start, stop):
                if level == r - 1:
                    bounds.append((_footprint_survivors(problem, js + (j,)), j))
                else:
                    bounds.append((groups(js + (j,))[0][0], j))
            ordered[js] = sorted(bounds, reverse=True)
        return ordered[js]

    return groups


def outer_narrow(proj, row, q):
    """From `proj`, the residue map modulo some V, the one modulo
    span(V, row) by the outer-product pivot update; None when row lies in
    V."""
    res = (row @ proj) % q
    if not res.any():
        return None
    piv = int(np.argmax(res != 0))
    norm = (res * pow(int(res[piv]), q - 2, q)) % q
    return (proj - np.outer(proj[:, piv], norm)) % q


def monic_walk_search(problem, r, budget, chunk=1 << 13):
    """(max zeros, witness rows) of the RGHW branch and bound, scoring whole
    coefficient rows times the evaluation matrix, `chunk` rows at a time.

    The same lead groups, visit order and stops as the library search; the
    candidates of a group are scored as `(rows @ E) % q` and `(rows @ proj)
    % q`, charged to the budget chunk by chunk.  L2 is reduced by its own
    `rref_mod` of `_basis2`, the L1 coordinates of its basis.
    """
    q = problem.q
    k1 = problem.k1
    e_matrix = problem._E
    groups = reference_bound_tree(problem, r)
    l2_red, l2_pivots = rref_mod(problem._basis2, q)
    counter = 0
    best_zeros = -1
    best_rows = None

    def extend(js, alive, red, pivots, chosen):
        nonlocal counter, best_zeros, best_rows
        proj = reduce_rows(np.eye(k1, dtype=np.int64), red, pivots, q)
        e_alive = e_matrix[:, alive]
        for bound, j in groups(js):
            if bound <= best_zeros:
                break
            for span in monic_spans(q, k1, [j], chunk):
                counter += span[2] - span[1]
                if counter > budget:
                    raise BudgetExceededError(counter, budget, "candidate enumeration")
                rows = monic_rows(q, k1, *span)
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

    extend((), np.arange(e_matrix.shape[1]), list(l2_red), list(l2_pivots), [])
    return best_zeros, best_rows


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


def support(rows):
    """Set of 1-based indices of the columns where some row is nonzero."""
    a = np.asarray(rows, dtype=np.int64)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    if a.shape[0] == 0:
        return set()
    cols = np.nonzero(np.any(a != 0, axis=0))[0]
    return {int(c) + 1 for c in cols}


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


def loop_definition_oracle(code1, code2, r, budget):
    """M_r(C1, C2) from the definition, one subcode per iteration: the
    reference for the batched `rghw_definition_oracle`.

    The same checks in the same order, then every reduced echelon
    coefficient matrix of rank r, pivot pattern by pivot pattern; a subcode
    whose words reduced modulo C2 have rank below r meets C2 and is skipped.
    """
    q = code1.field.q
    k1 = code1.k
    g1 = code1.rows
    if code1.rank < k1:
        raise ValueError("generator matrix of C1 must have full rank")
    if code2 is None or code2.k == 0:
        g2r = np.zeros((0, code1.n), dtype=np.int64)
        piv2 = []
    else:
        if code2.field != code1.field or code2.n != code1.n:
            raise DimensionMismatchError("codes of different fields or lengths")
        g2r, piv2 = rref_mod(code2.rows, q)
        if rank_mod(np.vstack([g1, g2r]), q) != k1:
            raise ValueError("C2 is not a subcode of C1")
    k2 = g2r.shape[0]
    if not 1 <= r <= k1 - k2:
        raise ValueError(f"r must be between 1 and {k1 - k2}, got {r}")
    check_int64_products(q, k1)
    total = gaussian_binomial(k1, r, q)
    if total > budget:
        raise BudgetExceededError(total, budget, "subcode enumeration")
    best = None
    for pivs in combinations(range(k1), r):
        free = [
            (t, j) for t in range(r) for j in range(pivs[t] + 1, k1) if j not in pivs
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


def evaluate_at(f, point):
    """Value of f at one point, term by term with Python integers."""
    q = f.field.q
    coords = [x % q for x in point]
    acc = 0
    for mono, c in f.terms.items():
        v = c
        for x, e in zip(coords, mono):
            if e:
                v = (v * pow(x, e, q)) % q
        acc = (acc + v) % q
    return acc


def brute_variety_count(points, polys):
    """Number of common zeros among the points, by direct evaluation."""
    count = 0
    for point in points:
        if all(evaluate_at(f, point) == 0 for f in polys):
            count += 1
    return count


def brute_max_zero_count(rows, q):
    """Largest number of zero coordinates over the nonzero span vectors."""
    return max(
        sum(1 for value in v if not value)
        for v in span_vectors(rows, q)
        if any(v)
    )


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
    l2 = problem._basis2.tolist()
    leads = set()
    for coeffs in product(range(q), repeat=problem.k1):
        if pp_rank(l2 + [list(coeffs)], q) == problem.k2:
            continue  # zero, or in L2
        f = problem.poly_from_coefficients(coeffs)
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
    l2 = problem._basis2.tolist()

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


def lead_set_difference(problem):
    """Lead monomials realized by L1 \\ L2, in decreasing order.

    A basis lead m_i belongs to the set exactly when the subspace of L1
    elements with lead at most m_i is not contained in L2; those subspaces
    shrink as i grows, so the set is the first `_realized` basis leads.
    """
    return problem.space1.leads()[: problem._realized]


def brute_relative_footprint(problem, r):
    """RFP_r from monomial footprints of in I(X) plus r realized leads."""
    from evalcodes import footprint, monomial_footprint

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


def loop_buchberger_moeller(points, order):
    """Reduced Groebner basis of I(X) by Buchberger-Moeller elimination, one
    stored row per Python iteration: the reference for the array
    elimination of `groebner._buchberger_moeller`.

    Monomials are popped in increasing order from a heap seeded with 1; each
    evaluation row carries its tag (coefficients on the standard monomials,
    then a 1 for the monomial itself) and is reduced against the stored
    rows in turn.  A row whose evaluations vanish yields a generator read
    off the tag, any other row is stored normalized at its first nonzero
    evaluation and its monomial becomes standard.
    """
    field = points.field
    q = field.q
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


def division_degree_with_F(gb, F):
    """(deg S/(I + (F)), footprint bound) by one division per standard
    monomial and member of F: the reference for `degree_with_F`.

    The footprint is walked from 1 in increasing order; each NF(u f) is
    NF(t_i NF((u / t_i) f)) from its parent, for the first t_i dividing u,
    and the degree is |footprint| minus the rank of their coordinate rows.
    """
    _check_F(F)
    nonzero = [f for f in F if not f.is_zero()]
    images = {}
    for u in footprint(gb):
        if not any(u):
            images[u] = [normal_form(f, gb) for f in nonzero]
            continue
        i = next(i for i, e in enumerate(u) if e)
        step = tuple(int(j == i) for j in range(gb.nvars))
        parent = tuple(e - d for e, d in zip(u, step))
        images[u] = [normal_form(g.term_mul(step), gb) for g in images[parent]]
    rows = [[g.coeff(v) for v in images] for gs in images.values() for g in gs]
    exact = len(images) - (rank_mod(rows, gb.field.q) if rows else 0)
    in_F = [f.lead_monomial(gb.order) for f in nonzero]
    divided = divisibility_table(in_F, list(images), gb.nvars).any(axis=0)
    return exact, int(np.count_nonzero(~divided))


def degree_zero_dim(gb):
    """deg(S/I) for a zero dimensional ideal: the footprint cardinality."""
    return len(footprint(gb))


def hilbert_affine(gb, d):
    """Affine Hilbert function: standard monomials of total degree <= d."""
    if d < 0:
        return 0
    return sum(1 for m in footprint(gb) if total_degree(m) <= d)


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
