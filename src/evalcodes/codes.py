"""Evaluation codes and weight statistics.

An evaluation code is the image of a polynomial space under evaluation at a
point set; `EvaluationCode` holds its generator matrix over GF(q) as an
int64 array with entries in [0, q), which needs (q - 1)^2 < 2^63 (see
`field.check_int64_products`).  One zero-count walk, `_ZeroTable.zero_counts`,
serves both the weight distribution and the RGHW search.  A monic
coefficient row (first nonzero entry 1) splits after its lead into a high
prefix h and l low digits with q^l <= _CHUNK.  Its word is a_h + B_i mod q,
where a_h comes from the lead and the prefix, and the table of low-digit
words B, a `_ZeroTable`, is shared by every lead.  The word is zero exactly
where B_i == -a_h mod q, so a zero count is n byte compares.  Weight
enumeration walks the monic rows of the smaller of C and its dual, after
one row reduction of the generator matrix gives the rank rho: a basis of C
when rho <= n - rho, else the parity-check matrix, whose distribution the
MacWilliams identity turns into that of C.  It is budgeted as
q^min(rho, n - rho) words and runs on the calling thread.
"""

import numpy as np

from .errors import (
    BudgetExceededError,
    DimensionMismatchError,
    FieldMismatchError,
    NonInjectiveEvaluationError,
)
from .field import check_int64_products, rref_mod
from .groebner import normal_form
from .poly import echelonize

DEFAULT_BUDGET = 10**7
# Most words per table comparison, for weight enumeration and the RGHW
# search: q^l <= _CHUNK for the l low digits of the table kernel.
_CHUNK = 1 << 13
# Words per batch of prefixes that `_ZeroTable.zero_counts` counts at once,
# for weight enumeration and the RGHW search.
_BATCH = 1 << 15


class EvaluationCode:
    """A code given by its k x n generator matrix over GF(q).

    `rows` is stored as int64 residues in [0, q), which needs
    (q - 1)^2 < 2^63.
    """

    def __init__(self, field, rows, n=None):
        check_int64_products(field.q, what="a generator matrix")
        a = np.asarray(rows, dtype=np.int64)
        if a.size == 0:
            a = a.reshape(0, n if n is not None else 0)
        if a.ndim != 2:
            raise DimensionMismatchError("generator matrix must be 2d")
        self.field = field
        self.rows = a % field.q
        self._reduced = None

    @property
    def k(self):
        return self.rows.shape[0]

    @property
    def n(self):
        return self.rows.shape[1]

    @property
    def reduced(self):
        """(reduced echelon rows, pivot columns) of the generator matrix,
        from one `rref_mod`, kept for the rank and the weight distribution."""
        if self._reduced is None:
            self._reduced = rref_mod(self.rows, self.field.q)
        return self._reduced

    @property
    def rank(self):
        return self.reduced[0].shape[0]

    def __repr__(self):
        return f"EvaluationCode(q={self.field.q}, n={self.n}, k={self.k})"


def evaluate_space(space, points):
    """Evaluate a polynomial space at a point set.

    The generator matrix has one row per basis polynomial, its values at
    the points from `PointSet.evaluate`.  The space must evaluate
    injectively; otherwise the caller should standardize it against the
    vanishing ideal first.
    """
    if space.field != points.field:
        raise FieldMismatchError("space and points over different fields")
    if space.nvars != points.nvars:
        raise DimensionMismatchError("space and points in different arities")
    code = EvaluationCode(points.field, points.evaluate(space.basis), len(points))
    if code.rank < space.dim:
        raise NonInjectiveEvaluationError(
            "evaluation is not injective on the space; standardize it first"
        )
    return code


def standardize(space, gb):
    """The span of the normal forms of the generators, echelonized in gb.order.

    `space` is a PolySpace or a list of polynomials.  Normal forms are
    linear and the reduced echelon basis of a span is unique, so one
    elimination gives the standardized basis whatever generators span the
    space and whatever order a PolySpace was echelonized in.  The evaluation
    image on the basis point set is unchanged, and the result consists of
    standard monomial combinations only, so evaluation becomes injective on
    it.  Its leads are leads in gb.order, as the footprint bound needs.
    """
    reduced = [normal_form(f, gb) for f in getattr(space, "basis", space)]
    return echelonize(reduced, gb.order, field=gb.field, nvars=gb.nvars)


class WeightProfile:
    """Weight distribution of a code: counts of codewords per weight."""

    def __init__(self, n, q, k, distribution):
        self.n = n
        self.q = q
        self.k = k
        self.distribution = dict(distribution)

    @property
    def distinct_weights(self):
        """Sorted weights of nonzero codewords."""
        return sorted(w for w, c in self.distribution.items() if w > 0 and c > 0)

    @property
    def minimum_distance(self):
        weights = self.distinct_weights
        if not weights:
            raise ValueError("the zero code has no minimum distance")
        return weights[0]

    def total(self):
        return sum(self.distribution.values())

    def __eq__(self, other):
        return (
            isinstance(other, WeightProfile)
            and (self.n, self.q, self.k) == (other.n, other.q, other.k)
            and self.distribution == other.distribution
        )

    def __repr__(self):
        return f"WeightProfile(n={self.n}, k={self.k}, {self.distribution})"


def _digits(q, width, lo, hi):
    """Base-q digits of lo..hi-1, `width` per row, most significant first."""
    idx = np.arange(lo, hi, dtype=np.int64)
    out = np.zeros((hi - lo, width), dtype=np.int64)
    for t in range(width):
        power = q ** (width - 1 - t)
        if power < hi:  # otherwise the digit is 0 for every index below hi
            out[:, t] = (idx // power) % q
    return out


def _monic_row(q, k, lead, index):
    """Monic coefficient row number `index` of its lead, in odometer order.

    Zeros before `lead`, a 1 at `lead` and the base-q digits of index
    after it, most significant first.
    """
    row = np.zeros(k, dtype=np.int64)
    row[lead] = 1
    row[lead + 1 :] = _digits(q, k - lead - 1, index, index + 1)[0]
    return row


def _count_equal(low, targets):
    """Entries of each column of `low` equal to `targets`, for an
    ncols x L table and targets of shape (..., ncols); shape (..., L).

    Byte compares, summed down the columns in the smallest unsigned dtype
    that holds ncols: row after contiguous row of L bytes, which vectorizes.
    """
    equal = low == targets[..., None]
    width = np.min_scalar_type(low.shape[0])
    return np.add.reduce(equal.view(np.uint8), axis=-2, dtype=width)


class _ZeroTable:
    """The table kernel over the rows of a k x ncols matrix mod q.

    The monic row number h * q^l + i of a lead has the word a_h + B_i mod q,
    where a_h = matrix[lead] + (digits of h) @ matrix[lead + 1 : k - l] and
    B_i, column i of low(l), is the word of low-digit row i.  The word is
    zero exactly where B_i equals `targets(...)`, which is -a_h mod q.  The
    table is stored one row per column of the matrix, so compares and sums
    run along contiguous rows of q^l entries, in the smallest unsigned
    dtype that holds q - 1, and grown in the smallest one that holds
    2(q - 1).
    """

    def __init__(self, matrix, q):
        self.matrix = matrix
        self.q = q
        self.dtype = np.min_scalar_type(q - 1)
        self._wide = np.min_scalar_type(2 * (q - 1))
        self._table = np.zeros((matrix.shape[1], 1), dtype=self.dtype)
        self._depth = 0

    def low(self, depth):
        """The ncols x q^depth table whose column i is (digits of i) @ the
        last `depth` rows of the matrix, mod q.  Grown one more significant
        digit at a time, and only as deep as asked; a shallower table is a
        leading slice of the columns of a deeper one.  A sum s of two
        residues is reduced as min(s, s - q): below q the unsigned
        difference wraps above s."""
        q = self.q
        k, ncols = self.matrix.shape
        while self._depth < depth:
            row = self.matrix[k - 1 - self._depth]
            multiples = (np.outer(row, np.arange(q)) % q).astype(self._wide)
            grown = np.add(multiples[:, :, None], self._table[:, None, :])
            np.minimum(grown, grown - self._wide.type(q), out=grown)
            self._table = grown.reshape(ncols, -1).astype(self.dtype, copy=False)
            self._depth += 1
        return self._table[:, : q**depth]

    def targets(self, lead, depth, lo, hi):
        """-a_h mod q for the prefixes lo..hi-1 of the lead, one row each."""
        high = self.matrix[lead + 1 : self.matrix.shape[0] - depth]
        words = self.matrix[lead] + _digits(self.q, len(high), lo, hi) @ high
        return ((-words) % self.q).astype(self.dtype)

    def depth(self, lead):
        """l, the lead's number of low digits: the most of the digits after
        it with q^l <= _CHUNK."""
        free = self.matrix.shape[0] - lead - 1
        low = 0
        while low < free and self.q ** (low + 1) <= _CHUNK:
            low += 1
        return low

    def zero_counts(self, lead, columns=slice(None)):
        """Yield (first, counts) for the prefixes of the lead, in order, in
        batches of about _BATCH words: row j of counts holds the zero counts
        on `columns` of the q^depth monic rows numbered from
        first + j * q^depth."""
        depth = self.depth(lead)
        size = self.q**depth
        low = self.low(depth)[columns]
        prefixes = self.q ** (self.matrix.shape[0] - lead - 1 - depth)
        step = max(1, _BATCH // size)
        for lo in range(0, prefixes, step):
            targets = self.targets(lead, depth, lo, min(lo + step, prefixes))
            yield lo * size, _count_equal(low, targets[:, columns])


def enumeration_size(q, rank, n, budget):
    """q^k for the side k = min(rank, n - rank) that a weight distribution
    walks, the code or its dual, after its checks in their order:
    ValueError when k * (q - 1)^2 >= 2^63, BudgetExceededError when q^k
    exceeds the budget, then ValueError when q^k >= 2^63.  A k of at least
    budget.bit_length() is refused without forming q^k, which may be too
    large to build or to write out; the refusal names the count as q^k."""
    k = min(rank, n - rank)
    check_int64_products(q, max(k, 1), what="codeword enumeration")
    if k >= budget.bit_length():  # q^k >= 2^k > budget
        raise BudgetExceededError(f"{q}^{k}", budget, "codeword enumeration")
    total = q**k
    if total > budget:
        raise BudgetExceededError(total, budget, "codeword enumeration")
    if total >= 2**63:
        raise ValueError(
            f"codeword enumeration indexes q^k codewords in int64 and needs"
            f" q^k < 2^63; {q}^{k} is too large"
        )
    return total


def parity_check_matrix(code):
    """The (n - rho) x n parity-check matrix H of the code, from its reduced
    rows R with pivot columns P and free columns N: H[:, N] = I and
    H[:, P] = -R[:, N]^T, so R H^T = 0 and the rows of H span C^perp."""
    reduced, pivots = code.reduced
    q, n = code.field.q, code.n
    free = np.setdiff1d(np.arange(n), pivots)
    h = np.zeros((len(free), n), dtype=np.int64)
    h[np.arange(len(free)), free] = 1
    h[:, pivots] = (-reduced[:, free].T) % q
    return h


def _monic_walk(rows, q):
    """Codewords per weight, a list of n + 1 ints, over all q^k coefficient
    vectors of the k x n matrix `rows`.

    Each nonzero vector is a nonzero multiple of exactly one monic vector,
    of the same weight, so the monic histogram times q - 1 plus the zero
    vector counts each vector once.  The monic rows of each lead are
    counted by `_ZeroTable.zero_counts` in batches of about _BATCH words,
    several prefixes per broadcast.
    """
    k, n = rows.shape
    table = _ZeroTable(rows, q)
    hist = np.zeros(n + 1, dtype=np.int64)
    for lead in range(k):
        for _, counts in table.zero_counts(lead):
            hist += np.bincount(counts.ravel(), minlength=n + 1)
    hist = hist[::-1] * (q - 1)  # weight n - zeros
    hist[0] += 1
    return [int(c) for c in hist]


def _macwilliams(dual, q, dual_dim):
    """A_j = q^-dual_dim sum_i B_i K_j(i) for the dual counts B_i, in Python
    ints, with the Krawtchouk values K_j(i) of length n = len(dual) - 1 from
    (j + 1) K_{j+1} = ((n - j)(q - 1) + j - q i) K_j - (q - 1)(n - j + 1) K_{j-1},
    K_0 = 1 (MacWilliams and Sloane, ch. 5).  Raises RuntimeError when a
    sum is not a multiple of q^dual_dim, which exact counts always are."""
    n = len(dual) - 1
    sums = [0] * (n + 1)
    for i, count in enumerate(dual):
        if not count:
            continue
        before, k_j = 0, 1
        for j in range(n + 1):
            sums[j] += count * k_j
            term = ((n - j) * (q - 1) + j - q * i) * k_j
            before, k_j = k_j, (term - (q - 1) * (n - j + 1) * before) // (j + 1)
    size = q**dual_dim
    if any(total % size for total in sums):
        raise RuntimeError("internal inconsistency: MacWilliams sums not exact")
    return [total // size for total in sums]


def weight_distribution(code, budget=DEFAULT_BUDGET, threads=None):
    """Exact weight distribution over all q^k coefficient vectors.

    One row reduction gives the rank rho.  When rho <= n - rho the monic
    walk runs over the reduced rows, a basis of C; otherwise over the
    parity-check matrix, a basis of the dual, and the MacWilliams identity
    gives the counts of C.  Each codeword is the image of q^(k - rho)
    coefficient vectors, so the counts are scaled by that, also for rank
    deficient matrices.  `enumeration_size(q, rho, n, budget)` budgets the
    walk.  It runs on the calling thread: `threads` must be None or at
    least 1, and is otherwise ignored.
    """
    if threads is not None and threads < 1:
        raise ValueError("threads must be at least 1")
    q = code.field.q
    k = code.k
    n = code.n
    reduced, _ = code.reduced
    rho = reduced.shape[0]
    enumeration_size(q, rho, n, budget)
    dual = rho > n - rho
    rows = parity_check_matrix(code) if dual else reduced
    counts = _monic_walk(rows, q)
    if dual:
        counts = _macwilliams(counts, q, n - rho)
    scale = q ** (k - rho)
    distribution = {w: c * scale for w, c in enumerate(counts) if c}
    return WeightProfile(n, q, k, distribution)


def next_to_minimal(profile):
    """Second smallest weight value of a code, read off its WeightProfile.

    Convention: the maximum over an empty set of zero counts is zero, so a
    code with a single nonzero weight value reports its length n.
    """
    weights = profile.distinct_weights
    if not weights:
        raise ValueError("the zero code has no next-to-minimal weight")
    if len(weights) == 1:
        return profile.n
    return weights[1]
