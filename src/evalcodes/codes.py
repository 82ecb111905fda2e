"""Evaluation codes and weight statistics.

An evaluation code is the image of a polynomial space under evaluation at a
point set.  Generator matrices live over GF(q) as int64 arrays with
entries in [0, q), which needs (q - 1)^2 < 2^63 (see
`field.check_int64_products`).  One kernel enumerates for both the weight
distribution and the RGHW search: `_monic_spans` walks chunk spans of monic
coefficient rows (first nonzero entry 1) in odometer order, `_monic_rows`
builds them.  Weight enumeration walks monic rows, budgeted as q^k words.
"""

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import (
    BudgetExceededError,
    DimensionMismatchError,
    FieldMismatchError,
    NonInjectiveEvaluationError,
)
from .field import check_int64_products, rank_mod
from .groebner import normal_form
from .poly import echelonize

DEFAULT_BUDGET = 10**7
# Rows per enumeration chunk, for weight enumeration and the RGHW search.
_CHUNK = 1 << 13


class GeneratorMatrix:
    """A k x n matrix over GF(q) with entries stored as residues."""

    def __init__(self, field, rows, n=None):
        check_int64_products(field.q, what="a generator matrix")
        self.field = field
        a = np.asarray(rows, dtype=np.int64)
        if a.size == 0:
            a = a.reshape(0, n if n is not None else 0)
        if a.ndim != 2:
            raise DimensionMismatchError("generator matrix must be 2d")
        self.rows = a % field.q
        self._rank = None

    @property
    def k(self):
        return self.rows.shape[0]

    @property
    def n(self):
        return self.rows.shape[1]

    @property
    def rank(self):
        if self._rank is None:
            self._rank = rank_mod(self.rows, self.field.q)
        return self._rank

    def tolist(self):
        return [[int(v) for v in row] for row in self.rows]

    def __eq__(self, other):
        return (
            isinstance(other, GeneratorMatrix)
            and self.field == other.field
            and self.rows.shape == other.rows.shape
            and bool(np.all(self.rows == other.rows))
        )

    def __repr__(self):
        return f"GeneratorMatrix(q={self.field.q}, k={self.k}, n={self.n})"


class EvaluationCode:
    """Image of a polynomial space under evaluation at a point set."""

    def __init__(self, space, points, matrix):
        self.space = space
        self.points = points
        self.matrix = matrix

    @property
    def n(self):
        return self.matrix.n

    @property
    def k(self):
        return self.matrix.k

    @property
    def field(self):
        return self.points.field

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
    matrix = GeneratorMatrix(
        points.field, points.evaluate(space.basis), n=len(points)
    )
    if matrix.rank < space.dim:
        raise NonInjectiveEvaluationError(
            "evaluation is not injective on the space; standardize it first"
        )
    return EvaluationCode(space, points, matrix)


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


def support(rows):
    """Set of 1-based indices of the columns where some row is nonzero."""
    if isinstance(rows, GeneratorMatrix):
        a = rows.rows
    else:
        a = np.asarray(rows, dtype=np.int64)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    if a.shape[0] == 0:
        return set()
    cols = np.nonzero(np.any(a != 0, axis=0))[0]
    return {int(c) + 1 for c in cols}


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


def _monic_rows(q, k, lead, lo, hi):
    """Monic coefficient rows lo..hi-1 with the given lead position.

    Row i has zeros before `lead`, a 1 at `lead` and the base-q digits of
    lo + i after it, most significant first (odometer order).
    """
    free = k - lead - 1
    rows = np.zeros((hi - lo, k), dtype=np.int64)
    rows[:, lead] = 1
    idx = np.arange(lo, hi, dtype=np.int64)
    for t in range(free):
        power = q ** (free - 1 - t)
        if power < hi:  # otherwise the digit is 0 for every index below hi
            rows[:, lead + 1 + t] = (idx // power) % q
    return rows


def _monic_spans(q, k, leads):
    """Spans (lead, lo, hi) of at most _CHUNK monic rows for each lead, in
    odometer order; only the last span of a lead may be short."""
    for lead in leads:
        total = q ** (k - lead - 1)
        for lo in range(0, total, _CHUNK):
            yield lead, lo, min(lo + _CHUNK, total)


def enumeration_size(q, k, budget):
    """q^k, after the checks of a weight distribution in their order:
    ValueError when k * (q - 1)^2 >= 2^63, BudgetExceededError when q^k
    exceeds the budget, then ValueError when q^k >= 2^63."""
    check_int64_products(q, max(k, 1), what="codeword enumeration")
    total = q**k
    if total > budget:
        raise BudgetExceededError(total, budget, "codeword enumeration")
    if total >= 2**63:
        raise ValueError(
            f"codeword enumeration indexes q^k codewords in int64 and needs"
            f" q^k < 2^63; {q}^{k} is too large"
        )
    return total


def weight_distribution(code, budget=DEFAULT_BUDGET, threads=None):
    """Exact weight distribution over all q^k coefficient vectors.

    Each nonzero vector is a nonzero multiple of exactly one monic vector,
    of the same weight, so the monic histogram times q - 1 plus the zero
    vector counts each vector once, also for rank deficient matrices.  The
    monic chunks are mapped over one pool of `threads` workers (None: the
    CPUs this process may run on), or walked on the calling thread when
    threads == 1 or when all (q^k - 1)/(q - 1) monic rows fit in one chunk.
    Sums do not depend on the thread count.  Raises as `enumeration_size`.
    """
    q = code.field.q
    k = code.k
    n = code.n
    total = enumeration_size(q, k, budget)
    if threads is None:
        affinity = getattr(os, "sched_getaffinity", None)
        threads = len(affinity(0)) if affinity else os.cpu_count() or 1
    elif threads < 1:
        raise ValueError("threads must be at least 1")
    g = code.matrix.rows

    def chunk_hist(span):
        weights = np.count_nonzero((_monic_rows(q, k, *span) @ g) % q, axis=1)
        return np.bincount(weights, minlength=n + 1)

    spans = _monic_spans(q, k, range(k))
    hist = np.zeros(n + 1, dtype=np.int64)
    if threads == 1 or (total - 1) // (q - 1) <= _CHUNK:
        hist = sum(map(chunk_hist, spans), hist)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            hist = sum(pool.map(chunk_hist, spans), hist)
    hist *= q - 1
    hist[0] += 1
    distribution = {w: int(c) for w, c in enumerate(hist) if c}
    return WeightProfile(n, q, k, distribution)


def next_to_minimal(code_or_profile, budget=DEFAULT_BUDGET, threads=None):
    """Second smallest weight value of the code.

    Convention: the maximum over an empty set of zero counts is zero, so a
    code with a single nonzero weight value reports its length n.
    """
    if isinstance(code_or_profile, WeightProfile):
        profile = code_or_profile
    else:
        profile = weight_distribution(code_or_profile, budget, threads)
    weights = profile.distinct_weights
    if not weights:
        raise ValueError("the zero code has no next-to-minimal weight")
    if len(weights) == 1:
        return profile.n
    return weights[1]
