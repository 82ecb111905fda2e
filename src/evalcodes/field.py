"""Prime field arithmetic.

Elements of GF(q) are plain int residues in [0, q), with no element type:
arithmetic is integer arithmetic mod q, and `PrimeField` holds q and the
inverse (Fermat's little theorem).  Only prime q is supported, below about
3.3 * 10^24, where the Miller-Rabin test of `_is_prime` is exact.

The numpy code paths hold residues in int64 and form sums of products of two
residues, so they need terms * (q - 1)^2 < 2^63 for the number of products
summed; `check_int64_products` refuses fields outside that limit instead of
letting the arithmetic wrap silently.  `matmul_mod` also takes int32
operands, which the Buchberger-Moeller elimination uses when its sums fit
them; it reduces between chunks of products sized by the operands' dtype,
so int64 operands need only (q - 1)^2 < 2^63.  `rref_mod` is the one GF(q)
row reduction: polynomial spaces, generator matrices and the RGHW search all
eliminate through it and `reduce_rows`.
"""

import numpy as np

from .errors import DimensionMismatchError


def check_int64_products(q, terms=1, what="int64 arithmetic"):
    """Raise ValueError unless terms * (q - 1)^2 < 2^63.

    A sum of `terms` products of two residues in [0, q) then fits in int64
    without wrapping.  With terms=1 the largest admissible prime is
    3037000493; for terms=2 it is 2147483647.
    """
    if terms * (q - 1) ** 2 >= 2**63:
        raise ValueError(
            f"{what} needs {terms} * (q - 1)^2 < 2^63; q = {q} is too large"
        )


def matmul_mod(a, b, q):
    """(a @ b) mod q for int32 or int64 residue arrays: a matrix times a
    vector, or a matrix or a vector times a matrix.

    Sums of up to floor((2^31 - 1 - q) / (q - 1)^2) products fit every
    operand dtype and are formed at once.  Longer ones reduce mod q after
    every chunk of floor((L - q) / (q - 1)^2) products, L the largest value
    of the product's dtype (2^31 - 1 when both operands are int32, else
    2^63 - 1), so a residue plus one chunk fits.  The int32 chunk is at
    least 1 whenever (q - 1)^2 + q < 2^31, exactly 1 at q = 46337; the int64
    chunk whenever (q - 1)^2 < 2^63, exactly 1 at q = 3037000493.  The
    dtype is read only past the first bound, so a short product costs no
    lookup.  A matrix times a vector and a vector times a matrix are summed
    by `np.einsum`, faster there than the integer `@`, which a matrix times
    a matrix goes through.
    """
    if b.ndim == 1:
        product = _matvec
    elif a.ndim == 1:
        product = _vecmat
    else:
        product = np.matmul
    inner = b.shape[0]
    if inner * (q - 1) ** 2 + q > 2**31 - 1:
        int32 = a.dtype == np.int32 and b.dtype == np.int32
        chunk = ((2**31 - 1 if int32 else 2**63 - 1) - q) // (q - 1) ** 2
        if inner > chunk:
            acc = 0
            for lo in range(0, inner, chunk):
                acc = (acc + product(a[..., lo : lo + chunk], b[lo : lo + chunk])) % q
            return acc
    return product(a, b) % q


def _matvec(a, b):
    return np.einsum("ij,j->i", a, b)


def _vecmat(a, b):
    return np.einsum("j,ji->i", a, b)


def rref_mod(rows, q):
    """Reduced row echelon form over GF(q): (matrix, pivot columns).

    Zero rows are dropped; pivot entries are 1 with zeros above and below.
    Raises ValueError when (q - 1)^2 >= 2^63, where the int64 elimination
    would wrap.
    """
    check_int64_products(q, what="row reduction")
    a = np.asarray(rows, dtype=np.int64) % q
    if a.ndim != 2:
        raise DimensionMismatchError("expected a 2d array")
    nrows, ncols = a.shape
    r = 0
    pivots = []
    for col in range(ncols):
        if r == nrows:
            break
        below = a[r:, col].nonzero()[0]
        if below.size == 0:
            continue
        piv = r + int(below[0])
        if piv != r:
            a[r], a[piv] = a[piv], a[r].copy()
        row = (a[r] * pow(int(a[r, col]), q - 2, q)) % q
        # Clears the column in every row, row r included; then restore it.
        a = (a - a[:, col, None] * row) % q
        a[r] = row
        pivots.append(col)
        r += 1
    return a[:r], pivots


def rank_mod(rows, q):
    reduced, _ = rref_mod(rows, q)
    return reduced.shape[0]


def reduce_rows(rows, rref, pivots, q):
    """Residues of rows after eliminating the pivots of a reduced basis."""
    res = np.asarray(rows, dtype=np.int64) % q
    for i, p in enumerate(pivots):
        res = (res - np.outer(res[:, p], rref[i])) % q
    return res


# Miller-Rabin with the thirteen prime bases 2..41 is exact below this bound,
# the least strong pseudoprime to all of them (Sorenson and Webster, "Strong
# pseudoprimes to twelve prime bases", Math. Comp. 86, 2017).  The bases
# 2..37 alone are fooled by 318665857834031151167461.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(n):
    """Primality of 0 <= n < _MR_LIMIT by Miller-Rabin on _MR_BASES."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, shift = n - 1, 0
    while d % 2 == 0:
        d, shift = d // 2, shift + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(shift - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The field GF(q) for prime q."""

    def __init__(self, q):
        if isinstance(q, int) and q >= _MR_LIMIT:
            raise ValueError(f"field size must be below {_MR_LIMIT}, got {q}")
        if not isinstance(q, int) or not _is_prime(q):
            raise ValueError(f"field size must be a prime integer, got {q!r}")
        self.q = q

    def __eq__(self, other):
        return isinstance(other, PrimeField) and self.q == other.q

    def __hash__(self):
        return hash(("PrimeField", self.q))

    def __repr__(self):
        return f"PrimeField({self.q})"

    def inv(self, value):
        """Inverse of an integer residue, as an integer in [1, q)."""
        v = value % self.q
        if v == 0:
            raise ZeroDivisionError("0 has no inverse")
        return pow(v, self.q - 2, self.q)
