"""Prime field arithmetic.

Elements of GF(q) are stored as canonical residues in [0, q).  Arithmetic
wraps plain integer arithmetic mod q; inverses use Fermat's little theorem.
Only prime q is supported.

The numpy code paths hold residues in int64 and form sums of products of two
residues, so they need terms * (q - 1)^2 < 2^63 for the number of products
summed; `check_int64_products` refuses fields outside that limit instead of
letting the arithmetic wrap silently.  `rref_mod` is the one GF(q) row
reduction: polynomial spaces, generator matrices and the RGHW search all
eliminate through it and `reduce_rows`.
"""

import numpy as np

from .errors import DimensionMismatchError, FieldMismatchError


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


def _is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class PrimeField:
    """The field GF(q) for prime q."""

    def __init__(self, q):
        if not isinstance(q, int) or not _is_prime(q):
            raise ValueError(f"field size must be a prime integer, got {q!r}")
        self.q = q

    def __eq__(self, other):
        return isinstance(other, PrimeField) and self.q == other.q

    def __hash__(self):
        return hash(("PrimeField", self.q))

    def __repr__(self):
        return f"PrimeField({self.q})"

    def __call__(self, value):
        """Canonical element for any integer value."""
        return FieldElement(self, value % self.q)

    def zero(self):
        return FieldElement(self, 0)

    def one(self):
        return FieldElement(self, 1)

    def elements(self):
        """All field elements in residue order."""
        return [FieldElement(self, v) for v in range(self.q)]

    def nonzero_elements(self):
        """The multiplicative group, in residue order 1, 2, ..., q-1."""
        return [FieldElement(self, v) for v in range(1, self.q)]

    def inv(self, value):
        """Inverse of an integer residue, as an integer in [1, q)."""
        v = value % self.q
        if v == 0:
            raise ZeroDivisionError("0 has no inverse")
        return pow(v, self.q - 2, self.q)


class FieldElement:
    """An element of a PrimeField, stored as a residue in [0, q)."""

    __slots__ = ("field", "value")

    def __init__(self, field, value):
        self.field = field
        self.value = value % field.q

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise FieldMismatchError(
                    f"elements of {self.field} and {other.field} cannot mix"
                )
            return other.value
        if isinstance(other, int):
            return other % self.field.q
        return NotImplemented

    def __add__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.value + v)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.value - v)

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, v - self.value)

    def __mul__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.value * v)

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.value * self.field.inv(v))

    def __rtruediv__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, v * self.field.inv(self.value))

    def __neg__(self):
        return FieldElement(self.field, -self.value)

    def inv(self):
        return FieldElement(self.field, self.field.inv(self.value))

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.field == other.field and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.field.q
        return NotImplemented

    def __hash__(self):
        return hash((self.field.q, self.value))

    def __bool__(self):
        return self.value != 0

    def __int__(self):
        return self.value

    def __repr__(self):
        return f"{self.value}"
