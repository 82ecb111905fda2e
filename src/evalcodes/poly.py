"""Multivariate polynomials over a prime field.

Monomials are exponent tuples of length s for variables t1, ..., ts, with
t1 > t2 > ... > ts in every supported order.  A Polynomial stores a map
from exponent tuple to nonzero coefficient residue.  PolySpace is a finite
dimensional subspace held as a fully reduced echelon basis with strictly
decreasing lead monomials.
"""

from .errors import DimensionMismatchError, FieldMismatchError, ZeroPolynomialError
from .field import FieldElement, rref_mod


def total_degree(m):
    return sum(m)


def monomial_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def monomial_divides(a, b):
    """True when a divides b."""
    return all(x <= y for x, y in zip(a, b))


def monomial_div(a, b):
    """Quotient a / b; requires b | a."""
    if not monomial_divides(b, a):
        raise ValueError(f"{b} does not divide {a}")
    return tuple(x - y for x, y in zip(a, b))


def monomial_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


class MonomialOrder:
    """A monomial order given by a sort key; larger key means larger monomial."""

    def __init__(self, name, keyfunc):
        self.name = name
        self._key = keyfunc

    def key(self, m):
        return self._key(m)

    def compare(self, a, b):
        """-1, 0 or +1 as a <, =, > b in this order."""
        if len(a) != len(b):
            raise DimensionMismatchError("monomials of different arity")
        ka, kb = self._key(a), self._key(b)
        return (ka > kb) - (ka < kb)

    def max(self, monomials):
        return max(monomials, key=self._key)

    def sorted(self, monomials, reverse=False):
        return sorted(monomials, key=self._key, reverse=reverse)

    def __repr__(self):
        return f"MonomialOrder({self.name!r})"


LEX = MonomialOrder("lex", lambda m: tuple(m))
GRLEX = MonomialOrder("grlex", lambda m: (sum(m), tuple(m)))
GREVLEX = MonomialOrder(
    "grevlex", lambda m: (sum(m), tuple(-e for e in reversed(m)))
)

_ORDERS = {o.name: o for o in (LEX, GRLEX, GREVLEX)}


def order_by_name(name):
    try:
        return _ORDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown monomial order {name!r}; expected one of {sorted(_ORDERS)}"
        ) from None


class Polynomial:
    """A polynomial with coefficients in a prime field.

    terms maps exponent tuples to coefficient residues in [1, q); zero
    coefficients are never stored, so equal polynomials have equal dicts.
    """

    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field, nvars, terms):
        self.field = field
        self.nvars = nvars
        clean = {}
        for mono, coeff in terms.items():
            if len(mono) != nvars or any(e < 0 for e in mono):
                raise DimensionMismatchError(
                    f"exponent tuple {mono} invalid for {nvars} variables"
                )
            c = int(coeff) % field.q
            if c:
                clean[tuple(mono)] = c
        self.terms = clean

    @classmethod
    def zero(cls, field, nvars):
        return cls(field, nvars, {})

    @classmethod
    def constant(cls, field, nvars, value):
        return cls(field, nvars, {(0,) * nvars: value})

    @classmethod
    def monomial(cls, field, mono, coeff=1):
        return cls(field, len(mono), {tuple(mono): coeff})

    def _check(self, other):
        if self.field != other.field:
            raise FieldMismatchError("polynomials over different fields")
        if self.nvars != other.nvars:
            raise DimensionMismatchError("polynomials in different variable counts")

    def is_zero(self):
        return not self.terms

    @property
    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(total_degree(m) for m in self.terms)

    def coeff(self, mono):
        return self.terms.get(tuple(mono), 0)

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        q = self.field.q
        for m, c in other.terms.items():
            v = (out.get(m, 0) + c) % q
            if v:
                out[m] = v
            else:
                out.pop(m, None)
        return Polynomial(self.field, self.nvars, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        q = self.field.q
        return Polynomial(
            self.field, self.nvars, {m: q - c for m, c in self.terms.items()}
        )

    def scale(self, c):
        c = int(c) % self.field.q
        if c == 0:
            return Polynomial.zero(self.field, self.nvars)
        return Polynomial(
            self.field, self.nvars, {m: (v * c) for m, v in self.terms.items()}
        )

    def term_mul(self, mono, coeff=1):
        """Multiply by the single term coeff * t^mono."""
        c = int(coeff) % self.field.q
        if c == 0:
            return Polynomial.zero(self.field, self.nvars)
        return Polynomial(
            self.field,
            self.nvars,
            {monomial_mul(m, mono): v * c for m, v in self.terms.items()},
        )

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        if isinstance(other, FieldElement):
            return self.scale(other.value)
        self._check(other)
        out = {}
        q = self.field.q
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = monomial_mul(m1, m2)
                v = (out.get(m, 0) + c1 * c2) % q
                if v:
                    out[m] = v
                else:
                    out.pop(m, None)
        return Polynomial(self.field, self.nvars, out)

    __rmul__ = __mul__

    def lead_monomial(self, order):
        if not self.terms:
            raise ZeroPolynomialError("the zero polynomial has no lead monomial")
        return order.max(self.terms)

    def lead_coeff(self, order):
        return self.terms[self.lead_monomial(order)]

    def monic(self, order):
        inv = self.field.inv(self.lead_coeff(order))
        return self.scale(inv)

    def evaluate(self, point):
        """Value at a point given as a tuple of integers or field elements."""
        if len(point) != self.nvars:
            raise DimensionMismatchError(
                f"point of length {len(point)} for {self.nvars} variables"
            )
        q = self.field.q
        coords = [int(x) % q for x in point]
        acc = 0
        for mono, c in self.terms.items():
            v = c
            for x, e in zip(coords, mono):
                if e:
                    v = (v * pow(x, e, q)) % q
            acc = (acc + v) % q
        return FieldElement(self.field, acc)

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.field == other.field
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.field.q, self.nvars, frozenset(self.terms.items())))

    def __str__(self):
        return format_polynomial(self)

    def __repr__(self):
        return f"Polynomial({self.field.q}, {format_polynomial(self)!r})"


def format_polynomial(f, order=GREVLEX):
    """Canonical text form, terms in decreasing order, symmetric coefficients."""
    if not f.terms:
        return "0"
    q = f.field.q
    parts = []
    for mono in order.sorted(f.terms, reverse=True):
        c = f.terms[mono]
        disp = c if c <= q // 2 else c - q
        neg = disp < 0
        mag = abs(disp)
        factors = []
        for i, e in enumerate(mono):
            if e == 1:
                factors.append(f"t{i + 1}")
            elif e > 1:
                factors.append(f"t{i + 1}^{e}")
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        parts.append((neg, body))
    first_neg, first_body = parts[0]
    pieces = [("-" if first_neg else "") + first_body]
    for neg, body in parts[1:]:
        pieces.append(("- " if neg else "+ ") + body)
    return " ".join(pieces)


def divide(f, divisors, order):
    """Multivariate division of f by a list of divisors.

    Returns (quotients, remainder) with f = sum(q_i * g_i) + remainder, no
    remainder monomial divisible by any divisor lead, and every product
    q_i * g_i having lead at most the lead of f.
    """
    if not divisors:
        raise ValueError("divisor list is empty")
    for g in divisors:
        if g.is_zero():
            raise ZeroPolynomialError("cannot divide by the zero polynomial")
        f._check(g)
    leads = [(g.lead_monomial(order), g.lead_coeff(order)) for g in divisors]
    quots = [Polynomial.zero(f.field, f.nvars) for _ in divisors]
    rem = Polynomial.zero(f.field, f.nvars)
    p = f
    q = f.field.q
    while not p.is_zero():
        pm = p.lead_monomial(order)
        pc = p.terms[pm]
        for i, (gm, gc) in enumerate(leads):
            if monomial_divides(gm, pm):
                t = monomial_div(pm, gm)
                c = (pc * f.field.inv(gc)) % q
                quots[i] = quots[i] + Polynomial.monomial(f.field, t, c)
                p = p - divisors[i].term_mul(t, c)
                break
        else:
            rem = rem + Polynomial.monomial(f.field, pm, pc)
            p = p - Polynomial.monomial(f.field, pm, pc)
    return quots, rem


class PolySpace:
    """A subspace of polynomials with a fully reduced echelon basis.

    Basis elements are monic with strictly decreasing lead monomials, and no
    basis element contains another basis element's lead among its terms.
    """

    def __init__(self, field, nvars, order, basis):
        self.field = field
        self.nvars = nvars
        self.order = order
        self.basis = list(basis)

    @classmethod
    def empty(cls, field, nvars, order):
        return cls(field, nvars, order, [])

    @property
    def dim(self):
        return len(self.basis)

    def leads(self):
        return [b.lead_monomial(self.order) for b in self.basis]

    def contains(self, f):
        return self.coordinates(f) is not None

    def coordinates(self, f):
        """Coefficients of f on the basis, or None when f is outside."""
        coords = []
        r = f
        for b in self.basis:
            c = r.coeff(b.lead_monomial(self.order))
            coords.append(c)
            if c:
                r = r - b.scale(c)
        if not r.is_zero():
            return None
        return coords

    def __eq__(self, other):
        return (
            isinstance(other, PolySpace)
            and self.field == other.field
            and self.nvars == other.nvars
            and self.basis == other.basis
        )

    def __repr__(self):
        return f"PolySpace(dim={self.dim}, order={self.order.name})"


def echelonize(polys, order, field=None, nvars=None):
    """Row reduce a list of polynomials into a PolySpace.

    Zero polynomials are discarded; the span is preserved exactly.  field and
    nvars are only needed when polys is empty.  The coefficient matrix over
    the monomials in decreasing order goes through `rref_mod`, whose
    (q - 1)^2 < 2^63 limit applies.
    """
    polys = [p for p in polys if not p.is_zero()]
    if not polys:
        if field is None or nvars is None:
            raise ValueError("empty input needs explicit field and nvars")
        return PolySpace.empty(field, nvars, order)
    field = polys[0].field
    nvars = polys[0].nvars
    for p in polys:
        polys[0]._check(p)
    cols = order.sorted({m for p in polys for m in p.terms}, reverse=True)
    rows = [[p.terms.get(m, 0) for m in cols] for p in polys]
    reduced, _ = rref_mod(rows, field.q)
    basis = [
        Polynomial(field, nvars, {m: c for m, c in zip(cols, row) if c})
        for row in reduced.tolist()
    ]
    return PolySpace(field, nvars, order, basis)
