"""Multivariate polynomials over a prime field.

Monomials are exponent tuples of length s for variables t1, ..., ts, with
t1 > t2 > ... > ts in every supported order.  A Polynomial stores a map
from exponent tuple to nonzero coefficient residue.  PolySpace is a finite
dimensional subspace held as a fully reduced echelon basis with strictly
decreasing lead monomials.
"""

import operator

import numpy as np

from .errors import DimensionMismatchError, FieldMismatchError, ZeroPolynomialError
from .field import rref_mod


def total_degree(m):
    return sum(m)


def monomial_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def monomial_divides(a, b):
    """True when a divides b."""
    return all(x <= y for x, y in zip(a, b))


def divisibility_table(leads, monos, nvars):
    """Boolean len(leads) x len(monos) table: lead i divides monomial j,
    one numpy comparison per lead row.

    Both are exponent vectors (tuples or array rows) of length nvars; any
    other length raises DimensionMismatchError.
    """
    leads = _exponent_array(leads, nvars)
    exps = _exponent_array(monos, nvars)
    table = np.empty((len(leads), len(exps)), dtype=bool)
    for row, lead in zip(table, leads):
        row[:] = (exps >= lead).all(axis=1)
    return table


def _exponent_array(monos, nvars):
    """The exponent vectors as a len(monos) x nvars int64 array."""
    if any(len(m) != nvars for m in monos):
        raise DimensionMismatchError(f"exponent vectors must have length {nvars}")
    return np.array(monos, dtype=np.int64).reshape(len(monos), nvars)


def monomials(bounds, low, high):
    """The exponent vectors e with 0 <= e_i < bounds[i] and low <= |e| <= high,
    as a list in lexicographic order.

    Built one coordinate at a time, keeping a prefix only when some
    completion still lands in the window, so every layer is at most as long
    as the output and the cost follows the output, not the box.
    """
    rest = sum(b - 1 for b in bounds)  # the most the coordinates left can add
    layer = [((), 0)] if max(low, 0) <= min(high, rest) else []
    for b in bounds:
        rest -= b - 1
        layer = [
            (prefix + (e,), total + e)
            for prefix, total in layer
            for e in range(max(0, low - total - rest), min(b - 1, high - total) + 1)
        ]
    return [prefix for prefix, _ in layer]


class MonomialOrder:
    """A monomial order given by a sort key; larger key means larger monomial.

    `key` is the key function itself, an attribute rather than a method, so
    the sorts and heaps that call it per monomial pay no extra call.
    """

    def __init__(self, name, keyfunc):
        self.name = name
        self.key = keyfunc

    def compare(self, a, b):
        """-1, 0 or +1 as a <, =, > b in this order."""
        if len(a) != len(b):
            raise DimensionMismatchError("monomials of different arity")
        ka, kb = self.key(a), self.key(b)
        return (ka > kb) - (ka < kb)

    def max(self, monomials):
        return max(monomials, key=self.key)

    def sorted(self, monomials, reverse=False):
        return sorted(monomials, key=self.key, reverse=reverse)

    def __repr__(self):
        return f"MonomialOrder({self.name!r})"


LEX = MonomialOrder("lex", tuple)
GRLEX = MonomialOrder("grlex", lambda m: (sum(m), tuple(m)))
# Monomials are exponent tuples; a list comprehension over the reversed
# slice builds the grevlex tail faster than a generator.
GREVLEX = MonomialOrder("grevlex", lambda m: (sum(m), tuple([-e for e in m[::-1]])))

_ORDERS = {o.name: o for o in (LEX, GRLEX, GREVLEX)}


def order_by_name(name):
    """The order named "lex", "grlex" or "grevlex"; ValueError otherwise."""
    if not isinstance(name, str) or name not in _ORDERS:
        raise ValueError(
            f"unknown monomial order {name!r}; expected one of {sorted(_ORDERS)}"
        )
    return _ORDERS[name]


class Polynomial:
    """A polynomial with coefficients in a prime field.

    terms maps exponent tuples to coefficient residues in [1, q); zero
    coefficients are never stored, so equal polynomials have equal dicts.
    Both are read through `operator.index`: a float or a string raises
    ValueError.
    """

    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field, nvars, terms):
        self.field = field
        self.nvars = nvars
        clean = {}
        index, q = operator.index, field.q
        for mono, coeff in terms.items():
            exps = tuple(mono)
            try:
                c = index(coeff) % q
                negative = exps and min(map(index, exps)) < 0
            except TypeError:
                raise ValueError(f"non-integer term {mono!r}: {coeff!r}") from None
            if len(exps) != nvars or negative:
                raise DimensionMismatchError(
                    f"exponent tuple {mono} invalid for {nvars} variables"
                )
            if c:
                clean[exps] = c
        self.terms = clean

    @classmethod
    def _clean(cls, field, nvars, terms):
        """The polynomial with exactly these terms, taken as they are: keys
        exponent tuples of length nvars, values residues in [1, q).  For
        terms that are already reduced residues, such as those of a division
        or a row reduction, which `__init__` would check one by one."""
        f = cls.__new__(cls)
        f.field = field
        f.nvars = nvars
        f.terms = terms
        return f

    @classmethod
    def zero(cls, field, nvars):
        return cls(field, nvars, {})

    @classmethod
    def constant(cls, field, nvars, value):
        return cls(field, nvars, {(0,) * nvars: value})

    @classmethod
    def monomial(cls, field, mono):
        return cls(field, len(mono), {tuple(mono): 1})

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

    def _coefficient(self, c):
        """c as a residue mod q, read through `operator.index` as in
        `__init__`: a float or a string raises ValueError."""
        try:
            return operator.index(c) % self.field.q
        except TypeError:
            raise ValueError(f"non-integer coefficient {c!r}") from None

    def scale(self, c):
        c = self._coefficient(c)
        if c == 0:
            return Polynomial.zero(self.field, self.nvars)
        return Polynomial(
            self.field, self.nvars, {m: (v * c) for m, v in self.terms.items()}
        )

    def term_mul(self, mono, coeff=1):
        """Multiply by the single term coeff * t^mono."""
        c = self._coefficient(coeff)
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


def format_polynomial(f):
    """Canonical text: terms in decreasing grevlex order, symmetric coefficients."""
    if not f.terms:
        return "0"
    q = f.field.q
    parts = []
    for mono in GREVLEX.sorted(f.terms, reverse=True):
        c = f.terms[mono]
        factors = [
            f"t{i + 1}^{e}" if e > 1 else f"t{i + 1}" for i, e in enumerate(mono) if e
        ]
        mag = c if c <= q // 2 else q - c
        if mag != 1 or not factors:
            factors.insert(0, str(mag))
        parts += ["+" if c <= q // 2 else "-", "*".join(factors)]
    # "+ a - b" for the terms a, -b; a leading "+ " is dropped, "- " closed up.
    text = " ".join(parts)
    return text[2:] if parts[0] == "+" else "-" + text[2:]


def divide(f, divisors, order):
    """Multivariate division of f by a list of divisors.

    Returns (quotients, remainder) with f = sum(q_i * g_i) + remainder, no
    remainder monomial divisible by any divisor lead, and every product
    q_i * g_i having lead at most the lead of f.
    """
    if not divisors:
        raise ValueError("divisor list is empty")
    for g in divisors:
        f._check(g)
    quots, rem = _divide(f, _heads(divisors, order), order)
    return (
        [Polynomial._clean(f.field, f.nvars, terms) for terms in quots],
        Polynomial._clean(f.field, f.nvars, rem),
    )


def _heads(divisors, order, leads=None):
    """(lead monomial, inverse lead coefficient, terms) of each divisor: what
    every division step reads, built once per divisor list.  `leads`, the
    divisors' lead monomials when the caller already has them, saves keying
    every term to find them."""
    heads = []
    for i, g in enumerate(divisors):
        if g.is_zero():
            raise ZeroPolynomialError("cannot divide by the zero polynomial")
        lead = g.lead_monomial(order) if leads is None else leads[i]
        heads.append((lead, g.field.inv(g.terms[lead]), g.terms))
    return heads


def _divide(f, heads, order, standard=frozenset()):
    """`divide` by divisors given as their `_heads`, quotients and remainder
    as term dicts.

    `standard` is a set of monomials that no head divides (the footprint of
    a Groebner basis): a term on one of them goes to the remainder at once,
    with one set lookup, and is never tested against the heads."""
    q = f.field.q
    # One mutable dividend; its lead strictly decreases, so every quotient
    # and remainder monomial is written once.  Each monomial is keyed once,
    # when it enters the dividend.
    p = {}
    rem = {}
    for mono, c in f.terms.items():
        (rem if mono in standard else p)[mono] = c
    keys = {mono: order.key(mono) for mono in p}
    quots = [{} for _ in heads]
    while p:
        pm = max(p, key=keys.__getitem__)
        pc = p[pm]
        for (gm, ginv, gterms), quot in zip(heads, quots):
            if monomial_divides(gm, pm):
                t = tuple(x - y for x, y in zip(pm, gm))
                c = (pc * ginv) % q
                quot[t] = c
                for m, v in gterms.items():
                    mt = monomial_mul(m, t)
                    into = rem if mt in standard else p
                    value = (into.get(mt, 0) - c * v) % q
                    if value:
                        if into is p and mt not in keys:
                            keys[mt] = order.key(mt)
                        into[mt] = value
                    else:
                        del into[mt]
                break
        else:
            rem[pm] = pc
            del p[pm]
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
        self._leads = None

    @classmethod
    def empty(cls, field, nvars, order):
        return cls(field, nvars, order, [])

    @property
    def dim(self):
        return len(self.basis)

    def leads(self):
        """Lead monomials of the basis, in basis order; found on the first
        call and kept."""
        if self._leads is None:
            self._leads = tuple(b.lead_monomial(self.order) for b in self.basis)
        return list(self._leads)

    def contains(self, f):
        return self.coordinates(f) is not None

    def coordinates(self, f):
        """Coefficients of f on the basis, or None when f is outside.

        The basis is reduced echelon, so the coefficient of a basis element
        is that of its lead in what is left of f; the terms left are reduced
        in place."""
        q = self.field.q
        rest = dict(f.terms)
        coords = []
        for b, lead in zip(self.basis, self.leads()):
            c = rest.get(lead, 0)
            coords.append(c)
            if c:
                for m, v in b.terms.items():
                    w = (rest.get(m, 0) - c * v) % q
                    if w:
                        rest[m] = w
                    else:
                        del rest[m]
        return None if rest else coords

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
        Polynomial._clean(field, nvars, {m: c for m, c in zip(cols, row) if c})
        for row in reduced.tolist()
    ]
    return PolySpace(field, nvars, order, basis)
