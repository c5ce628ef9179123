"""Univariate polynomials with exact coefficients, and factorization.

Coefficients are stored lowest degree first, each canonical (see
`Field.canonical`), with a nonzero leading coefficient (the zero polynomial
is the empty list).  Arithmetic computes with the plain ``+ - *`` operators
and reduces each output coefficient once, as the algebra layer does.  Factorization over
GF(p) is complete (squarefree split + Berlekamp, O(log p) products per
split); over Q only detection of a full split into linear factors is
attempted, and the unfactored remainder is returned with
``complete=False`` so callers can refuse to guess.
"""

from __future__ import annotations

import math
from itertools import count
from typing import NamedTuple

from ..errors import ZeroPolynomialError
from .fields import Field, PrimeField, Rationals, is_prime
from .linalg import Matrix, rref_kernel


class Poly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs):
        """coeffs may be computed with the plain ``+ - *`` operators: they
        are reduced once each here (see `Field.canonical`)."""
        coeffs = field.canonical(coeffs)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.field = field
        self.coeffs = tuple(coeffs)

    @classmethod
    def from_ints(cls, field: Field, ints) -> "Poly":
        return cls(field, ints)

    @classmethod
    def x(cls, field: Field) -> "Poly":
        return cls(field, [field.zero(), field.one()])

    @classmethod
    def constant(cls, field: Field, c) -> "Poly":
        return cls(field, [c])

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def leading(self):
        if not self.coeffs:
            return self.field.zero()
        return self.coeffs[-1]

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        lc = self.leading()
        if lc == self.field.one():
            return self
        inv = self.field.inv(lc)
        return Poly(self.field, [c * inv for c in self.coeffs])

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(self.field, out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + other.scale(-1)

    def scale(self, c) -> "Poly":
        return Poly(self.field, [c * a for a in self.coeffs])

    def __mul__(self, other: "Poly") -> "Poly":
        return Poly(self.field, _product(self.coeffs, other.coeffs))

    def _divide(self, rem) -> list:
        """Divide the coefficient list `rem`, whose entries may be unreduced,
        by self in place: rem[:degree] is left holding the remainder,
        unreduced.  Returns the quotient's coefficients, each reduced by the
        one `Field.mul` that reads it off the leading remainder entry."""
        f = self.field
        if not self.coeffs:
            raise ZeroDivisionError("polynomial division by zero")
        d = len(self.coeffs) - 1
        quo = [0] * max(len(rem) - d, 0)
        inv_lc = f.inv(self.coeffs[-1])
        low = self.coeffs[:-1]
        for k in range(len(quo) - 1, -1, -1):
            c = f.mul(rem[k + d], inv_lc)
            if c:
                quo[k] = c
                for i, b in enumerate(low, k):
                    rem[i] -= c * b
        return quo

    def divmod(self, other: "Poly"):
        rem = list(self.coeffs)
        quo = other._divide(rem)
        return Poly(self.field, quo), Poly(self.field, rem[:other.degree()])

    def __mod__(self, other: "Poly") -> "Poly":
        rem = list(self.coeffs)
        other._divide(rem)
        return Poly(self.field, rem[:other.degree()])

    def __floordiv__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[0]

    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def derivative(self) -> "Poly":
        return Poly(self.field, [i * c for i, c in enumerate(self.coeffs)][1:])

    def evaluate(self, x):
        f = self.field
        acc = f.zero()
        for c in reversed(self.coeffs):
            acc = f.add(f.mul(acc, x), c)
        return acc

    def pow_mod(self, n: int, modulus: "Poly") -> "Poly":
        """self^n modulo `modulus`, by squaring from the top bit of n down, on
        coefficient lists: each product is divided by `modulus` unreduced and
        reduced once after."""
        f = self.field
        if not n:
            return Poly(f, [f.one()]) % modulus
        d = modulus.degree()

        def mulmod(a, b):
            prod = _product(a, b)
            modulus._divide(prod)
            return f.canonical(prod[:d])

        base = acc = (self % modulus).coeffs
        for bit in bin(n)[3:]:
            acc = mulmod(acc, acc)
            if bit == "1":
                acc = mulmod(acc, base)
        return Poly(f, acc)

    def sort_key(self):
        return (self.degree(), self.coeffs)

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == self.field.zero():
                continue
            if i == 0:
                terms.append(f"{c}")
            elif i == 1:
                terms.append(f"{c}*t")
            else:
                terms.append(f"{c}*t^{i}")
        return "Poly(" + " + ".join(terms) + ")"


def _product(a, b) -> list:
    """Coefficients of the product of two coefficient sequences, unreduced."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


class Factorization(NamedTuple):
    unit: object  # leading scalar extracted from f
    factors: tuple  # ((monic Poly, multiplicity), ...) in canonical order
    complete: bool  # False only over Q when a degree>=2 remainder is unfactored

    def product(self, field: Field) -> Poly:
        acc = Poly.constant(field, self.unit)
        for g, m in self.factors:
            for _ in range(m):
                acc = acc * g
        return acc


def _squarefree_decomposition_gf(f: Poly, p: int):
    """Return {squarefree monic factor: multiplicity} over GF(p)."""
    out = {}

    def accumulate(g: Poly, mult: int):
        if g.degree() >= 1:
            out[g] = out.get(g, 0) + mult

    def recurse(g: Poly, mult: int):
        g = g.monic()
        if g.degree() < 1:
            return
        dg = g.derivative()
        if dg.is_zero():
            # g = h(t^p) = h(t)^p since coefficients lie in the prime field
            root = Poly(g.field, [g.coeffs[i] for i in range(0, len(g.coeffs), p)])
            recurse(root, mult * p)
            return
        c = g.gcd(dg)
        w = (g // c).monic()
        i = 1
        while w.degree() >= 1:
            y = w.gcd(c)
            accumulate((w // y).monic(), mult * i)
            w = y
            c = (c // y).monic()
            i += 1
        # what remains of c is a p-th power; the derivative branch unwinds it
        if c.degree() >= 1:
            recurse(c, mult)

    recurse(f, 1)
    return out


def _berlekamp_split(f: Poly, p: int):
    """Split a squarefree monic f over GF(p) into monic irreducible factors.

    The kernel of Q - I, with Q the matrix of Frobenius modulo f, is the
    Berlekamp algebra: each v in it is congruent to a constant a_i modulo
    each irreducible factor f_i, and for f_i != f_j some basis vector has
    a_i != a_j.  `_split_by` separates the factors on which v differs in
    O(log p) polynomial products each, never by trying all p constants.
    """
    field = f.field
    n = f.degree()
    if n <= 1:
        return [f]
    # Q matrix: row i = coefficients of t^(i*p) mod f
    t = Poly.x(field)
    tp = t.pow_mod(p, f)
    rows = []
    cur = Poly.constant(field, field.one())
    for i in range(n):
        coeffs = list(cur.coeffs) + [field.zero()] * (n - len(cur.coeffs))
        rows.append(coeffs)
        cur = (cur * tp) % f
    # v (Q - I) = 0: the kernel of the transpose, read by columns
    for i in range(n):
        rows[i][i] = field.sub(rows[i][i], field.one())
    ker = rref_kernel(Matrix.from_rows(field, rows).transpose()).kernel
    factors = [f]
    for c in range(ker.cols):
        if len(factors) == ker.cols:
            break
        v = Poly(field, ker.col(c))
        factors = [piece for g in factors for piece in _split_by(g, v, p)]
    return factors


def _split_by(g: Poly, v: Poly, p: int, start: int = 0):
    """The factors of g grouped by the constant v takes modulo each.

    Over GF(2), gcd(g, v) collects the factors where v is 0.  For odd p,
    gcd(g, (v + d)^((p-1)/2) - 1) collects those where v + d is a nonzero
    square; two distinct constants a, b are separated by about half of all
    d (the character sum of (a + d)(b + d) over d is -1), so the expected
    number of trials is about two and one below p always exists.  A d that
    did not split g, or that split it, splits neither piece, so the pieces
    go on from the next d: `start` is the first d not yet tried.
    """
    field = g.field
    r = v % g
    if r.degree() < 1:  # one constant modulo every factor of g
        return [g]
    d = start
    if p == 2:
        h = g.gcd(r)
    else:
        minus_one = Poly.constant(field, -1)
        for d in count(start):
            h = g.gcd((r + Poly.constant(field, d)).pow_mod((p - 1) // 2, g) + minus_one)
            if 1 <= h.degree() < g.degree():
                break
    return _split_by(h, v, p, d + 1) + _split_by((g // h).monic(), v, p, d + 1)


def _factor_degrees(f: Poly) -> list:
    """The degrees of the irreducible factors of a squarefree monic f over
    GF(p), in increasing order, by distinct-degree factorization.

    t^(p^i) - t is the product of the monic irreducibles whose degree
    divides i, so once the factors of degree below i are divided out,
    gcd(f, t^(p^i) - t) is the product of those of degree i.  Each i costs
    one p-th power modulo f, O(log p) products; a factor of degree above
    deg f / 2 is the one left at the end.
    """
    p = f.field.p
    t = Poly.x(f.field)
    degrees = []
    h = t  # t^(p^i) modulo f
    i = 0
    while 2 * (i + 1) <= f.degree():
        i += 1
        h = h.pow_mod(p, f)
        g = f.gcd(h - t)
        if g.degree() > 0:
            degrees += [i] * (g.degree() // i)
            f = f // g
            h = h % f
    if f.degree() > 0:
        degrees.append(f.degree())
    return degrees


def _rational_linear_split(f: Poly):
    """Extract all rational roots with multiplicity; return (factors, remainder)."""
    field = f.field
    factors = {}
    rest = f.monic()
    for root in _rational_roots(rest):
        lin = Poly(field, [field.neg(root), field.one()])
        while rest.evaluate(root) == 0:
            factors[lin] = factors.get(lin, 0) + 1
            rest = (rest // lin).monic()
    return factors, rest


def _rational_roots(f: Poly):
    """The distinct rational roots of f over Q (degree >= 1), by Hensel lifting.

    Scale g, the squarefree part of f over any factor t, to integer
    coefficients b_0, ..., b_m.  A root u/v of g in lowest terms has u | b_0
    and v | b_m, so b_m u/v is an integer of size at most |b_0 b_m|.  Modulo
    a prime p not dividing b_m at which every root of g is simple, Newton's
    iteration lifts each root to the one root modulo p^(2^k) > 2 |b_0 b_m|
    above it, and for one of them b_m u/v is the balanced residue of b_m x.
    Each candidate is checked exactly.  Only the primes dividing b_m or the
    discriminant of g fail, so the search for p ends; no integer is factored.
    """
    zero = f.field.zero()
    roots = [zero] if f.coeffs[0] == zero else []
    # g is squarefree, so t divides it at most once: exactly when 0 is a root
    coeffs = (f // f.gcd(f.derivative())).coeffs[len(roots):]
    if len(coeffs) < 2:
        return roots
    scale = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * scale) for c in coeffs]
    slopes = [i * c for i, c in enumerate(ints)][1:]
    lead, bound = ints[-1], 2 * abs(ints[0] * ints[-1])

    def value(cs, x, m):
        acc = 0
        for c in reversed(cs):
            acc = (acc * x + c) % m
        return acc

    for p in filter(is_prime, count(2)):
        residues = [x for x in range(p) if not value(ints, x, p)]
        if lead % p and all(value(slopes, x, p) for x in residues):
            break
    for x in residues:
        m = p
        while m <= bound:
            m *= m
            x = (x - value(ints, x, m) * pow(value(slopes, x, m), -1, m)) % m
        y = lead * x % m
        root = f.field.div(y - m if 2 * y > m else y, lead)
        if f.evaluate(root) == zero:
            roots.append(root)
    return roots


def factor_over_field(f: Poly) -> Factorization:
    """Factor f into monic factors with multiplicities and a unit.

    Over GF(p) the factorization is complete and every factor irreducible;
    the Berlekamp split costs O(log p) polynomial products per factor found,
    so a modulus of any size factors promptly.
    Over Q only a full split into linear factors is certified; otherwise the
    linear part is extracted and the remainder returned as a single factor
    with ``complete=False``.
    """
    field = f.field
    if f.is_zero():
        raise ZeroPolynomialError("cannot factor the zero polynomial")
    unit = f.leading()
    monic = f.monic()
    if monic.degree() == 0:
        return Factorization(unit, (), True)
    if isinstance(field, PrimeField):
        p = field.p
        sqfree = _squarefree_decomposition_gf(monic, p)
        found = {}
        for g, mult in sqfree.items():
            for irr in _berlekamp_split(g, p):
                irr = irr.monic()
                found[irr] = found.get(irr, 0) + mult
        ordered = tuple(sorted(found.items(), key=lambda kv: kv[0].sort_key()))
        return Factorization(unit, ordered, True)
    assert isinstance(field, Rationals)
    linear, rest = _rational_linear_split(monic)
    items = sorted(linear.items(), key=lambda kv: kv[0].sort_key())
    if rest.degree() <= 0:
        return Factorization(unit, tuple(items), True)
    return Factorization(unit, tuple(items + [(rest, 1)]), False)
