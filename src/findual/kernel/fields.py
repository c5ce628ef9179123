"""Exact base fields: the rationals and prime fields GF(p).

Scalars are plain Python values; a Field object supplies the arithmetic.
Over GF(p) a scalar is its residue, an ``int`` in [0, p).  Over Q it is an
``int`` when it is integral and a ``fractions.Fraction`` with denominator
greater than 1 otherwise, so tables of integers compute on int arithmetic.
Both forms are canonical, so ``==`` on scalars is exact equality, and
``/`` is never applied to a scalar: `Field.div` and `Field.inv` divide.
Hot loops compute with the plain ``+ - *`` operators and call `canonical`
once per output entry; over GF(p) that is the single ``% p``, over Q it
turns an integral Fraction into its int.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd

from ..errors import BadParamsError, OrderUnavailableError


# Miller-Rabin to the first 13 prime bases is exact below this bound
# (Sorenson and Webster, 2015); no modulus at or above it is taken.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; raises BadParamsError from _PRIME_BOUND on."""
    if n >= _PRIME_BOUND:
        raise BadParamsError(f"a modulus must be below {_PRIME_BOUND}, got {n}")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """Common interface; see Rationals and PrimeField."""

    kind: str

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def of(self, n):
        """Canonical image of a Python int (or Fraction over Q)."""
        raise NotImplementedError

    def add(self, x, y):
        raise NotImplementedError

    def sub(self, x, y):
        raise NotImplementedError

    def mul(self, x, y):
        raise NotImplementedError

    def neg(self, x):
        raise NotImplementedError

    def inv(self, x):
        raise NotImplementedError

    def div(self, x, y):
        return self.mul(x, self.inv(y))

    def canonical(self, values) -> list:
        """Canonical scalars of values computed with the plain + - * operators
        (lazy reduction: one reduction per entry, after the arithmetic)."""
        raise NotImplementedError

    def dot(self, u, v):
        """sum u_i v_i, reduced once."""
        raise NotImplementedError

    def pow(self, x, n: int):
        if n < 0:
            return self.pow(self.inv(x), -n)
        acc = self.one()
        base = x
        while n:
            if n & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            n >>= 1
        return acc

    def characteristic(self) -> int:
        raise NotImplementedError

    def scalar_to_json(self, x):
        raise NotImplementedError

    def scalar_from_json(self, doc):
        raise NotImplementedError


def _rational(x):
    """The canonical Q scalar equal to x: an int when x is integral, a
    Fraction with denominator greater than 1 otherwise."""
    if type(x) is not int:
        if type(x) is not Fraction:
            x = Fraction(x)
        if x.denominator == 1:
            return x.numerator
    return x


class Rationals(Field):
    kind = "rationals"

    def zero(self):
        return 0

    def one(self):
        return 1

    def of(self, n):
        return _rational(n)

    def add(self, x, y):
        return _rational(x + y)

    def sub(self, x, y):
        return _rational(x - y)

    def mul(self, x, y):
        return _rational(x * y)

    def neg(self, x):
        return -x

    def canonical(self, values) -> list:
        return [x if type(x) is int else _rational(x) for x in values]

    def dot(self, u, v):
        return _rational(sum(map(operator.mul, u, v)))

    def inv(self, x):
        if x == 0:
            raise ZeroDivisionError("inverse of 0")
        return _rational(1 / Fraction(x))

    def characteristic(self) -> int:
        return 0

    def scalar_to_json(self, x):
        return f"{x.numerator}/{x.denominator}"

    def scalar_from_json(self, doc):
        if not isinstance(doc, str) or "/" not in doc:
            raise BadParamsError(f"not a rational scalar: {doc!r}")
        num, den = doc.split("/", 1)
        if den == "1":
            return int(num)
        den = int(den)
        if den == 0:
            raise BadParamsError(f"zero denominator in {doc!r}")
        return _rational(Fraction(int(num), den))

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("rationals")

    def __repr__(self):
        return "QQ"


class PrimeField(Field):
    kind = "prime-field"

    def __init__(self, p: int):
        if not is_prime(p):
            raise BadParamsError(f"modulus {p} is not prime")
        self.p = p

    def zero(self):
        return 0

    def one(self):
        return 1

    def of(self, n):
        return int(n) % self.p

    def add(self, x, y):
        return (x + y) % self.p

    def sub(self, x, y):
        return (x - y) % self.p

    def mul(self, x, y):
        return (x * y) % self.p

    def neg(self, x):
        return (-x) % self.p

    def canonical(self, values) -> list:
        p = self.p
        return [x % p for x in values]

    def dot(self, u, v):
        return sum(map(operator.mul, u, v)) % self.p

    def inv(self, x):
        if x % self.p == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(x, self.p - 2, self.p)

    def pow(self, x, n: int):
        if n < 0:
            return pow(self.inv(x), -n, self.p)
        return pow(x, n, self.p)

    def characteristic(self) -> int:
        return self.p

    def scalar_to_json(self, x):
        return int(x)

    def scalar_from_json(self, doc):
        if not isinstance(doc, int) or isinstance(doc, bool):
            raise BadParamsError(f"not a GF({self.p}) scalar: {doc!r}")
        return doc % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime-field", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = Rationals()


def GF(p: int) -> PrimeField:
    return PrimeField(p)


def field_to_json(field: Field) -> dict:
    if isinstance(field, PrimeField):
        return {"kind": "prime-field", "p": field.p}
    return {"kind": "rationals"}


def field_from_json(doc) -> Field:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise BadParamsError(f"not a field spec: {doc!r}")
    if doc["kind"] == "rationals":
        return QQ
    if doc["kind"] == "prime-field":
        return PrimeField(doc["p"])
    raise BadParamsError(f"unknown field kind {doc['kind']!r}")


def prime_factors(n: int):
    """The distinct primes dividing n, ascending, for 1 <= n < _PRIME_BOUND.

    Trial division by d < _TRIAL_BOUND stops once d^2 exceeds the cofactor.
    What is left is 1, a prime (`is_prime` is exact below the bound) or a
    composite whose prime factors all exceed the trial bound; Pollard-Brent
    rho splits the composites until every piece is prime.
    """
    primes = set()
    d = 2
    while d < _TRIAL_BOUND and d * d <= n:
        if n % d == 0:
            primes.add(d)
            while n % d == 0:
                n //= d
        d += 1
    pending = [n] if n > 1 else []
    while pending:
        m = pending.pop()
        if is_prime(m):
            primes.add(m)
        else:
            d = _rho_factor(m)
            pending += [d, m // d]
    return sorted(primes)


_TRIAL_BOUND = 1 << 10


def _rho_factor(n: int) -> int:
    """A proper factor of a composite n with no prime factor below
    _TRIAL_BOUND: Pollard's rho with Brent's cycle search, the differences
    multiplied in batches of 128 before each gcd.  A run whose gcd is n
    repeats with the next constant c in x -> x^2 + c."""
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            # the batch overshot: replay it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


def check_root_order(field: Field, n: int) -> None:
    """Raise unless the field has an element of multiplicative order n."""
    if n < 1:
        raise BadParamsError(f"order must be positive, got {n}")
    if isinstance(field, Rationals):
        if n > 2:
            raise OrderUnavailableError(f"no primitive {n}th root of unity in Q")
    elif (field.p - 1) % n != 0:
        raise OrderUnavailableError(f"{n} does not divide {field.p} - 1")


# The most steps `primitive_root_of_unity` starts on.  A scan step is a
# modular power or two, 4-9 us at p near 10^12 to 10^18; a walk step is one
# modular product, about 0.3-0.4 us (2-core x86-64, CPython 3.11.7).
_ROOT_SEARCH_BOUND = 10 ** 7


def primitive_root_of_unity(field: Field, n: int):
    """Smallest scalar of multiplicative order exactly n, by canonical order.

    Over GF(p) this needs n | p - 1; over Q only n in {1, 2} is realizable.
    z with z^n = 1 has order n iff z^(n/l) != 1 for every prime l | n.  A scan
    of x = 1, 2, ... meets one of the phi(n) elements of order n about every
    (p - 1) / phi(n) steps; a walk takes the first z = x^((p-1)/n) of order n
    and steps through z, z^2, ..., z^n by one product each, keeping the least
    z^k with gcd(k, n) = 1: all phi(n) elements of order n.  The search
    estimate is the scan's (p - 1) / phi(n) steps when n phi(n) > p - 1 and
    the walk's n otherwise; both are about sqrt(p) when n is, and above
    `_ROOT_SEARCH_BOUND` steps BadParamsError is raised.  A scan step is a
    power to the exponent n, about n.bit_length() / 2 walk steps, so the walk
    is taken whenever it is the cheaper of the two.
    """
    check_root_order(field, n)
    if isinstance(field, Rationals):
        return field.one() if n == 1 else field.of(-1)
    p = field.p
    primes = prime_factors(n)
    phi = n
    for ell in primes:
        phi -= phi // ell
    dense = n * phi > p - 1
    steps = (p - 1) // phi if dense else n
    if steps > _ROOT_SEARCH_BOUND:
        raise BadParamsError(f"finding the smallest element of order {n} in GF({p}) would take "
                             f"about {steps} steps, more than {_ROOT_SEARCH_BOUND}")
    if dense and 2 * n > steps * n.bit_length():
        for x in range(1, p):
            if pow(x, n, p) == 1 and all(pow(x, n // ell, p) != 1 for ell in primes):
                return x
    for x in range(1, p):
        z = pow(x, (p - 1) // n, p)
        if all(pow(z, n // ell, p) != 1 for ell in primes):
            break
    least = w = z
    for k in range(2, n):
        w = w * z % p
        if w < least and gcd(k, n) == 1:
            least = w
    return least
