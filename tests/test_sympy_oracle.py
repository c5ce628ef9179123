"""sympy as an independent oracle for `factor_over_field`, `rref_kernel`
and `minimal_polynomial`.

Over GF(p) the monic irreducible factors and their multiplicities must equal
those of ``sympy.factor_list(f, modulus=p)``; over Q, where only a split into
linear factors is certified, `complete` must hold exactly when every sympy
factor is linear, and the linear factors must agree.  Over Q the rank, pivots
and RREF of `rref_kernel` must equal ``sympy.Matrix.rref()``, and its kernel
must have the dimension of ``sympy.Matrix.nullspace()``.  The minimal
polynomial of an element v of a valid algebra must be that of the matrix of
left multiplication by v, found with sympy's own linear algebra over GF(p)
and Q.
"""

import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_algebra import algebras, small_scalars

from findual.algebra import minimal_polynomial
from findual.kernel import GF, QQ, Matrix, Poly, PrimeField, factor_over_field, rref_kernel

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402
from sympy.utilities.exceptions import SymPyDeprecationWarning  # noqa: E402

X = sympy.Symbol("x")


def sympy_factors(f: Poly, **domain):
    """sympy's (factor coefficients lowest first, multiplicity) pairs."""
    expr = sum(sympy.Rational(c.numerator, c.denominator) * X ** k
               for k, c in enumerate(map(Fraction, f.coeffs)))
    with warnings.catch_warnings():
        # sympy 1.14 sorts GF(p) factors with a deprecated ordered comparison
        warnings.simplefilter("ignore", SymPyDeprecationWarning)
        _, factors = sympy.factor_list(expr, X, **domain)
    return [(sympy.Poly(g, X).all_coeffs()[::-1], m) for g, m in factors]


@st.composite
def products(draw, field, scalars):
    """A product of one to three random factors of degree 1 to 3, each to a
    power 1 to 3, times a nonzero unit: repeated and p-th power factors are
    common."""
    f = Poly.constant(field, draw(scalars.filter(bool)))
    for _ in range(draw(st.integers(1, 3))):
        deg = draw(st.integers(1, 3))
        coeffs = draw(st.lists(scalars, min_size=deg, max_size=deg)) + [draw(scalars.filter(bool))]
        g = Poly(field, coeffs)
        for _ in range(draw(st.integers(1, 3))):
            f = f * g
    return f


@st.composite
def prime_field_polys(draw):
    field = GF(draw(st.sampled_from([2, 3, 5, 7, 11, 13])))
    return draw(products(field, st.integers(0, field.p - 1)))


@st.composite
def rational_polys(draw):
    # small numerators and denominators, so rational roots are common
    scalars = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3]))
    return draw(products(QQ, scalars))


@st.composite
def large_rational_polys(draw):
    # 30-bit numerators and denominators: trial division of the constant
    # term would not finish, and few primes are bad for the lifting
    scalars = st.builds(Fraction, st.integers(-2 ** 30, 2 ** 30), st.integers(1, 2 ** 30))
    return draw(products(QQ, scalars))


def check_rational_linear_split(f):
    fac = factor_over_field(f)
    theirs = sympy_factors(f)
    assert fac.complete == all(len(coeffs) == 2 for coeffs, _ in theirs)
    # sympy's linear factor b + a x over Z is the monic x + b/a
    want = sorted(((Fraction(int(c[0]), int(c[1])), 1), m) for c, m in theirs if len(c) == 2)
    got = sorted((g.coeffs, m) for g, m in fac.factors if g.degree() == 1)
    assert got == want


class TestFactorAgainstSympy:
    @settings(max_examples=200)
    @given(prime_field_polys())
    def test_prime_field_factors(self, f):
        p = f.field.p
        fac = factor_over_field(f)
        assert fac.complete
        want = sorted((tuple(int(c) % p for c in coeffs), m)
                      for coeffs, m in sympy_factors(f, modulus=p))
        assert sorted((g.coeffs, m) for g, m in fac.factors) == want

    @settings(max_examples=200)
    @given(rational_polys())
    def test_rational_linear_split(self, f):
        check_rational_linear_split(f)

    @settings(max_examples=60)
    @given(large_rational_polys())
    def test_rational_linear_split_with_large_coefficients(self, f):
        check_rational_linear_split(f)


@st.composite
def rational_matrices(draw):
    """A 1..6 x 1..6 matrix over Q whose rows are small combinations of at
    most three random rows, so rank deficiency is common."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    scalars = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3]))
    base = draw(st.lists(st.lists(scalars, min_size=cols, max_size=cols), min_size=1, max_size=3))
    out = []
    for _ in range(rows):
        weights = draw(st.lists(st.integers(-2, 2), min_size=len(base), max_size=len(base)))
        out.append([sum((w * row[k] for w, row in zip(weights, base)), Fraction(0)) for k in range(cols)])
    return Matrix.from_rows(QQ, out)


def to_sympy(m: Matrix):
    return sympy.Matrix(m.rows, m.cols, [sympy.Rational(x.numerator, x.denominator) for x in m.entries])


class TestRrefAgainstSympy:
    @settings(max_examples=200)
    @given(rational_matrices())
    def test_rank_rref_and_kernel_dimension(self, m):
        ours = rref_kernel(m)
        theirs, pivots = to_sympy(m).rref()
        assert ours.rank == len(pivots)
        assert ours.pivots == tuple(pivots)
        assert ours.rref.entries == tuple(Fraction(int(x.p), int(x.q)) for x in theirs)
        assert ours.kernel.cols == len(to_sympy(m).nullspace())
        assert (to_sympy(m) * to_sympy(ours.kernel)).is_zero_matrix


def sympy_minimal_polynomial(m: Matrix):
    """Coefficients, lowest first, of the monic minimal polynomial of m: the
    first power M^k whose entries are a combination of those of the lower
    powers, by sympy's nullspace over GF(p) or Q."""
    f, n = m.field, m.rows
    if isinstance(f, PrimeField):
        domain = sympy.GF(f.p)
        to_ours = lambda x: int(x) % f.p  # noqa: E731
    else:
        domain = sympy.QQ
        to_ours = lambda x: Fraction(int(domain.numer(x)), int(domain.denom(x)))  # noqa: E731
    entries = [domain(x.numerator) / domain(x.denominator) for x in map(Fraction, m.entries)]
    mat = DomainMatrix([entries[r * n:(r + 1) * n] for r in range(n)], (n, n), domain)
    powers = [DomainMatrix.eye(n, domain)]
    while True:
        powers.append(powers[-1] * mat)
        flat = [power.to_list_flat() for power in powers]
        krylov = DomainMatrix([list(col) for col in zip(*flat)], (n * n, len(powers)), domain)
        null = krylov.nullspace().to_list()
        if null:
            (vec,) = null
            return [to_ours(x / vec[-1]) for x in vec]


class TestMinimalPolynomialAgainstSympy:
    @settings(max_examples=150)
    @given(st.data())
    def test_matches_left_multiplication_matrix(self, data):
        a = data.draw(algebras())
        vec = data.draw(st.lists(small_scalars(a.field), min_size=a.dim, max_size=a.dim))
        ours = minimal_polynomial(a, vec)
        assert list(ours.coeffs) == sympy_minimal_polynomial(a.left_mult_matrix(vec))
