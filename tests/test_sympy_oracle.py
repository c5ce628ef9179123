"""sympy as an independent oracle for `factor_over_field` and `rref_kernel`.

Over GF(p) the monic irreducible factors and their multiplicities must equal
those of ``sympy.factor_list(f, modulus=p)``; over Q, where only a split into
linear factors is certified, `complete` must hold exactly when every sympy
factor is linear, and the linear factors must agree.  Over Q the rank, pivots
and RREF of `rref_kernel` must equal ``sympy.Matrix.rref()``, and its kernel
must have the dimension of ``sympy.Matrix.nullspace()``.
"""

import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from findual.kernel import GF, QQ, Matrix, Poly, factor_over_field, rref_kernel

sympy = pytest.importorskip("sympy")
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
        fac = factor_over_field(f)
        theirs = sympy_factors(f)
        assert fac.complete == all(len(coeffs) == 2 for coeffs, _ in theirs)
        # sympy's linear factor b + a x over Z is the monic x + b/a
        want = sorted(((Fraction(int(c[0]), int(c[1])), 1), m) for c, m in theirs if len(c) == 2)
        got = sorted((g.coeffs, m) for g, m in fac.factors if g.degree() == 1)
        assert got == want


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
